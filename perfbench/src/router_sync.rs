//! `router-sync`: a closed loop through a 2-shard `ShardRouter`. Two
//! client threads each call `eval_f64` / `eval_f32` with 64–256-element
//! tensors (gelu, silu, tanh at 32 segments, half f32).
//!
//! With one request in flight per caller no queue forms, so fixed
//! per-request costs dominate: the router loop, one wire round trip and
//! the batcher's flush deadline. This is the only workload that runs
//! `shard`.

use crate::closed::{self, tally, Client, CLIENTS};
use crate::inputs::{self, FuncSpec, Payload, Request, Table};
use crate::stats::{self, digest, SpanLog};
use crate::{probes, telemetry, timed_setup, Ctx, Outcome, SETUPS};
use flexsfu_serve::FunctionId;
use flexsfu_shard::{RouterConfig, ShardRouter};
use flexsfu_wire::WireClient;
use std::hint::black_box;
use std::time::{Duration, Instant};

const POOL: usize = 4096;
const ELEMS: (u32, u32) = (64, 256);
const SHARDS: usize = 2;
/// Requests evaluated (one at a time) to warm a fresh deployment.
const WARMUP: usize = 64;
/// `ShardRouter::route` calls timed by the route probe.
const ROUTE_CALLS: usize = 100_000;

struct Stack {
    router: ShardRouter,
    tables: Vec<Table>,
}

fn setup(funcs: &[FuncSpec], observed: bool, pool: &[Request]) -> Stack {
    let tables = inputs::fit_tables(funcs);
    let config = RouterConfig {
        observability: observed,
        ..RouterConfig::default()
    };
    let router = ShardRouter::deploy(SHARDS, config, |registry| {
        for t in &tables {
            registry.register(t.f.name(), &t.pwl);
        }
    })
    .expect("deploy the shards");
    for r in &pool[..WARMUP] {
        eval(&router, r).expect("warm-up request");
    }
    Stack { router, tables }
}

/// Evaluates `r` through the router; returns the result's digest.
fn eval(router: &ShardRouter, r: &Request) -> Result<u64, flexsfu_shard::RouterError> {
    let func = FunctionId(r.func as u32);
    match &r.payload {
        Payload::F64(xs) => router.eval_f64(func, xs).map(|v| digest(&v)),
        Payload::F32(xs) => router.eval_f32(func, xs).map(|v| digest(&v)),
    }
}

/// Both clients until the deadline; client `c` walks the pool from
/// entry `c` in steps of `CLIENTS`.
fn drive(router: &ShardRouter, pool: &[Request], seconds: f64) -> Vec<Client> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut me = Client::default();
                    let mut idx = c;
                    let start = Instant::now();
                    while Instant::now() < deadline {
                        let r = &pool[idx];
                        let t0 = Instant::now();
                        let result = eval(router, r);
                        match result {
                            Ok(d) => {
                                me.complete(t0, Instant::now(), r.payload.len());
                                me.digests.push((idx, d));
                            }
                            Err(_) => me.errors += 1,
                        }
                        idx = (idx + CLIENTS) % pool.len();
                    }
                    me.window = Some((start, Instant::now()));
                    me
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    })
}

pub fn run(ctx: Ctx) -> Outcome {
    let funcs = inputs::serving_funcs();
    let pool = inputs::requests(ctx.seed, &funcs, ELEMS, POOL);
    let mut out = Outcome::default();
    if ctx.trace {
        traced(ctx, &funcs, &pool, &mut out);
        return out;
    }
    let (setup_s, stack) = timed_setup(SETUPS, || setup(&funcs, false, &pool));
    let clients = drive(&stack.router, &pool, ctx.seconds);
    (out.attempted, out.failed) = tally(&stack.tables, &pool, &clients);
    let summary = closed::summarize("request", &clients);
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("p50_us", summary.p50_us);
    m.insert("ops_per_s", summary.ops_per_s);
    m.insert("melem_per_s", summary.melem_per_s);
    crate::fit::paper_metrics(&stack.tables, &pool, m);
    out.phases = format!("closed loop {:.2}s x {CLIENTS} clients", ctx.seconds);
    stack.router.shutdown();
    out
}

fn traced(ctx: Ctx, funcs: &[FuncSpec], pool: &[Request], out: &mut Outcome) {
    let phase_s = 0.35 * ctx.seconds;
    let plain = {
        let stack = setup(funcs, false, pool);
        let clients = drive(&stack.router, pool, phase_s);
        stack.router.shutdown();
        clients
    };
    let stack = setup(funcs, true, pool);
    let traced = drive(&stack.router, pool, phase_s);
    let snap = stack.router.scrape_all();

    let (a1, f1) = tally(&stack.tables, pool, &plain);
    let (a2, f2) = tally(&stack.tables, pool, &traced);
    let probe = roundtrip_probe(&stack, pool, 0.1 * ctx.seconds);
    out.attempted = a1 + a2 + probe.attempted;
    out.failed = f1 + f2 + probe.failed;

    let m = &mut out.metrics;
    telemetry::serve_layers(&snap, m);
    telemetry::wire_layers(&snap, m);
    let retries = stack
        .router
        .router_metrics()
        .expect("observed deployment")
        .counter(flexsfu_shard::M_RETRIES)
        .get();
    m.insert("shard.retries", retries as f64);
    let route_ns = route_probe(&stack.router, pool);
    m.insert("shard.route_ns", route_ns);
    m.insert("wire.submit_us", probe.submit_us);
    m.insert("wire.roundtrip_us", probe.roundtrip_us);
    let p50_plain = closed::summarize("request", &plain).p50_us;
    let p50_traced = closed::summarize("request", &traced).p50_us;
    m.insert("shard.self_us", p50_traced - probe.roundtrip_us);
    m.insert(
        "obs.overhead_pct",
        crate::overhead_pct(p50_plain, p50_traced, true),
    );
    let ack = m["wire.ack_to_result_us"];
    crate::reconcile(
        m,
        p50_traced,
        &[
            ("shard.route_us", route_ns / 1e3),
            ("wire.submit_us", probe.submit_us),
            ("wire.ack_to_result_us", ack),
        ],
    );
    probes::run(&stack.tables, pool, m);
    stack.router.shutdown();
    out.phases = format!(
        "untraced {phase_s:.2}s + traced {phase_s:.2}s x {CLIENTS} clients; wire probe {:.2}s",
        0.1 * ctx.seconds
    );
}

/// Mean ns of one `ShardRouter::route` decision.
fn route_probe(router: &ShardRouter, pool: &[Request]) -> f64 {
    let t = Instant::now();
    for i in 0..ROUTE_CALLS {
        let func = FunctionId(pool[i % pool.len()].func as u32);
        black_box(router.route(black_box(func)).expect("a healthy shard"));
    }
    t.elapsed().as_nanos() as f64 / ROUTE_CALLS as f64
}

struct WireProbe {
    attempted: u64,
    failed: u64,
    submit_us: f64,
    roundtrip_us: f64,
}

/// A direct `WireClient` on shard 0, one request at a time with the
/// workload's own payloads: the time inside `submit_*` and the full
/// submit → result round trip, each as a median.
fn roundtrip_probe(stack: &Stack, pool: &[Request], seconds: f64) -> WireProbe {
    let client = WireClient::connect(stack.router.shard_addr(0).expect("shard 0"))
        .expect("connect to shard 0");
    let mut log = SpanLog::default();
    let (mut attempted, mut failed) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for r in pool.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let (t1, digest) = match &r.payload {
            Payload::F64(xs) => {
                let ticket = client.submit_f64(r.func as u32, xs.clone());
                (
                    Instant::now(),
                    ticket.and_then(|t| t.wait()).map(|v| digest(&v)),
                )
            }
            Payload::F32(xs) => {
                let ticket = client.submit_f32(r.func as u32, xs.clone());
                (
                    Instant::now(),
                    ticket.and_then(|t| t.wait()).map(|v| digest(&v)),
                )
            }
        };
        log.record("wire.submit", t0, t1);
        log.record("wire.roundtrip", t0, Instant::now());
        attempted += 1;
        if digest != Ok(stack.tables[r.func].expected_digest(&r.payload)) {
            failed += 1;
        }
    }
    let spans = stats::durations(log.spans());
    WireProbe {
        attempted,
        failed,
        submit_us: stats::median(spans["wire.submit"].clone()) / 1e3,
        roundtrip_us: stats::median(spans["wire.roundtrip"].clone()) / 1e3,
    }
}
