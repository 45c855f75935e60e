//! `serve-bulk`: a closed loop in-process. Two client threads each keep
//! one tensor in flight through `ServeHandle::submit` / `submit_f32`.
//!
//! Tensors of 16K–256K elements — nn layer activations, straddling L2 —
//! over gelu and silu at 32 segments and tanh at 8, so both kernel
//! paths run; half the requests are f32. The kernel, the `ParallelPwl`
//! fan-out and serve's pack and scatter copies do the work; wire and
//! router are bypassed and the batcher sees few jobs per flush.

use crate::closed::{self, latencies, tally, Client, CLIENTS};
use crate::inputs::{self, FuncSpec, Payload, Request, Table};
use crate::stats::{self, digest, SpanLog};
use crate::{probes, telemetry, timed_setup, Ctx, Metrics, Outcome, SETUPS};
use flexsfu_obs::MetricsRegistry;
use flexsfu_serve::{FunctionId, FunctionRegistry, PwlServer, ServeConfig, ServeHandle, ServeObs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct tensors; each client cycles through its half. Enough that
/// the seed's draw of sizes and precisions averages out (about 100 MB).
const POOL: usize = 128;
const ELEMS: (u32, u32) = (16_384, 262_144);
/// tanh runs with 8 segments (7 breakpoints): the small-table kernel.
const TANH_BREAKPOINTS: usize = 7;

struct Stack {
    server: PwlServer,
    tables: Vec<Table>,
}

fn funcs() -> Vec<FuncSpec> {
    let mut funcs = inputs::serving_funcs();
    funcs[2].breakpoints = TANH_BREAKPOINTS;
    funcs
}

fn setup(funcs: &[FuncSpec], obs: Option<&ServeObs>, pool: &[Request]) -> Stack {
    let tables = inputs::fit_tables(funcs);
    let registry = Arc::new(FunctionRegistry::new());
    for t in &tables {
        registry.register(t.f.name(), &t.pwl);
    }
    let server = match obs {
        Some(o) => PwlServer::start_with_obs(registry, ServeConfig::default(), o.clone()),
        None => PwlServer::start(registry, ServeConfig::default()),
    };
    // Warm every function in both precisions once.
    let handle = server.handle();
    for r in pool.iter().take(2 * funcs.len()) {
        let (_, result) = exchange(&handle, r, r.payload.clone());
        result.expect("warm-up result");
    }
    Stack { server, tables }
}

/// A result tensor in its precision.
enum Output {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

/// Submits `input` (a copy of `r`'s tensor), then waits; returns the
/// instant submit returned and the result.
fn exchange(
    handle: &ServeHandle,
    r: &Request,
    input: Payload,
) -> (Instant, Result<Output, flexsfu_serve::ServeError>) {
    let func = FunctionId(r.func as u32);
    match input {
        Payload::F64(xs) => {
            let ticket = handle.submit(func, xs);
            let submitted = Instant::now();
            (submitted, ticket.and_then(|t| t.wait()).map(Output::F64))
        }
        Payload::F32(xs) => {
            let ticket = handle.submit_f32(func, xs);
            let submitted = Instant::now();
            (submitted, ticket.and_then(|t| t.wait()).map(Output::F32))
        }
    }
}

/// Runs both clients until `deadline`; client `c` cycles through pool
/// entries `c, c + CLIENTS, …`. Each client copies its next tensor from
/// the pool into the previous result's buffer, before its start stamp
/// for the first and while the current one is in flight after that.
fn drive(handle: &ServeHandle, pool: &[Request], seconds: f64, traced: bool) -> Vec<Client> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut me = Client {
                        spans: traced.then(SpanLog::default),
                        ..Client::default()
                    };
                    let (mut spare64, mut spare32) = (Vec::new(), Vec::new());
                    let mut idx = c;
                    let mut input = copy(&pool[idx].payload, &mut spare64, &mut spare32);
                    let start = Instant::now();
                    while Instant::now() < deadline {
                        let (cur, r) = (idx, &pool[idx]);
                        let t0 = Instant::now();
                        let (t1, result) = exchange(&handle, r, input);
                        let t2 = Instant::now();
                        idx = (idx + CLIENTS) % pool.len();
                        if let Some(log) = me.spans.as_mut() {
                            log.record("serve.submit", t0, t1);
                            log.record("serve.result", t1, t2);
                        }
                        match result {
                            Ok(Output::F64(v)) => {
                                me.complete(t0, t2, v.len());
                                me.digests.push((cur, digest(&v)));
                                spare64 = v;
                            }
                            Ok(Output::F32(v)) => {
                                me.complete(t0, t2, v.len());
                                me.digests.push((cur, digest(&v)));
                                spare32 = v;
                            }
                            Err(_) => me.errors += 1,
                        }
                        input = copy(&pool[idx].payload, &mut spare64, &mut spare32);
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

/// A fresh copy of `p`, reusing a spare buffer's allocation.
fn copy(p: &Payload, spare64: &mut Vec<f64>, spare32: &mut Vec<f32>) -> Payload {
    match p {
        Payload::F64(xs) => {
            let mut v = std::mem::take(spare64);
            v.clear();
            v.extend_from_slice(xs);
            Payload::F64(v)
        }
        Payload::F32(xs) => {
            let mut v = std::mem::take(spare32);
            v.clear();
            v.extend_from_slice(xs);
            Payload::F32(v)
        }
    }
}

pub fn run(ctx: Ctx) -> Outcome {
    let funcs = funcs();
    let pool = inputs::requests(ctx.seed, &funcs, ELEMS, POOL);
    let mut out = Outcome::default();
    if ctx.trace {
        traced(ctx, &funcs, &pool, &mut out);
        return out;
    }
    let (setup_s, stack) = timed_setup(SETUPS, || setup(&funcs, None, &pool));
    let clients = drive(&stack.server.handle(), &pool, ctx.seconds, false);
    (out.attempted, out.failed) = tally(&stack.tables, &pool, &clients);
    let summary = closed::summarize("tensor", &clients);
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("p50_us", summary.p50_us);
    m.insert("ops_per_s", summary.ops_per_s);
    m.insert("melem_per_s", summary.melem_per_s);
    crate::fit::paper_metrics(&stack.tables, &pool, m);
    out.phases = format!("closed loop {:.2}s x {CLIENTS} clients", ctx.seconds);
    out
}

fn traced(ctx: Ctx, funcs: &[FuncSpec], pool: &[Request], out: &mut Outcome) {
    let phase_s = 0.4 * ctx.seconds;
    let plain = {
        let stack = setup(funcs, None, pool);
        drive(&stack.server.handle(), pool, phase_s, false)
    };
    let obs = ServeObs::with_defaults(Arc::new(MetricsRegistry::new()));
    let stack = setup(funcs, Some(&obs), pool);
    let traced = drive(&stack.server.handle(), pool, phase_s, true);
    let snap = obs.metrics.snapshot();

    let (a1, f1) = tally(&stack.tables, pool, &plain);
    let (a2, f2) = tally(&stack.tables, pool, &traced);
    (out.attempted, out.failed) = (a1 + a2, f1 + f2);
    let m: &mut Metrics = &mut out.metrics;
    telemetry::serve_layers(&snap, m);
    let mut spans = Vec::new();
    for c in &traced {
        spans.extend_from_slice(c.spans.as_ref().expect("traced client").spans());
    }
    let agg = stats::durations(&spans);
    let submit_us = stats::median(agg["serve.submit"].clone()) / 1e3;
    m.insert("serve.submit_us", submit_us);
    m.insert(
        "serve.result_us",
        stats::median(agg["serve.result"].clone()) / 1e3,
    );
    let (plain, traced_sum) = (
        closed::summarize("tensor", &plain),
        closed::summarize("tensor", &traced),
    );
    m.insert(
        "obs.overhead_pct",
        crate::overhead_pct(plain.melem_per_s, traced_sum.melem_per_s, false),
    );
    probes::run(&stack.tables, pool, m);
    let elems: usize = traced.iter().flat_map(|c| &c.done).map(|d| d.1).sum();
    let request_ns_per_elem = latencies(&traced).iter().sum::<f64>() / elems as f64;
    m.insert(
        "serve.tax_ns_per_elem",
        request_ns_per_elem - m["backend.native_ns_per_elem"],
    );
    let (wait, eval) = (m["serve.queue_wait_us.p50"], m["serve.eval_us"]);
    crate::reconcile(
        m,
        traced_sum.p50_us,
        &[
            ("serve.submit_us", submit_us),
            ("serve.queue_wait_us.p50", wait),
            ("serve.eval_us", eval),
        ],
    );
    out.phases = format!("untraced {phase_s:.2}s + traced {phase_s:.2}s x {CLIENTS} clients");
}
