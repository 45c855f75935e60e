//! `wire-open`: an open loop over one `WireClient` connection into a
//! `WireServer` in front of a default-configured `PwlServer`.
//!
//! Requests of 64–256 elements (gelu, silu and tanh at 32 segments,
//! half f32) arrive as a Poisson stream; one sender thread submits each
//! at its due time and one collector thread waits the tickets in order.
//! Latency runs from the due time. The `high` phase runs at a fixed rate
//! of about half the connection's saturation; the `saturation` phase then
//! keeps a fixed window of requests outstanding and counts what the
//! connection sustains. The wire codec, socket and batcher do most of
//! the work here; the kernel evaluates small flushes.

use crate::inputs::{self, FuncSpec, Payload, Request, Table};
use crate::stats::{self, digest, SpanLog};
use crate::{closed, probes, telemetry, timed_setup, Ctx, Outcome, SETUPS};
use flexsfu_obs::MetricsRegistry;
use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig, ServeObs};
use flexsfu_wire::{WireClient, WireConfig, WireError, WireServer, WireTicket, WireTicketF32};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The `high` phase's arrival rate (req/s), frozen from the
/// saturation this harness measured on a 2-vCPU host (22,000–30,000
/// req/s, varying with the host's load).
const HIGH_RPS: f64 = 12_000.0;
/// Requests the `saturation` phase keeps outstanding: 256 requests of
/// at most 256 elements stay under the server's 131072-element queue
/// bound, so the phase never provokes a `RetryAfter` refusal.
const WINDOW: usize = 256;
/// Distinct request tensors; the arrival stream cycles through them.
const POOL: usize = 4096;
/// Requests submitted (closed loop) to warm a fresh stack.
const WARMUP: usize = 512;

/// One serving stack; fields drop client first, server last.
struct Stack {
    client: WireClient,
    _wire: WireServer,
    _server: PwlServer,
    tables: Vec<Table>,
}

fn setup(funcs: &[FuncSpec], obs: Option<&ServeObs>, warm: &[Request]) -> Stack {
    let tables = inputs::fit_tables(funcs);
    let registry = Arc::new(FunctionRegistry::new());
    for t in &tables {
        registry.register(t.f.name(), &t.pwl);
    }
    let config = ServeConfig::default();
    let server = match obs {
        Some(o) => PwlServer::start_with_obs(registry, config, o.clone()),
        None => PwlServer::start(registry, config),
    };
    let wire = match obs {
        Some(o) => {
            WireServer::start_local_with_obs(server.handle(), WireConfig::default(), o.clone())
        }
        None => WireServer::start_local(server.handle(), WireConfig::default()),
    }
    .expect("bind a local wire server");
    let client = WireClient::connect(wire.local_addr()).expect("connect to the wire server");
    let tickets: Vec<_> = warm
        .iter()
        .map(|r| submit(&client, r).expect("warm-up submit"))
        .collect();
    for t in tickets {
        t.wait().expect("warm-up result");
    }
    Stack {
        client,
        _wire: wire,
        _server: server,
        tables,
    }
}

enum Ticket {
    F64(WireTicket),
    F32(WireTicketF32),
}

impl Ticket {
    /// Waits for the result and digests its bits.
    fn wait(self) -> Result<u64, WireError> {
        match self {
            Self::F64(t) => t.wait().map(|v| digest(&v)),
            Self::F32(t) => t.wait().map(|v| digest(&v)),
        }
    }
}

fn submit(client: &WireClient, r: &Request) -> Result<Ticket, WireError> {
    let func = r.func as u32;
    match &r.payload {
        Payload::F64(xs) => client.submit_f64(func, xs.clone()).map(Ticket::F64),
        Payload::F32(xs) => client.submit_f32(func, xs.clone()).map(Ticket::F32),
    }
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    /// Due → result, ns, per answered request.
    latency: Vec<f64>,
    /// Due → send start, ns, per send.
    late: Vec<f64>,
    sent: usize,
    errors: usize,
    /// Each answer's instant and element count.
    done: Vec<(Instant, f64)>,
    /// `(pool index, result digest)` for the oracle.
    digests: Vec<(usize, u64)>,
    /// `RetryAfter` refusals, each resubmitted after its hint.
    retries: usize,
}

impl Phase {
    fn describe(&self) -> String {
        format!(
            "{} sent, {} answered, {} errors, {} RetryAfter resubmitted, generator late max {:.1} us",
            self.sent,
            self.latency.len(),
            self.errors,
            self.retries,
            stats::percentile(self.late.clone(), 100.0) / 1e3,
        )
    }
}

/// How a phase paces its sends.
#[derive(Clone, Copy)]
enum Pacing<'a> {
    /// Open loop: each request's due time, ns from the phase start.
    Schedule(&'a [u64]),
    /// Closed window: send whenever fewer than [`WINDOW`] requests are
    /// outstanding, for this many seconds.
    Window(f64),
}

/// Runs one phase; request `i` is `pool[i % POOL]`. Under
/// [`Pacing::Window`] a request's due time is its send time. A request
/// refused with `RetryAfter` (the host stalled the server long enough to
/// fill its queue) is resubmitted after the hint, as a wire client
/// would; its latency still runs from its due time.
fn run_phase(
    client: &WireClient,
    pool: &[Request],
    pacing: Pacing,
    spans: Option<&mut SpanLog>,
) -> Phase {
    let epoch = Instant::now() + Duration::from_millis(2);
    let answered = AtomicUsize::new(0);
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, u64, Ticket)>();
        let answered = &answered;
        let collector = scope.spawn(move || {
            let mut p = Phase::default();
            for (i, due, mut ticket) in rx {
                let result = loop {
                    match ticket.wait() {
                        Err(WireError::RetryAfter { hint }) => {
                            p.retries += 1;
                            std::thread::sleep(hint);
                            match submit(client, &pool[i % pool.len()]) {
                                Ok(t) => ticket = t,
                                Err(e) => break Err(e),
                            }
                        }
                        other => break other,
                    }
                };
                let now = Instant::now();
                answered.fetch_add(1, Ordering::Release);
                match result {
                    Ok(d) => {
                        p.latency.push(stats::due_latency_ns(due, ns(now)) as f64);
                        p.digests.push((i % pool.len(), d));
                        p.done
                            .push((now, pool[i % pool.len()].payload.len() as f64));
                    }
                    Err(_) => p.errors += 1,
                }
            }
            p
        });
        let (mut late, mut errors) = (Vec::new(), 0);
        let mut spans = spans;
        for i in 0.. {
            let due = match pacing {
                Pacing::Schedule(s) if i == s.len() => break,
                Pacing::Schedule(s) => {
                    let now = ns(Instant::now());
                    if s[i] > now {
                        std::thread::sleep(Duration::from_nanos(s[i] - now));
                    }
                    s[i]
                }
                Pacing::Window(seconds) => {
                    if epoch.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    while i - answered.load(Ordering::Acquire) >= WINDOW {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    ns(Instant::now())
                }
            };
            let start = Instant::now();
            let ticket = submit(client, &pool[i % pool.len()]);
            let end = Instant::now();
            late.push(ns(start).saturating_sub(due) as f64);
            if let Some(log) = spans.as_deref_mut() {
                log.record("wire.submit", start, end);
            }
            match ticket {
                Ok(t) => tx.send((i, due, t)).expect("collector alive"),
                Err(_) => errors += 1,
            }
        }
        drop(tx);
        let mut p = collector.join().expect("collector thread");
        p.sent = late.len();
        p.late = late;
        p.errors += errors;
        p
    })
}

/// Oracle mismatches across `phases`.
fn oracle(tables: &[Table], pool: &[Request], phases: &[&Phase]) -> u64 {
    closed::mismatches(tables, pool, phases.iter().flat_map(|p| &p.digests))
}

/// The phase's latency median, µs, as the median of one-second window
/// medians (windows by answer time), so a burst of host noise moves
/// one window, not the figure.
fn windowed_p50_us(p: &Phase) -> f64 {
    let samples: Vec<(Instant, f64)> = p
        .done
        .iter()
        .map(|d| d.0)
        .zip(p.latency.iter().copied())
        .collect();
    let (start, end) = (samples[0].0, samples[samples.len() - 1].0);
    stats::windowed_median(&samples, start, end, Duration::from_secs(1)) / 1e3
}

fn schedule(ctx: Ctx, tag: u64, rate: f64, seconds: f64) -> Vec<u64> {
    inputs::poisson_schedule(ctx.seed ^ tag.wrapping_mul(0x9E37_79B9), rate, seconds)
}

pub fn run(ctx: Ctx) -> Outcome {
    let funcs = inputs::serving_funcs();
    let pool = inputs::requests(ctx.seed, &funcs, (64, 256), POOL);
    let warm = &pool[..WARMUP];
    let mut out = Outcome::default();
    if ctx.trace {
        traced(ctx, &funcs, &pool, &mut out);
        return out;
    }
    let phase_s = 0.5 * ctx.seconds;
    let high = schedule(ctx, 1, HIGH_RPS, phase_s);

    let (setup_s, stack) = timed_setup(SETUPS, || setup(&funcs, None, warm));
    let high_phase = run_phase(&stack.client, &pool, Pacing::Schedule(&high), None);
    let saturation = run_phase(&stack.client, &pool, Pacing::Window(phase_s), None);
    println!("high {HIGH_RPS} req/s: {}", high_phase.describe());
    stats::print_latency("high phase, from due time", &high_phase.latency);
    println!(
        "saturation, {WINDOW} outstanding: {}",
        saturation.describe()
    );

    let phases = [&high_phase, &saturation];
    out.attempted = phases.iter().map(|p| p.sent as u64).sum();
    out.failed =
        phases.iter().map(|p| p.errors as u64).sum::<u64>() + oracle(&stack.tables, &pool, &phases);
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("p50_us", windowed_p50_us(&high_phase));
    let (start, end) = (
        saturation.done[0].0,
        saturation.done[saturation.done.len() - 1].0,
    );
    let rate = |amount: &dyn Fn(f64) -> f64| {
        let done: Vec<(Instant, f64)> = saturation
            .done
            .iter()
            .map(|&(t, n)| (t, amount(n)))
            .collect();
        stats::windowed_rate(&done, start, end, Duration::from_secs(1))
    };
    m.insert("ops_per_s", rate(&|_| 1.0));
    m.insert("melem_per_s", rate(&|n| n / 1e6));
    crate::fit::paper_metrics(&stack.tables, &pool, m);
    out.phases = format!(
        "high {phase_s:.2}s @ {HIGH_RPS} req/s; saturation {phase_s:.2}s x {WINDOW} outstanding"
    );
    out
}

fn traced(ctx: Ctx, funcs: &[FuncSpec], pool: &[Request], out: &mut Outcome) {
    let phase_s = 0.35 * ctx.seconds;
    let plain_sched = schedule(ctx, 1, HIGH_RPS, phase_s);
    let traced_sched = schedule(ctx, 2, HIGH_RPS, phase_s);
    let warm = &pool[..WARMUP];

    let plain = {
        let stack = setup(funcs, None, warm);
        run_phase(&stack.client, pool, Pacing::Schedule(&plain_sched), None)
    };
    let obs = ServeObs::with_defaults(Arc::new(MetricsRegistry::new()));
    let stack = setup(funcs, Some(&obs), warm);
    let mut log = SpanLog::default();
    let traced = run_phase(
        &stack.client,
        pool,
        Pacing::Schedule(&traced_sched),
        Some(&mut log),
    );
    let snap = obs.metrics.snapshot();

    out.attempted = (plain.sent + traced.sent) as u64;
    out.failed =
        (plain.errors + traced.errors) as u64 + oracle(&stack.tables, pool, &[&plain, &traced]);
    let m = &mut out.metrics;
    telemetry::serve_layers(&snap, m);
    telemetry::wire_layers(&snap, m);
    let spans = stats::durations(log.spans());
    let submit_us = stats::median(spans["wire.submit"].clone()) / 1e3;
    m.insert("wire.submit_us", submit_us);
    m.insert(
        "gen.late_p99_us",
        stats::percentile(plain.late.clone(), 99.0) / 1e3,
    );
    m.insert(
        "gen.late_max_us",
        stats::percentile(plain.late.clone(), 100.0) / 1e3,
    );
    let p50_plain = windowed_p50_us(&plain);
    let p50_traced = windowed_p50_us(&traced);
    m.insert(
        "obs.overhead_pct",
        crate::overhead_pct(p50_plain, p50_traced, true),
    );
    let late_p50 = stats::median(traced.late.clone()) / 1e3;
    let ack = m["wire.ack_to_result_us"];
    crate::reconcile(
        m,
        p50_traced,
        &[
            ("gen.late_p50_us", late_p50),
            ("wire.submit_us", submit_us),
            ("wire.ack_to_result_us", ack),
        ],
    );
    probes::run(&stack.tables, pool, m);
    out.phases = format!("untraced {phase_s:.2}s + traced {phase_s:.2}s @ {HIGH_RPS} req/s");
}
