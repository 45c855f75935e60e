//! `fit`: offline and single-threaded. For each of gelu, silu, tanh and
//! sigmoid: `optimize` with `OptimizeConfig::new(31)` (32 segments),
//! lower the table through `SfuBackend::fp16(32)`, and emulate a
//! validation set drawn uniformly over the fitting interval.
//!
//! `optim` runs nowhere else, and its gradient sweeps drive the `core`
//! engine through `eval_and_segments_into` on fixed sample grids rather
//! than serving's scatter path, so an engine change that helps serving
//! but slows fitting shows here. This workload also carries the paper's
//! own metrics: error against the uniform baseline, and modelled SFU
//! cycles and energy per element.

use crate::inputs::{self, fit_funcs, Func, FuncSpec, Payload, Request, Table};
use crate::probes::{self, GRID_SAMPLES};
use crate::stats::{self, digest, SpanLog};
use crate::{timed_setup, Ctx, Metrics, Outcome, SETUPS};
use flexsfu_backend::{BackendProgram, LowerError, SfuBackend, SfuProgram};
use flexsfu_core::init::uniform_pwl;
use flexsfu_core::loss::integral_mse;
use flexsfu_formats::{DataFormat, FloatFormat};
use flexsfu_optim::{optimize, OptimizeConfig};
use flexsfu_traffic::InputSampler;
use std::time::Instant;

/// Breakpoints of every fitted table: 32 segments.
const BREAKPOINTS: usize = 31;
/// Validation points emulated per function.
const VALIDATION: u32 = 8192;

/// The paper's metrics for a workload's tables and requests:
/// `mse_gain_x`, the geometric mean over the tables of the uniform
/// table's integral MSE (same breakpoint count, same interval) over the
/// table's; and the modelled cost of streaming each request through a
/// Flex-SFU (see [`lower`]), per element.
pub fn paper_metrics(tables: &[Table], reqs: &[Request], m: &mut Metrics) {
    let log_gain: f64 = tables
        .iter()
        .map(|t| {
            let (a, b) = t.f.default_range();
            let uniform = uniform_pwl(t.f, t.pwl.num_breakpoints(), (a, b));
            (integral_mse(&uniform, t.f, a, b) / integral_mse(&t.pwl, t.f, a, b)).ln()
        })
        .sum();
    m.insert("mse_gain_x", (log_gain / tables.len() as f64).exp());
    let progs: Vec<SfuProgram> = tables.iter().map(|t| lower(t).0).collect();
    let (mut cycles, mut nj, mut elems) = (0.0, 0.0, 0.0);
    for r in reqs {
        let est = progs[r.func].estimate(r.payload.len());
        cycles += est.cycles as f64;
        nj += est.energy_nj;
        elems += r.payload.len() as f64;
    }
    m.insert("sfu_cycles_per_elem", cycles / elems);
    m.insert("sfu_nj_per_elem", nj / elems);
}

/// Each function's validation set: uniform over its fitting interval.
fn validation(seed: u64) -> Vec<Request> {
    fit_funcs()
        .iter()
        .enumerate()
        .map(|(k, &f)| {
            let (lo, hi) = f.default_range();
            let spec = FuncSpec {
                f,
                breakpoints: BREAKPOINTS,
                sampler: InputSampler::Uniform { lo, hi },
            };
            let r = inputs::requests(seed ^ k as u64, &[spec], (VALIDATION, VALIDATION), 1);
            Request {
                func: k,
                payload: Payload::F64(r[0].payload.to_f64()),
            }
        })
        .collect()
}

/// One function's fit, lowered and emulated.
struct Fitted {
    table: Table,
    steps: usize,
    rounds: usize,
    /// FP16 lowering refused the table (breakpoints collide after
    /// quantization); it was lowered in FP32 instead.
    fp16_refused: bool,
    outputs: Vec<f64>,
    program: SfuProgram,
    /// Wall time of optimize + lower + emulate, ns.
    ns: f64,
}

/// Lowers onto the paper's headline unit: FP16 with the smallest LTC
/// holding the table (`SfuBackend::fp16(32)` for 32 segments). The full
/// optimizer can leave breakpoints closer than one FP16 quantum (gelu
/// and silu at 31 breakpoints do), which that unit refuses with
/// `BreakpointCollision`; such a table is lowered onto the same depth in
/// FP32 instead, and the second value reports the refusal.
pub fn lower(table: &Table) -> (SfuProgram, bool) {
    let fp16 = SfuBackend::for_segments(
        table.engine.num_segments(),
        DataFormat::Float(FloatFormat::FP16),
    );
    match fp16.lower_program(&table.engine) {
        Ok(p) => (p, false),
        Err(LowerError::BreakpointCollision) => {
            let p = SfuBackend::new(fp16.config(), DataFormat::Float(FloatFormat::FP32))
                .lower_program(&table.engine)
                .expect("FP32 resolves the optimizer's breakpoints");
            (p, true)
        }
        Err(e) => panic!("lowering a 32-segment table: {e}"),
    }
}

/// The timed operation; when traced, a span wraps each public call.
fn fit_one(f: Func, xs: &[f64], log: Option<&mut SpanLog>) -> Fitted {
    let t0 = Instant::now();
    let result = optimize(f, OptimizeConfig::new(BREAKPOINTS));
    let t1 = Instant::now();
    let table = Table::new(f, result.pwl);
    let (program, fp16_refused) = lower(&table);
    let t2 = Instant::now();
    let (outputs, _) = program.eval_batch(xs);
    let t3 = Instant::now();
    if let Some(l) = log {
        l.record("optim.optimize", t0, t1);
        l.record("backend.lower", t1, t2);
        l.record("backend.emulate", t2, t3);
    }
    Fitted {
        table,
        steps: result.steps,
        rounds: result.rounds,
        fp16_refused,
        outputs,
        program,
        ns: t3.duration_since(t0).as_nanos() as f64,
    }
}

/// One pass over the four functions.
struct Pass {
    fits: Vec<Fitted>,
    ns: f64,
}

fn pass(val: &[Request], mut log: Option<&mut SpanLog>) -> Pass {
    let start = Instant::now();
    let fits = fit_funcs()
        .iter()
        .zip(val)
        .map(|(&f, v)| match &v.payload {
            Payload::F64(xs) => fit_one(f, xs, log.as_deref_mut()),
            Payload::F32(_) => unreachable!("validation sets are f64"),
        })
        .collect();
    Pass {
        fits,
        ns: start.elapsed().as_nanos() as f64,
    }
}

/// Runs passes until the next would overrun `seconds` (at least one).
fn passes(val: &[Request], seconds: f64, mut log: Option<&mut SpanLog>) -> Vec<Pass> {
    let start = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    loop {
        out.push(pass(val, log.as_deref_mut()));
        let longest = out.iter().map(|p| p.ns).fold(0.0, f64::max) / 1e9;
        if start.elapsed().as_secs_f64() + longest > seconds {
            return out;
        }
    }
}

/// The output oracle: every emulated output within the program's
/// `abs_error_bound` of the table's f64 evaluation over the validation
/// interval, and every pass's tables and step counts identical to the
/// first's (the fitter is deterministic). Returns failed operations.
fn check(val: &[Request], runs: &[&Pass]) -> u64 {
    let key = |f: &Fitted| {
        (
            digest(f.table.pwl.breakpoints()),
            digest(f.table.pwl.values()),
            f.steps,
        )
    };
    let reference: Vec<_> = runs[0].fits.iter().map(key).collect();
    let mut failed = 0;
    for p in runs {
        for ((f, v), want) in p.fits.iter().zip(val).zip(&reference) {
            let xs = match &v.payload {
                Payload::F64(xs) => xs,
                Payload::F32(_) => unreachable!("validation sets are f64"),
            };
            let (lo, hi) = xs
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            let bound = f.program.abs_error_bound(lo, hi);
            let within = xs
                .iter()
                .zip(&f.outputs)
                .all(|(&x, &y)| (y - f.table.engine.eval_one(x)).abs() <= bound);
            if !within || key(f) != *want {
                failed += 1;
            }
        }
    }
    failed
}

/// Set-up: the uniform baselines the fits are scored against, and one
/// quick warm-up fit.
fn setup() {
    for f in fit_funcs() {
        let (a, b) = f.default_range();
        std::hint::black_box(integral_mse(&uniform_pwl(f, BREAKPOINTS, (a, b)), f, a, b));
    }
    std::hint::black_box(optimize(fit_funcs()[0], OptimizeConfig::quick(BREAKPOINTS)));
}

pub fn run(ctx: Ctx) -> Outcome {
    let val = validation(ctx.seed);
    let mut out = Outcome::default();
    if ctx.trace {
        traced(ctx, &val, &mut out);
        return out;
    }
    let (setup_s, ()) = timed_setup(SETUPS, setup);
    let runs = passes(&val, ctx.seconds, None);
    out.attempted = (runs.len() * val.len()) as u64;
    out.failed = check(&val, &runs.iter().collect::<Vec<_>>());
    let ns: Vec<f64> = runs
        .iter()
        .flat_map(|p| p.fits.iter().map(|f| f.ns))
        .collect();
    stats::print_latency("fit per function", &ns);
    // Rates from the median pass: one pass disturbed by the host does
    // not move them.
    let pass_s = stats::median(runs.iter().map(|p| p.ns / 1e9).collect());
    let swept: usize = runs[0].fits.iter().map(|f| f.steps * GRID_SAMPLES).sum();
    out.phases = format!("{} passes x {} functions", runs.len(), val.len());
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("p50_us", stats::percentile(ns, 50.0) / 1e3);
    m.insert("ops_per_s", val.len() as f64 / pass_s);
    m.insert("melem_per_s", swept as f64 / pass_s / 1e6);
    paper_metrics(&tables(runs), &val, m);
    out
}

/// The first pass's tables.
fn tables(runs: Vec<Pass>) -> Vec<Table> {
    let first = runs.into_iter().next().expect("at least one pass");
    first.fits.into_iter().map(|f| f.table).collect()
}

fn traced(ctx: Ctx, val: &[Request], out: &mut Outcome) {
    let phase_s = 0.4 * ctx.seconds;
    let plain = passes(val, phase_s, None);
    let mut log = SpanLog::default();
    let traced = passes(val, phase_s, Some(&mut log));
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    out.attempted = (all.len() * val.len()) as u64;
    out.failed = check(val, &all);
    out.phases = format!(
        "untraced {} + traced {} passes x {} functions",
        plain.len(),
        traced.len(),
        val.len()
    );

    let m = &mut out.metrics;
    let first = &traced[0].fits;
    let steps: usize = first.iter().map(|f| f.steps).sum();
    m.insert("optim.steps", steps as f64);
    m.insert(
        "optim.rounds",
        first.iter().map(|f| f.rounds).sum::<usize>() as f64,
    );
    let refused = first.iter().filter(|f| f.fp16_refused).count();
    m.insert("backend.fp16_refusals", refused as f64);
    let spans = stats::durations(log.spans());
    let per_pass = |name: &str| -> Vec<f64> { spans[name].clone() };
    // Spans come in pass order, four functions per pass.
    let optimize = per_pass("optim.optimize");
    for (k, name) in [
        "optim.fit_s.gelu",
        "optim.fit_s.silu",
        "optim.fit_s.tanh",
        "optim.fit_s.sigmoid",
    ]
    .into_iter()
    .enumerate()
    {
        let mine: Vec<f64> = optimize
            .iter()
            .skip(k)
            .step_by(val.len())
            .copied()
            .collect();
        m.insert(name, stats::median(mine) / 1e9);
    }
    let pass_s = |runs: &[Pass]| stats::median(runs.iter().map(|p| p.ns).collect()) / 1e9;
    let (plain_s, traced_s) = (pass_s(&plain), pass_s(&traced));
    m.insert(
        "obs.overhead_pct",
        crate::overhead_pct(plain_s, traced_s, true),
    );
    let lower_s = per_pass("backend.lower").iter().sum::<f64>() / traced.len() as f64 / 1e9;
    let emulate_s = per_pass("backend.emulate").iter().sum::<f64>() / traced.len() as f64 / 1e9;
    probes::run(&tables(traced), val, m);
    let sweeps_s = (steps * GRID_SAMPLES) as f64 * m["optim.grad_ns_per_sample"] / 1e9;
    crate::reconcile(
        m,
        traced_s,
        &[
            ("optim.grad_sweeps_s", sweeps_s),
            ("backend.lower_s", lower_s),
            ("backend.emulate_s", emulate_s),
        ],
    );
}
