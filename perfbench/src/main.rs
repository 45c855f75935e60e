//! The repository benchmark: four workloads from socket to optimizer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with observability off.
//! `--trace 1` runs the workload twice — untraced, then with the
//! library's telemetry on and the benchmark's own spans around every
//! public call it makes — and prints the per-layer metrics, including
//! the cost of observability and the share of the end-to-end time no
//! layer accounts for. Layers are only ever timed from outside: the
//! benchmark adds no stamp inside the program.
//!
//! Every output is checked after the timed window: native results bit
//! for bit against direct `CompiledPwl` / `CompiledPwlF32` evaluation,
//! sfu-emu results against `SfuProgram::abs_error_bound`. A mismatch
//! counts as a failed operation and the command exits with code 1.
//! The last line of standard output is the JSON result.

mod closed;
mod fit;
mod inputs;
mod probes;
mod router_sync;
mod serve_bulk;
mod stats;
mod telemetry;
mod wire_open;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Metric name → value, for one run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("melem_per_s", "Melem/s"),
    ("mse_gain_x", "x"),
    ("sfu_cycles_per_elem", "cycles"),
    ("sfu_nj_per_elem", "nJ"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("core.f64_ns_per_elem", "ns"),
    ("core.f32_ns_per_elem", "ns"),
    ("backend.native_ns_per_elem", "ns"),
    ("backend.sfu_ns_per_elem", "ns"),
    ("backend.fp16_refusals", "count"),
    ("serve.submit_us", "us"),
    ("serve.result_us", "us"),
    ("serve.tax_ns_per_elem", "ns"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.eval_us", "us"),
    ("serve.elems_per_flush", "count"),
    ("serve.jobs_per_flush", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.submit_us", "us"),
    ("wire.ack_to_result_us", "us"),
    ("wire.roundtrip_us", "us"),
    ("wire.bytes_per_elem", "bytes"),
    ("wire.retry_after_share", "ratio"),
    ("shard.route_ns", "ns"),
    ("shard.self_us", "us"),
    ("shard.retries", "count"),
    ("optim.grad_ns_per_sample", "ns"),
    ("optim.steps", "count"),
    ("optim.rounds", "count"),
    ("optim.fit_s.gelu", "s"),
    ("optim.fit_s.silu", "s"),
    ("optim.fit_s.tanh", "s"),
    ("optim.fit_s.sigmoid", "s"),
    ("obs.overhead_pct", "%"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("unattributed_pct", "%"),
];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: the only source of input randomness.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed windows.
    pub attempted: u64,
    /// Operations that errored or failed the output oracle.
    pub failed: u64,
    /// The metrics this run measured.
    pub metrics: Metrics,
    /// Phase names and lengths, for the provenance line.
    pub phases: String,
}

/// Runs `setup` `n` times — each a full set-up from nothing, the
/// previous one torn down first — and returns the median set-up time in
/// seconds together with the last set-up's result, which the workload
/// then measures.
pub fn timed_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(times), last.expect("n >= 1"))
}

/// How many set-ups `setup_s` is the median of.
pub const SETUPS: usize = 9;

/// The traced run's percentage difference between an untraced and a
/// traced reading of the same metric (positive = observability slows
/// it down), given whether lower is better.
pub fn overhead_pct(untraced: f64, traced: f64, lower_is_better: bool) -> f64 {
    let d = if lower_is_better {
        traced - untraced
    } else {
        untraced - traced
    };
    100.0 * d / untraced
}

/// Reconciliation: the blocking-path layer medians may exceed the
/// end-to-end median by at most this share before the run reports the
/// decomposition as broken (layers overlapping or double counted).
/// Whatever they leave uncovered is printed as `unattributed_pct`.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// Records `unattributed_pct` from an end-to-end median and the medians
/// of the layers on its blocking path, and prints the decomposition with
/// its verdict against [`RECONCILE_TOLERANCE`].
pub fn reconcile(out: &mut Metrics, e2e: f64, parts: &[(&str, f64)]) {
    let attributed: f64 = parts.iter().map(|p| p.1).sum();
    let rest = e2e - attributed;
    let listed: Vec<String> = parts.iter().map(|(n, v)| format!("{n}={v:.3}")).collect();
    let verdict = if attributed <= e2e * (1.0 + RECONCILE_TOLERANCE) {
        "ok"
    } else {
        "OVER-ATTRIBUTED"
    };
    println!(
        "reconcile {verdict}: e2e {e2e:.3} = {} + unattributed {rest:.3}",
        listed.join(" + ")
    );
    out.insert("unattributed_pct", 100.0 * rest / e2e);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err(format!("--seconds {seconds}: need at least 1"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout's commit, read from `.git` in the working directory
/// only (never a parent's); `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
        flags.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <wire-open|serve-bulk|router-sync|fit> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "wire-open" => wire_open::run(ctx),
        "serve-bulk" => serve_bulk::run(ctx),
        "router-sync" => router_sync::run(ctx),
        "fit" => fit::run(ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let catalog: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        // Per-layer metrics of layers this workload bypasses read 0;
        // an end-to-end metric is always measured.
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if ctx.trace => 0.0,
            None => panic!("{} did not measure {name}", args.workload),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in outcome.metrics.keys() {
        assert!(
            catalog.iter().any(|c| c.0 == *name),
            "{name} is not in the metric catalog"
        );
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance {{\"git_rev\": \"{}\", \"nproc\": {nproc}, \"cpu_flags\": \"{}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"phases\": \"{}\"}}",
        git_rev(),
        cpu_flags(),
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        outcome.phases,
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogs and workload names agree with the repository's
    /// `BENCHMARK.json`, entry for entry.
    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let field = |key: &str| -> Vec<String> {
            let tag = format!("\"{key}\": \"");
            json.match_indices(&tag)
                .map(|(i, _)| {
                    let rest = &json[i + tag.len()..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                })
                .collect()
        };
        let names = field("name");
        let units = field("unit");
        let workloads = ["wire-open", "serve-bulk", "router-sync", "fit"];
        let catalog: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        assert_eq!(names.len(), workloads.len() + catalog.len());
        assert_eq!(names[..workloads.len()], workloads);
        for ((name, unit), (n, u)) in catalog
            .iter()
            .map(|c| **c)
            .zip(names[workloads.len()..].iter().zip(&units))
        {
            assert_eq!((name, unit), (n.as_str(), u.as_str()));
        }
    }
}
