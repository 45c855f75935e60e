//! What the closed-loop workloads (`serve-bulk`, `router-sync`) share:
//! per-client measurements, their summary into end-to-end metrics, and
//! the output oracle.

use crate::inputs::{Request, Table};
use crate::stats::{self, SpanLog};
use std::time::{Duration, Instant};

/// Closed-loop clients per workload: one operation in flight each.
pub const CLIENTS: usize = 2;

/// One client's measurements.
#[derive(Default)]
pub struct Client {
    /// The client's own start and end stamps.
    pub window: Option<(Instant, Instant)>,
    /// Each completion's instant, element count and latency (ns).
    pub done: Vec<(Instant, usize, f64)>,
    /// Operations that returned an error.
    pub errors: usize,
    /// `(pool index, result digest)` for the oracle.
    pub digests: Vec<(usize, u64)>,
    /// Spans, in the traced run.
    pub spans: Option<SpanLog>,
}

impl Client {
    /// Records one completed operation.
    pub fn complete(&mut self, start: Instant, end: Instant, elems: usize) {
        let ns = end.duration_since(start).as_nanos() as f64;
        self.done.push((end, elems, ns));
    }
}

/// Every operation's latency, ns.
pub fn latencies(clients: &[Client]) -> Vec<f64> {
    clients
        .iter()
        .flat_map(|c| c.done.iter().map(|d| d.2))
        .collect()
}

/// The end-to-end figures of a closed-loop run.
pub struct Summary {
    /// Median per-second-window latency median, µs.
    pub p50_us: f64,
    /// Median per-second-window operation rate.
    pub ops_per_s: f64,
    /// Median per-second-window element rate, millions.
    pub melem_per_s: f64,
}

/// Summarizes over the span when every client was running, in
/// one-second windows whose medians one burst of host noise cannot
/// move. Prints the whole-run aggregate rate (total over latest end −
/// earliest start) and the pooled latency percentiles beside them.
pub fn summarize(what: &str, clients: &[Client]) -> Summary {
    let windows: Vec<_> = clients
        .iter()
        .map(|c| c.window.expect("client ran"))
        .collect();
    let all: Vec<&(Instant, usize, f64)> = clients.iter().flat_map(|c| &c.done).collect();
    let elems = all.iter().map(|d| d.1).sum::<usize>() as f64;
    println!(
        "aggregate over the clients' joint window: {:.3} Melem/s, {:.1} {what}/s",
        stats::aggregate_rate(elems, &windows) / 1e6,
        stats::aggregate_rate(all.len() as f64, &windows)
    );
    stats::print_latency(&format!("per {what}"), &latencies(clients));
    let start = windows.iter().map(|w| w.0).max().expect("clients");
    let end = windows.iter().map(|w| w.1).min().expect("clients");
    let second = Duration::from_secs(1);
    let series = |f: &dyn Fn(&(Instant, usize, f64)) -> f64| -> Vec<(Instant, f64)> {
        all.iter().map(|d| (d.0, f(d))).collect()
    };
    Summary {
        p50_us: stats::windowed_median(&series(&|d| d.2), start, end, second) / 1e3,
        ops_per_s: stats::windowed_rate(&series(&|_| 1.0), start, end, second),
        melem_per_s: stats::windowed_rate(&series(&|d| d.1 as f64 / 1e6), start, end, second),
    }
}

/// Compares every recorded digest with direct engine evaluation of the
/// same pool request; returns the mismatches.
pub fn mismatches<'a>(
    tables: &[Table],
    pool: &[Request],
    digests: impl IntoIterator<Item = &'a (usize, u64)>,
) -> u64 {
    let expected: Vec<u64> = pool
        .iter()
        .map(|r| tables[r.func].expected_digest(&r.payload))
        .collect();
    digests
        .into_iter()
        .filter(|(i, d)| expected[*i] != *d)
        .count() as u64
}

/// Attempted operations, and failed ones (errors plus oracle
/// mismatches).
pub fn tally(tables: &[Table], pool: &[Request], clients: &[Client]) -> (u64, u64) {
    let answered: usize = clients.iter().map(|c| c.done.len()).sum();
    let errors: usize = clients.iter().map(|c| c.errors).sum();
    let bad = mismatches(tables, pool, clients.iter().flat_map(|c| &c.digests));
    ((answered + errors) as u64, errors as u64 + bad)
}
