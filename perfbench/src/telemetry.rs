//! Per-layer numbers read from the telemetry `flexsfu-obs` already
//! exports: the serving tier's queue-wait, eval and flush series and
//! the wire tier's ack→result window and error counts. Keys are matched
//! as families (`name` or `name{labels}`), so one reader serves a single
//! server's registry and a router's `scrape_all`, which adds a `shard`
//! label to every key.

use crate::Metrics;
use flexsfu_obs::{HistogramSnapshot, MetricsSnapshot};
use flexsfu_serve::obs as serve;
use flexsfu_wire::obs as wire;

/// Whether `key` belongs to metric `name`, and its label text.
fn family<'a>(key: &'a str, name: &str) -> Option<&'a str> {
    match key.strip_prefix(name)? {
        "" => Some(""),
        rest if rest.starts_with('{') => Some(rest),
        _ => None,
    }
}

/// Merges every `name` histogram whose labels pass `keep`.
fn hist(snap: &MetricsSnapshot, name: &str, keep: impl Fn(&str) -> bool) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::new();
    for (k, h) in &snap.histograms {
        if family(k, name).is_some_and(&keep) {
            out.merge(h);
        }
    }
    out
}

/// Sums every `name` counter whose labels pass `keep`.
fn counter(snap: &MetricsSnapshot, name: &str, keep: impl Fn(&str) -> bool) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| family(k, name).is_some_and(&keep))
        .map(|(_, v)| *v)
        .sum()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Queue wait (p50, p99), eval time per flush unit (p50) and the
/// batching yield, from a serving registry's snapshot. The eval family
/// holds an unlabelled total next to per-function series; only the
/// totals are read, so no flush is counted twice.
pub fn serve_layers(snap: &MetricsSnapshot, out: &mut Metrics) {
    let wait = hist(snap, serve::M_QUEUE_WAIT_NS, |_| true);
    out.insert("serve.queue_wait_us.p50", us(wait.p50()));
    out.insert("serve.queue_wait_us.p99", us(wait.p99()));
    let eval = hist(snap, serve::M_EVAL_NS, |l| !l.contains("function="));
    out.insert("serve.eval_us", us(eval.p50()));
    let units = counter(snap, serve::M_FLUSH_UNITS, |_| true).max(1) as f64;
    let elems = counter(snap, serve::M_BACKEND_ELEMS, |_| true) as f64;
    let jobs = counter(snap, serve::M_SUBMITS, |_| true) as f64;
    out.insert("serve.elems_per_flush", elems / units);
    out.insert("serve.jobs_per_flush", jobs / units);
}

/// The wire server's ack→result window (p50) and the share of submit
/// frames answered `RetryAfter`.
pub fn wire_layers(snap: &MetricsSnapshot, out: &mut Metrics) {
    let ack = hist(snap, wire::M_ACK_TO_RESULT_NS, |_| true);
    out.insert("wire.ack_to_result_us", us(ack.p50()));
    let retry = counter(snap, wire::M_ERRORS, |l| l.contains("code=\"retry_after\""));
    let frames = counter(snap, wire::M_FRAMES_IN, |_| true).max(1);
    out.insert("wire.retry_after_share", retry as f64 / frames as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_obs::{labeled, MetricsRegistry};

    #[test]
    fn families_merge_labels_but_not_prefixes() {
        let m = MetricsRegistry::new();
        m.histogram(serve::M_EVAL_NS).record(1_000);
        m.histogram(&labeled(serve::M_EVAL_NS, &[("function", "gelu")]))
            .record(1_000);
        m.counter(&labeled(serve::M_FLUSH_UNITS, &[])).add(2);
        m.counter(serve::M_BACKEND_ELEMS).add(300);
        // A longer name sharing the prefix is a different metric.
        m.counter(&format!("{}_extra", serve::M_SUBMITS)).add(99);
        m.counter(serve::M_SUBMITS).add(4);
        let snap = m.snapshot().with_label("shard", "0");
        let eval = hist(&snap, serve::M_EVAL_NS, |l| !l.contains("function="));
        assert_eq!(eval.count(), 1, "per-function series must not double count");
        let mut out = Metrics::new();
        serve_layers(&snap, &mut out);
        assert_eq!(out["serve.elems_per_flush"], 150.0);
        assert_eq!(out["serve.jobs_per_flush"], 2.0);
    }
}
