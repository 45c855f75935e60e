//! The benchmark's own measurement arithmetic: order statistics, output
//! digests, open-loop latency, aggregate throughput and span
//! aggregation. Every timer-derived number the benchmark prints goes
//! through this module, and the tests at the bottom pin each rule on
//! synthetic inputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// If `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` and returns its nearest-rank `p` percentile, or 0 for an
/// empty sample (a layer the workload never ran).
pub fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p)
}

/// Nearest-rank median; 0 for an empty sample.
pub fn median(v: Vec<f64>) -> f64 {
    percentile(v, 50.0)
}

/// Prints a latency sample (ns) as a diagnostic line: its size and the
/// nearest-rank percentiles it supports, in µs.
pub fn print_latency(what: &str, ns: &[f64]) {
    let mut v = ns.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        println!("latency {what}: no samples");
        return;
    }
    let p = |q| nearest_rank(&v, q) / 1e3;
    println!(
        "latency {what}: n {}, p50 {:.1} us, p90 {:.1} us, p95 {:.1} us, p99 {:.1} us, max {:.1} us",
        v.len(),
        p(50.0),
        p(90.0),
        p(95.0),
        p(99.0),
        p(100.0)
    );
}

/// Aggregate throughput of concurrent clients that each stamp their own
/// `(start, end)`: total work over the wall window from the earliest
/// start to the latest end. A client that started before the others
/// were released, or finished after them, widens the window instead of
/// being cut off.
pub fn aggregate_rate(total: f64, windows: &[(Instant, Instant)]) -> f64 {
    let start = windows
        .iter()
        .map(|w| w.0)
        .min()
        .expect("at least one client");
    let end = windows
        .iter()
        .map(|w| w.1)
        .max()
        .expect("at least one client");
    total / end.duration_since(start).as_secs_f64()
}

/// Buckets timed samples into consecutive `width`-long windows tiling
/// `[start, end)`; samples outside, and a partial last window, are
/// dropped.
fn windows(
    samples: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    width: Duration,
) -> Vec<Vec<f64>> {
    // A span shorter than one window still yields one (partial) window.
    let n = (end.saturating_duration_since(start).as_secs_f64() / width.as_secs_f64()) as usize;
    let mut out = vec![Vec::new(); n.max(1)];
    for &(t, v) in samples {
        if let Some(d) = t.checked_duration_since(start) {
            if let Some(w) = out.get_mut((d.as_secs_f64() / width.as_secs_f64()) as usize) {
                w.push(v);
            }
        }
    }
    out
}

/// The median, over the windows of [`windows`], of the amount completed
/// per second in each; `done` holds each completion's instant and
/// amount. A stall of the host then costs one window, not the run's
/// average.
pub fn windowed_rate(
    done: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    width: Duration,
) -> f64 {
    let per_s = width.as_secs_f64();
    median(
        windows(done, start, end, width)
            .iter()
            .map(|w| w.iter().sum::<f64>() / per_s)
            .collect(),
    )
}

/// The median, over the non-empty windows of [`windows`], of each
/// window's median sample: a latency median that a few seconds of host
/// noise cannot move.
pub fn windowed_median(
    samples: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    width: Duration,
) -> f64 {
    median(
        windows(samples, start, end, width)
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(median)
            .collect(),
    )
}

/// Latency of an open-loop request, timed from when it was *due*, not
/// from when the generator got round to sending it: a generator stall
/// then shows as latency on every request it delayed.
pub fn due_latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// A 64-bit digest of a result's exact bit patterns. Any single changed
/// bit changes the digest (each lane step is a bijection), so comparing
/// digests compares results bit for bit without keeping every output.
pub fn digest<T: Bits>(xs: &[T]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [0u64; 8];
    let chunks = xs.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        for (lane, x) in lanes.iter_mut().zip(c) {
            *lane = (*lane ^ x.bits()).wrapping_mul(K);
        }
    }
    let mut h = (xs.len() as u64).wrapping_mul(K);
    for (i, lane) in lanes.iter().enumerate() {
        h = (h ^ lane.rotate_left(8 * i as u32)).wrapping_mul(K);
    }
    for x in tail {
        h = (h ^ x.bits()).wrapping_mul(K);
    }
    h
}

/// Floats as their raw IEEE bits, for [`digest`].
pub trait Bits: Copy {
    /// The bit pattern, zero-extended.
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// One timed interval around a call into a layer's public API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer span name, e.g. `wire.submit`.
    pub name: &'static str,
    /// When the call began.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// An in-memory span log, one per load thread; merged after the run.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records one timed call.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span { name, start, end });
    }

    /// The recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span name's durations (ns), in record order.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push(s.end.duration_since(s.start).as_nanos() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample_never_interpolates() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        // Ten samples: p99 is the maximum, p50 the fifth.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), 10.0);
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        // Unsorted input and the empty sample.
        assert_eq!(percentile(vec![3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_the_stall() {
        // Due every 10 ns; the generator stalls and sends the first
        // three together at 25; each takes 5 ns to serve.
        let due = [0u64, 10, 20, 30];
        let sent = [25u64, 25, 25, 30];
        let done: Vec<u64> = sent.iter().map(|s| s + 5).collect();
        let lat: Vec<u64> = due
            .iter()
            .zip(&done)
            .map(|(&d, &e)| due_latency_ns(d, e))
            .collect();
        assert_eq!(lat, [30, 20, 10, 5]);
        // Timing from the send would have hidden the stall entirely.
        assert!(sent.iter().zip(&done).all(|(s, e)| e - s == 5));
    }

    #[test]
    fn throughput_spans_the_earliest_start_to_the_latest_end() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // A client released late must not shrink the window, and one
        // that finished early must not cut it short.
        let rate = aggregate_rate(300.0, &[(at(0), at(100)), (at(50), at(200))]);
        assert!((rate - 1500.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        let t0 = Instant::now() + Duration::from_secs(1);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Windows of 100 ms over [0, 400): 3, 1 (a stall), 3, 3
        // completions; one before the start and the partial fifth
        // window are ignored.
        let mut done: Vec<(Instant, f64)> = [10, 20, 30, 150, 210, 220, 230, 310, 320, 330, 410]
            .iter()
            .map(|&ms| (at(ms), 1.0))
            .collect();
        done.push((t0 - Duration::from_millis(5), 1.0));
        let rate = windowed_rate(&done, t0, at(450), Duration::from_millis(100));
        assert!((rate - 30.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn windowed_median_ignores_a_minority_of_bad_windows() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Three calm windows around 10 and one noisy window at 1000:
        // the pooled median moves, the median of window medians does not.
        let samples: Vec<(Instant, f64)> = [
            (5, 9.0),
            (50, 10.0),
            (90, 11.0),
            (110, 10.0),
            (120, 10.0),
            (205, 1000.0),
            (210, 1000.0),
            (220, 1000.0),
            (230, 1000.0),
            (240, 1000.0),
            (330, 10.0),
        ]
        .iter()
        .map(|&(ms, v)| (at(ms), v))
        .collect();
        let m = windowed_median(&samples, t0, at(400), Duration::from_millis(100));
        assert_eq!(m, 10.0);
        assert_eq!(median(samples.iter().map(|s| s.1).collect()), 11.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let xs: Vec<f64> = (0..37).map(|i| f64::from(i) * 0.37).collect();
        let base = digest(&xs);
        for i in 0..xs.len() {
            let mut ys = xs.clone();
            ys[i] = f64::from_bits(ys[i].to_bits() ^ 1);
            assert_ne!(digest(&ys), base, "flip at {i} unseen");
        }
        assert_ne!(digest(&xs[..36]), base, "length is part of the digest");
        // -0.0 and 0.0 compare equal as floats but not as bits.
        assert_ne!(digest(&[0.0f32]), digest(&[-0.0f32]));
    }

    #[test]
    fn durations_group_by_name_in_record_order() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut log = SpanLog::default();
        log.record("op", at(0), at(100));
        log.record("call", at(10), at(40));
        log.record("op", at(200), at(210));
        let d = durations(log.spans());
        assert_eq!(d["op"], [100.0, 10.0]);
        assert_eq!(d["call"], [30.0]);
    }
}
