//! Bit-identity battery for the sorted-sample walk
//! (`PwlFunction::segment_runs` + `PwlFunction::segment_line`): its
//! segment assignment must equal `CompiledPwl::segments_into` on every
//! sorted, NaN-free input, its anchored evaluation must equal the
//! engine's bit for bit, and the Simpson integrals built on it
//! (`integral_mse`, `piece_sse`) must equal a reference that evaluates
//! every point through the compiled engine.

use flexsfu_core::loss::{integral_mse, piece_sse};
use flexsfu_core::{CompiledPwl, PwlEvaluator, PwlFunction};
use flexsfu_funcs::{Activation, Gelu, Tanh};

/// Breakpoints → a function with oscillating values and non-zero
/// boundary slopes, so every segment's line differs.
fn table(ps: Vec<f64>) -> PwlFunction {
    let vs = ps.iter().map(|p| (p * 1.3).sin() * 2.0).collect();
    PwlFunction::new(ps, vs, 0.37, -0.61).unwrap()
}

/// Projects `ps` (sorted) to the optimizer's minimum gap, as the sort
/// projection does: `(b − a) · 1e-5` over `[-8, 8]`.
fn squeezed(mut ps: Vec<f64>) -> Vec<f64> {
    let gap = 16.0 * 1e-5;
    for i in 1..ps.len() {
        if ps[i] < ps[i - 1] + gap {
            ps[i] = ps[i - 1] + gap;
        }
    }
    ps
}

/// n = 2, 3 and 64, plus two optimizer-shaped tables squeezed to the
/// minimum gap: one with gelu-like triplets (bucket index at its cap),
/// one with a 20-breakpoint cluster (search fallback).
fn tables() -> Vec<(&'static str, PwlFunction)> {
    let n64: Vec<f64> = (0..64)
        .map(|i| {
            let u = i as f64 / 63.0 * 2.0 - 1.0;
            8.0 * u * u.abs().sqrt()
        })
        .collect();
    let mut triplets: Vec<f64> = (0..28).map(|i| -8.0 + 16.0 * i as f64 / 27.0).collect();
    triplets.extend([-2.8791, -2.8791, -2.8791, 0.25, 0.25, 0.25]);
    triplets.sort_by(f64::total_cmp);
    let mut cluster: Vec<f64> = (0..12).map(|i| -8.0 + 16.0 * i as f64 / 11.0).collect();
    cluster.extend([0.5; 20]);
    cluster.sort_by(f64::total_cmp);
    vec![
        ("n=2", table(vec![-1.0, 1.0])),
        ("n=3", table(vec![-0.5, 0.0, 2.0])),
        ("n=64", table(n64)),
        ("triplets", table(squeezed(triplets))),
        ("cluster", table(squeezed(cluster))),
    ]
}

/// Sorted grids against `pwl`'s breakpoints: every breakpoint exactly,
/// twice, and ±1 ulp, merged into a dense grid; all points left of p₀
/// (ending on it); all right of p_{n-1} (starting on it); ±∞ and ±0;
/// a single point on each end breakpoint; and the empty slice.
fn grids(pwl: &PwlFunction) -> Vec<(&'static str, Vec<f64>)> {
    let p = pwl.breakpoints();
    let (lo, hi) = (p[0], p[p.len() - 1]);
    let dense = |a: f64, b: f64, m: usize| -> Vec<f64> {
        (0..m)
            .map(|k| a + (b - a) * k as f64 / (m - 1) as f64)
            .collect()
    };
    let mut on = dense(lo - 1.0, hi + 1.0, 1000);
    for &b in p {
        on.extend([b.next_down(), b, b, b.next_up()]);
    }
    on.sort_by(f64::total_cmp);
    let mut left = dense(lo - 3.0, lo, 50);
    left.extend([lo, lo]);
    let mut right = vec![hi, hi];
    right.extend(dense(hi, hi + 3.0, 50));
    let mut specials = vec![f64::NEG_INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 0.0];
    specials.extend([lo, 0.5 * (lo + hi), hi, f64::INFINITY, f64::INFINITY]);
    specials.sort_by(f64::total_cmp);
    vec![
        ("on breakpoints", on),
        ("all left", left),
        ("all right", right),
        ("specials", specials),
        ("single p0", vec![lo]),
        ("single pn", vec![hi]),
        ("loss grid", dense(-8.0, 8.0, 4096)),
        ("empty", Vec::new()),
    ]
}

#[test]
fn runs_match_segments_into_and_engine_values() {
    for (tname, pwl) in tables() {
        let engine = CompiledPwl::from_pwl(&pwl);
        for (gname, xs) in grids(&pwl) {
            let mut want = vec![0u32; xs.len()];
            engine.segments_into(&xs, &mut want);
            let want_ys = engine.eval_batch(&xs);
            let mut next = 0;
            for (s, run) in pwl.segment_runs(&xs) {
                assert_eq!(run.start, next, "{tname}/{gname}: runs not contiguous");
                assert!(!run.is_empty(), "{tname}/{gname}: empty run");
                next = run.end;
                let [ax, ay, m] = pwl.segment_line(s);
                for k in run {
                    let x = xs[k];
                    assert_eq!(s, want[k] as usize, "{tname}/{gname}: segment of {x:?}");
                    let y = m * (x - ax) + ay;
                    assert_eq!(
                        y.to_bits(),
                        engine.eval_at_segment(x, s).to_bits(),
                        "{tname}/{gname}: line of {x:?}"
                    );
                    assert_eq!(
                        y.to_bits(),
                        want_ys[k].to_bits(),
                        "{tname}/{gname}: value at {x:?}"
                    );
                }
            }
            assert_eq!(next, xs.len(), "{tname}/{gname}: runs stop short");
        }
    }
}

/// The pre-walk Simpson rule: 128 subintervals, every point through the
/// compiled engine, same points and accumulation order.
fn ref_simpson(engine: &CompiledPwl, f: &dyn Activation, lo: f64, hi: f64) -> f64 {
    const STEPS: usize = 128;
    let h = (hi - lo) / STEPS as f64;
    let mut xs = [0.0; STEPS + 1];
    for (k, x) in xs.iter_mut().enumerate() {
        *x = lo + k as f64 * h;
    }
    xs[STEPS] = hi;
    let mut segs = [0u32; STEPS + 1];
    engine.segments_into(&xs, &mut segs);
    let sq = |k: usize| {
        let e = engine.eval_at_segment(xs[k], segs[k] as usize) - f.eval(xs[k]);
        e * e
    };
    let mut acc = sq(0) + sq(STEPS);
    for k in 1..STEPS {
        let w = if k % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * sq(k);
    }
    acc * h / 3.0
}

/// The pre-walk `integral_mse`: split at the breakpoints inside
/// `[a, b]`, Simpson per piece, normalize.
fn ref_integral_mse(pwl: &PwlFunction, f: &dyn Activation, a: f64, b: f64) -> f64 {
    let engine = pwl.compile();
    let mut cuts = vec![a];
    cuts.extend(pwl.breakpoints().iter().filter(|&&p| p > a && p < b));
    cuts.push(b);
    let mut total = 0.0;
    for w in cuts.windows(2) {
        total += ref_simpson(&engine, f, w[0], w[1]);
    }
    total / (b - a)
}

#[test]
fn integrals_match_engine_reference_bit_for_bit() {
    for (tname, pwl) in tables() {
        let engine = pwl.compile();
        let p = pwl.breakpoints();
        let (lo, hi) = (p[0], p[p.len() - 1]);
        for f in [&Gelu as &dyn Activation, &Tanh] {
            let ranges = [
                (-8.0, 8.0),
                (lo - 2.0, hi + 2.0),
                (lo, hi),
                (lo - 2.0, lo),
                (hi, hi + 2.0),
                (0.5 * (lo + hi), hi + 1.0),
            ];
            for (a, b) in ranges {
                let got = integral_mse(&pwl, f, a, b);
                let want = ref_integral_mse(&pwl, f, a, b);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{tname}/{}: integral_mse on [{a}, {b}]",
                    f.name()
                );
            }
            // Every inner piece (the insertion-loss sweep) plus pieces
            // that straddle breakpoints or lie outside them.
            let mut pieces: Vec<(f64, f64)> = p.windows(2).map(|w| (w[0], w[1])).collect();
            pieces.extend([(lo - 1.0, hi + 1.0), (lo - 1.0, lo), (hi, hi + 1.0)]);
            for (a, b) in pieces {
                assert_eq!(
                    piece_sse(&pwl, f, a, b).to_bits(),
                    ref_simpson(&engine, f, a, b).to_bits(),
                    "{tname}/{}: piece_sse on [{a}, {b}]",
                    f.name()
                );
            }
        }
    }
}
