//! Exact least-squares refit of breakpoint *values* for fixed positions.
//!
//! With the breakpoints `p` frozen, the PWL function is linear in the
//! values `v` (hat-function basis), so the values minimizing the sampled
//! MSE solve a symmetric positive-definite **tridiagonal** normal system —
//! solvable exactly with the Thomas algorithm in `O(n)`.
//!
//! The optimizer interleaves this refit with Adam rounds: Adam moves the
//! breakpoints (the genuinely non-convex part), the refit snaps the values
//! to their conditional optimum. Asymptote-tied boundary values stay fixed
//! and their contribution moves to the right-hand side.

use crate::grad::SampledProblem;
use flexsfu_core::boundary::BoundarySpec;
use flexsfu_core::PwlFunction;

/// Returns a copy of `pwl` whose values are the least-squares optimum for
/// the current breakpoints over the problem's sample grid, holding tied
/// boundary values (and the outer slopes) fixed.
///
/// The normal equations accumulate in one [`PwlFunction::segment_runs`]
/// walk over the sorted grid. A breakpoint whose hat no sample touches
/// keeps its current value, and a numerically degenerate system returns
/// `pwl` unchanged, so the refit never panics.
pub fn refit_values(
    pwl: &PwlFunction,
    problem: &SampledProblem,
    spec: &BoundarySpec,
) -> PwlFunction {
    let p = pwl.breakpoints();
    let n = p.len();
    let m = problem.len();
    let (ml, mr) = (pwl.left_slope(), pwl.right_slope());

    // Tied boundary values (None = free, refit like any other).
    let tied_left = spec.left.tie(p[0]).map(|(_, v)| v);
    let tied_right = spec.right.tie(p[n - 1]).map(|(_, v)| v);

    // Assemble the tridiagonal normal equations G v = r over all samples.
    let mut diag = vec![0.0f64; n];
    let mut off = vec![0.0f64; n - 1];
    let mut rhs = vec![0.0f64; n];

    let (xs, targets) = (problem.samples(), problem.targets());
    for (s, run) in pwl.segment_runs(xs) {
        let samples = xs[run.clone()].iter().zip(&targets[run]);
        // Table order: 0 = left outer, n = right outer, else inner s − 1.
        if s == 0 || s == n {
            // Outer region: f̂ = v_k + slope·(x − p_k); only v_k
            // participates.
            let (k, slope) = if s == 0 { (0, ml) } else { (n - 1, mr) };
            let (mut d, mut r) = (diag[k], rhs[k]);
            for (&x, &fx) in samples {
                d += 1.0;
                r += fx - slope * (x - p[k]);
            }
            (diag[k], rhs[k]) = (d, r);
        } else {
            let (i0, i1) = (s - 1, s);
            let (p0, delta) = (p[i0], p[i1] - p[i0]);
            let (mut d0, mut d1, mut o) = (diag[i0], diag[i1], off[i0]);
            let (mut r0, mut r1) = (rhs[i0], rhs[i1]);
            for (&x, &fx) in samples {
                let t = (x - p0) / delta;
                let (h0, h1) = (1.0 - t, t);
                d0 += h0 * h0;
                d1 += h1 * h1;
                o += h0 * h1;
                r0 += h0 * fx;
                r1 += h1 * fx;
            }
            (diag[i0], diag[i1], off[i0]) = (d0, d1, o);
            (rhs[i0], rhs[i1]) = (r0, r1);
        }
    }

    // Guard empty or near-empty segments (a hat touched by no or almost
    // no samples, possible when projection squeezes breakpoints together):
    // a tiny ridge keeps the system well-conditioned without visibly
    // biasing well-sampled rows.
    let ridge = 1e-9 * (m as f64 / n as f64);
    for i in 0..n {
        if diag[i] == 0.0 {
            diag[i] = 1.0;
            rhs[i] = pwl.values()[i];
        } else {
            diag[i] += ridge;
        }
    }

    // Fold tied boundary values into the RHS and pin their rows.
    if let Some(v0) = tied_left {
        rhs[1] -= off[0] * v0;
        off[0] = 0.0;
        diag[0] = 1.0;
        rhs[0] = v0;
    }
    if let Some(vn) = tied_right {
        rhs[n - 2] -= off[n - 2] * vn;
        off[n - 2] = 0.0;
        diag[n - 1] = 1.0;
        rhs[n - 1] = vn;
    }

    // Thomas algorithm.
    let mut c = vec![0.0f64; n - 1];
    let mut d = vec![0.0f64; n];
    c[0] = off[0] / diag[0];
    d[0] = rhs[0] / diag[0];
    for i in 1..n {
        let denom = diag[i] - off[i - 1] * c[i - 1];
        if i < n - 1 {
            c[i] = off[i] / denom;
        }
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom;
    }
    let mut v = vec![0.0f64; n];
    v[n - 1] = d[n - 1];
    for i in (0..n - 1).rev() {
        v[i] = d[i] - c[i] * v[i + 1];
    }

    if v.iter().any(|x| !x.is_finite()) {
        // Numerically degenerate system (pathologically clustered
        // breakpoints): keep the current values rather than poisoning the
        // optimizer state.
        return pwl.clone();
    }
    PwlFunction::new(p.to_vec(), v, ml, mr).expect("breakpoints unchanged")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_core::init::{uniform_pwl, uniform_pwl_asymptotic};
    use flexsfu_funcs::{Gelu, Sigmoid, Tanh};

    #[test]
    fn refit_never_hurts() {
        for f in [&Gelu as &dyn flexsfu_funcs::Activation, &Sigmoid, &Tanh] {
            let problem = SampledProblem::new(f, -8.0, 8.0, 2048);
            let spec = BoundarySpec::from_activation(f);
            let pwl = uniform_pwl_asymptotic(f, 16, (-8.0, 8.0));
            let before = problem.loss(&pwl);
            let refit = refit_values(&pwl, &problem, &spec);
            let after = problem.loss(&refit);
            assert!(after <= before * 1.0001, "{}: {before} → {after}", f.name());
        }
    }

    #[test]
    fn refit_is_idempotent() {
        let problem = SampledProblem::new(&Gelu, -8.0, 8.0, 2048);
        let spec = BoundarySpec::from_activation(&Gelu);
        let pwl = uniform_pwl_asymptotic(&Gelu, 12, (-8.0, 8.0));
        let once = refit_values(&pwl, &problem, &spec);
        let twice = refit_values(&once, &problem, &spec);
        for (a, b) in once.values().iter().zip(twice.values()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn refit_preserves_ties() {
        let problem = SampledProblem::new(&Tanh, -8.0, 8.0, 2048);
        let spec = BoundarySpec::from_activation(&Tanh);
        let pwl = uniform_pwl_asymptotic(&Tanh, 10, (-8.0, 8.0));
        let refit = refit_values(&pwl, &problem, &spec);
        assert_eq!(refit.values()[0], -1.0);
        assert_eq!(refit.values()[9], 1.0);
        assert_eq!(refit.left_slope(), 0.0);
    }

    #[test]
    fn refit_beats_exact_values_on_uniform_grid() {
        // Least-squares values beat exact sampling on the same grid.
        let problem = SampledProblem::new(&Gelu, -8.0, 8.0, 4096);
        let spec = BoundarySpec::free();
        let exact = uniform_pwl(&Gelu, 8, (-8.0, 8.0));
        let refit = refit_values(&exact, &problem, &spec);
        assert!(problem.loss(&refit) < problem.loss(&exact));
    }
}
