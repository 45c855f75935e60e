//! Analytic gradients of the sampled MSE loss.
//!
//! The loss the paper minimizes is the integral MSE; we discretize it on a
//! dense uniform grid (the targets `f(xₖ)` are precomputed once) and
//! differentiate the piecewise-linear interpolant analytically with respect
//! to every breakpoint `pᵢ`, value `vᵢ` and the free boundary slopes. For
//! a sample `x` inside inner segment `i` with `t = (x − pᵢ)/Δ`,
//! `Δ = p_{i+1} − pᵢ`:
//!
//! ```text
//! ∂f̂/∂vᵢ     = 1 − t                ∂f̂/∂v_{i+1} = t
//! ∂f̂/∂pᵢ     = (v_{i+1} − vᵢ)·(x − p_{i+1})/Δ²
//! ∂f̂/∂p_{i+1} = −(v_{i+1} − vᵢ)·(x − pᵢ)/Δ²
//! ```
//!
//! Samples in the outer segments differentiate through the anchor
//! breakpoint, its value and (when free) the boundary slope. Asymptote-tied
//! boundaries contribute a chain-rule term `∂v/∂p = slope` instead.
//!
//! The grid is sorted, so every sweep here is one
//! [`PwlFunction::segment_runs`] walk: each run of samples sharing a
//! segment evaluates on that segment's [`PwlFunction::segment_line`],
//! bit-identical to the compiled engine, and nothing is compiled per
//! step.

use flexsfu_core::boundary::BoundarySpec;
use flexsfu_core::PwlFunction;
use flexsfu_funcs::Activation;

/// Gradient of the sampled loss with respect to each parameter family.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gradient {
    /// ∂L/∂pᵢ for every breakpoint.
    pub d_breakpoints: Vec<f64>,
    /// ∂L/∂vᵢ for every value (zeroed for asymptote-tied ends).
    pub d_values: Vec<f64>,
    /// ∂L/∂ml (zero when the left boundary is tied).
    pub d_left_slope: f64,
    /// ∂L/∂mr (zero when the right boundary is tied).
    pub d_right_slope: f64,
}

/// Reusable state for [`SampledProblem::loss_and_grad_compiled`]: the
/// gradient buffers one loss+gradient evaluation writes.
///
/// [`SampledProblem::loss_and_grad`] allocates a fresh [`Gradient`] on
/// every call — fine for a handful of calls, pure allocator traffic
/// inside an Adam loop that evaluates thousands of steps over a
/// fixed-shape function. Holding a workspace across steps reuses the
/// buffers: after the first call, steps over a same-shaped function
/// perform no heap allocation at all (pinned by `tests/compiled_grad.rs`).
#[derive(Debug, Clone, Default)]
pub struct GradWorkspace {
    grad: Gradient,
}

impl GradWorkspace {
    /// An empty workspace; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gradient written by the last
    /// [`SampledProblem::loss_and_grad_compiled`] call.
    pub fn gradient(&self) -> &Gradient {
        &self.grad
    }
}

/// A fixed sample grid with precomputed targets — the discretized
/// `L_[a,b]` the optimizer differentiates.
#[derive(Debug, Clone)]
pub struct SampledProblem {
    xs: Vec<f64>,
    targets: Vec<f64>,
    range: (f64, f64),
}

impl SampledProblem {
    /// Samples `f` at `m` uniform points over `[a, b]`.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` or `a >= b`.
    pub fn new(f: &dyn Activation, a: f64, b: f64, m: usize) -> Self {
        assert!(m >= 2, "need at least two samples");
        assert!(a < b, "invalid range [{a}, {b}]");
        let xs: Vec<f64> = (0..m)
            .map(|k| a + (b - a) * k as f64 / (m - 1) as f64)
            .collect();
        let targets = xs.iter().map(|&x| f.eval(x)).collect();
        Self {
            xs,
            targets,
            range: (a, b),
        }
    }

    /// The fitted interval.
    pub fn range(&self) -> (f64, f64) {
        self.range
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// The precomputed target `f(xₖ)` of sample `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn target(&self, k: usize) -> f64 {
        self.targets[k]
    }

    /// The sample position `xₖ`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn sample(&self, k: usize) -> f64 {
        self.xs[k]
    }

    /// Whether the grid is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The sample positions, for batch evaluation by consumers.
    pub fn samples(&self) -> &[f64] {
        &self.xs
    }

    /// The precomputed targets, index-aligned with [`Self::samples`].
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The sampled MSE of `pwl` against the precomputed targets, in one
    /// walk over the sorted grid (see the module docs).
    pub fn loss(&self, pwl: &PwlFunction) -> f64 {
        let mut acc = 0.0;
        for (s, run) in pwl.segment_runs(&self.xs) {
            let [ax, ay, m] = pwl.segment_line(s);
            for (&x, &t) in self.xs[run.clone()].iter().zip(&self.targets[run]) {
                let e = (m * (x - ax) + ay) - t;
                acc += e * e;
            }
        }
        acc / self.xs.len() as f64
    }

    /// Computes the loss and its analytic gradient, applying the boundary
    /// ties of `spec` (tied sides: value gradient folded into the
    /// breakpoint via the chain rule, slope gradient zeroed).
    ///
    /// One walk over the sorted grid classifies the samples a run at a
    /// time; each run's value and gradient partials accumulate in locals
    /// (same terms, same order as a per-sample scatter into the gradient
    /// arrays, so the result is bit-identical to one).
    pub fn loss_and_grad(&self, pwl: &PwlFunction, spec: &BoundarySpec) -> (f64, Gradient) {
        let mut ws = GradWorkspace::new();
        let loss = self.loss_and_grad_compiled(pwl, spec, &mut ws);
        (loss, ws.grad)
    }

    /// [`Self::loss_and_grad`] through a caller-held [`GradWorkspace`]:
    /// identical math and bit-identical results, but the gradient buffers
    /// are reused across calls — the per-step allocation cost of an Adam
    /// loop drops to zero once the workspace is warm. The gradient lands
    /// in [`GradWorkspace::gradient`]; the sampled loss is returned.
    pub fn loss_and_grad_compiled(
        &self,
        pwl: &PwlFunction,
        spec: &BoundarySpec,
        ws: &mut GradWorkspace,
    ) -> f64 {
        let n = pwl.num_breakpoints();
        let p = pwl.breakpoints();
        let v = pwl.values();
        ws.grad.d_breakpoints.clear();
        ws.grad.d_breakpoints.resize(n, 0.0);
        ws.grad.d_values.clear();
        ws.grad.d_values.resize(n, 0.0);
        let dp = &mut ws.grad.d_breakpoints;
        let dv = &mut ws.grad.d_values;
        let mut dml = 0.0;
        let mut dmr = 0.0;
        let mut loss = 0.0;

        let inv_m = 1.0 / self.xs.len() as f64;
        // d(e²)/dθ = 2e · df̂/dθ ; fold the 1/M and 2 at the end.
        // Table order: segment 0 = left outer, n = right outer,
        // s ∈ 1..n = inner segment s − 1.
        for (s, run) in pwl.segment_runs(&self.xs) {
            let [ax, ay, m] = pwl.segment_line(s);
            let samples = self.xs[run.clone()].iter().zip(&self.targets[run]);
            if s == 0 || s == n {
                // Outer segment: anchored at end breakpoint k, slope m.
                let k = if s == 0 { 0 } else { n - 1 };
                let dm = if s == 0 { &mut dml } else { &mut dmr };
                let (mut gv, mut gp, mut gm) = (dv[k], dp[k], *dm);
                for (&x, &t) in samples {
                    let e = (m * (x - ax) + ay) - t;
                    loss += e * e;
                    gv += e;
                    gp += e * -m;
                    gm += e * (x - ax);
                }
                (dv[k], dp[k], *dm) = (gv, gp, gm);
            } else {
                let i = s - 1;
                let (p0, p1) = (p[i], p[i + 1]);
                let delta = p1 - p0;
                let dvdiff = v[i + 1] - v[i];
                let (mut gv0, mut gv1) = (dv[i], dv[i + 1]);
                let (mut gp0, mut gp1) = (dp[i], dp[i + 1]);
                for (&x, &t) in samples {
                    let e = (m * (x - ax) + ay) - t;
                    loss += e * e;
                    let tt = (x - p0) / delta;
                    gv0 += e * (1.0 - tt);
                    gv1 += e * tt;
                    gp0 += e * dvdiff * (x - p1) / (delta * delta);
                    gp1 += e * -dvdiff * (x - p0) / (delta * delta);
                }
                (dv[i], dv[i + 1]) = (gv0, gv1);
                (dp[i], dp[i + 1]) = (gp0, gp1);
            }
        }
        let scale = 2.0 * inv_m;
        dp.iter_mut().for_each(|g| *g *= scale);
        dv.iter_mut().for_each(|g| *g *= scale);
        dml *= scale;
        dmr *= scale;

        // Boundary ties: v = slope·p + offset ⇒ ∂L/∂p += slope·∂L/∂v, the
        // value and slope stop being independent parameters.
        if let Some((slope, _)) = spec.left.tie(p[0]) {
            dp[0] += slope * dv[0];
            dv[0] = 0.0;
            dml = 0.0;
        }
        if let Some((slope, _)) = spec.right.tie(p[n - 1]) {
            dp[n - 1] += slope * dv[n - 1];
            dv[n - 1] = 0.0;
            dmr = 0.0;
        }

        ws.grad.d_left_slope = dml;
        ws.grad.d_right_slope = dmr;
        loss * inv_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_core::init::{uniform_pwl, uniform_pwl_asymptotic};
    use flexsfu_funcs::{Gelu, Sigmoid, Tanh};

    /// Central finite-difference check of one parameter.
    fn fd_check(
        problem: &SampledProblem,
        pwl: &PwlFunction,
        perturb: impl Fn(&PwlFunction, f64) -> PwlFunction,
        analytic: f64,
        label: &str,
    ) {
        let h = 1e-6;
        let plus = problem.loss(&perturb(pwl, h));
        let minus = problem.loss(&perturb(pwl, -h));
        let fd = (plus - minus) / (2.0 * h);
        assert!(
            (fd - analytic).abs() < 1e-4 * (1.0 + analytic.abs()),
            "{label}: fd {fd} vs analytic {analytic}"
        );
    }

    fn rebuild(pwl: &PwlFunction, p: Vec<f64>, v: Vec<f64>, ml: f64, mr: f64) -> PwlFunction {
        let _ = pwl;
        PwlFunction::new(p, v, ml, mr).unwrap()
    }

    #[test]
    fn gradients_match_finite_differences_free_boundaries() {
        let pwl = uniform_pwl(&Gelu, 8, (-6.0, 6.0));
        let problem = SampledProblem::new(&Gelu, -8.0, 8.0, 2001);
        let spec = BoundarySpec::free();
        let (_, g) = problem.loss_and_grad(&pwl, &spec);

        for i in 0..pwl.num_breakpoints() {
            fd_check(
                &problem,
                &pwl,
                |w, h| {
                    let mut p = w.breakpoints().to_vec();
                    p[i] += h;
                    rebuild(w, p, w.values().to_vec(), w.left_slope(), w.right_slope())
                },
                g.d_breakpoints[i],
                &format!("dp[{i}]"),
            );
            fd_check(
                &problem,
                &pwl,
                |w, h| {
                    let mut v = w.values().to_vec();
                    v[i] += h;
                    rebuild(
                        w,
                        w.breakpoints().to_vec(),
                        v,
                        w.left_slope(),
                        w.right_slope(),
                    )
                },
                g.d_values[i],
                &format!("dv[{i}]"),
            );
        }
        fd_check(
            &problem,
            &pwl,
            |w, h| {
                rebuild(
                    w,
                    w.breakpoints().to_vec(),
                    w.values().to_vec(),
                    w.left_slope() + h,
                    w.right_slope(),
                )
            },
            g.d_left_slope,
            "dml",
        );
        fd_check(
            &problem,
            &pwl,
            |w, h| {
                rebuild(
                    w,
                    w.breakpoints().to_vec(),
                    w.values().to_vec(),
                    w.left_slope(),
                    w.right_slope() + h,
                )
            },
            g.d_right_slope,
            "dmr",
        );
    }

    #[test]
    fn tied_boundary_gradient_includes_chain_rule() {
        // With asymptotic ties, perturbing p0 also moves v0 = ml·p0 + c.
        let spec = BoundarySpec::from_activation(&Tanh);
        let pwl = uniform_pwl_asymptotic(&Tanh, 6, (-5.0, 5.0));
        let problem = SampledProblem::new(&Tanh, -6.0, 6.0, 1501);
        let (_, g) = problem.loss_and_grad(&pwl, &spec);
        assert_eq!(g.d_values[0], 0.0);
        assert_eq!(g.d_left_slope, 0.0);

        // Finite difference moving p0 *and* re-tying v0.
        let h = 1e-6;
        let move_p0 = |h: f64| {
            let mut p = pwl.breakpoints().to_vec();
            p[0] += h;
            let (slope, v0) = spec.left.tie(p[0]).unwrap();
            let mut v = pwl.values().to_vec();
            v[0] = v0;
            PwlFunction::new(p, v, slope, pwl.right_slope()).unwrap()
        };
        let fd = (problem.loss(&move_p0(h)) - problem.loss(&move_p0(-h))) / (2.0 * h);
        assert!(
            (fd - g.d_breakpoints[0]).abs() < 1e-4 * (1.0 + fd.abs()),
            "tied dp0: fd {fd} vs analytic {}",
            g.d_breakpoints[0]
        );
    }

    #[test]
    fn compiled_workspace_path_is_bit_identical_across_shapes() {
        // Reusing one workspace across functions of different shapes
        // must give exactly the fresh path's loss and gradient every
        // time.
        let problem = SampledProblem::new(&Gelu, -8.0, 8.0, 801);
        let spec = BoundarySpec::from_activation(&Gelu);
        let shapes = [
            uniform_pwl(&Gelu, 6, (-6.0, 6.0)),
            uniform_pwl(&Gelu, 12, (-7.0, 7.0)),
            uniform_pwl(&Gelu, 6, (-5.0, 5.0)),
        ];
        let mut ws = GradWorkspace::new();
        for pwl in &shapes {
            let (want_loss, want_grad) = problem.loss_and_grad(pwl, &spec);
            let loss = problem.loss_and_grad_compiled(pwl, &spec, &mut ws);
            assert_eq!(loss.to_bits(), want_loss.to_bits());
            assert_eq!(ws.gradient(), &want_grad);
        }
    }

    #[test]
    fn loss_matches_manual_mse() {
        let pwl = uniform_pwl(&Sigmoid, 4, (-8.0, 8.0));
        let problem = SampledProblem::new(&Sigmoid, -8.0, 8.0, 101);
        let mut manual = 0.0;
        for k in 0..101 {
            let x = -8.0 + 16.0 * k as f64 / 100.0;
            let e = pwl.eval(x) - Sigmoid.eval(x);
            manual += e * e;
        }
        manual /= 101.0;
        assert!((problem.loss(&pwl) - manual).abs() < 1e-15);
    }

    #[test]
    fn gradient_descends() {
        // A tiny explicit gradient-descent loop must reduce the loss.
        let spec = BoundarySpec::from_activation(&Gelu);
        let mut pwl = uniform_pwl_asymptotic(&Gelu, 8, (-8.0, 8.0));
        let problem = SampledProblem::new(&Gelu, -8.0, 8.0, 513);
        let initial = problem.loss(&pwl);
        for _ in 0..200 {
            let (_, g) = problem.loss_and_grad(&pwl, &spec);
            let mut p = pwl.breakpoints().to_vec();
            let mut v = pwl.values().to_vec();
            for i in 0..p.len() {
                p[i] -= 0.5 * g.d_breakpoints[i];
                v[i] -= 0.5 * g.d_values[i];
            }
            // Keep sorted (crude projection for the test).
            for i in 1..p.len() {
                if p[i] <= p[i - 1] {
                    p[i] = p[i - 1] + 1e-6;
                }
            }
            // Re-tie boundary values.
            if let Some((_, v0)) = spec.left.tie(p[0]) {
                v[0] = v0;
            }
            if let Some((_, vn)) = spec.right.tie(p[p.len() - 1]) {
                let n = v.len();
                v[n - 1] = vn;
            }
            pwl = PwlFunction::new(p, v, pwl.left_slope(), pwl.right_slope()).unwrap();
        }
        let final_loss = problem.loss(&pwl);
        assert!(
            final_loss < initial * 0.5,
            "descent failed: {initial} → {final_loss}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn rejects_tiny_grid() {
        SampledProblem::new(&Gelu, -1.0, 1.0, 1);
    }
}
