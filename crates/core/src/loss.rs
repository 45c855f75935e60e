//! Approximation-error metrics.
//!
//! The paper optimizes the integral mean squared error over the fitting
//! interval (Section IV):
//!
//! ```text
//! L_[a,b](f̂, f) = 1/(b−a) ∫ₐᵇ (f̂(x) − f(x))² dx
//! ```
//!
//! and reports MSE, maximum absolute error (MAE, Figure 5) and squared
//! average absolute error (sq-AAE, Table II). The integrals here split the
//! interval at the PWL breakpoints — the integrand is smooth within each
//! piece — and apply composite Simpson per piece; the maximum error uses
//! dense per-piece sampling with a local refinement step.

use crate::engine::{CompiledPwl, PwlEvaluator};
use crate::pwl::PwlFunction;
use flexsfu_funcs::Activation;

/// Subintervals per piece for Simpson integration (must be even).
const SIMPSON_STEPS: usize = 128;
/// Samples per piece for max-error scanning.
const SCAN_STEPS: usize = 256;

/// Splits `[a, b]` at the PWL breakpoints that fall inside it.
fn pieces(pwl: &PwlFunction, a: f64, b: f64) -> Vec<(f64, f64)> {
    assert!(a < b, "empty or inverted interval [{a}, {b}]");
    let mut cuts = vec![a];
    for &p in pwl.breakpoints() {
        if p > a && p < b {
            cuts.push(p);
        }
    }
    cuts.push(b);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Composite Simpson integral of the squared error `(f̂ − f)²` over
/// `[lo, hi]`. The evaluation points ascend, so the PWL side is one
/// [`PwlFunction::segment_runs`] walk, each run evaluated on its
/// [`PwlFunction::segment_line`] — bit-identical to the compiled engine
/// without building its bucket index for 129 points. Evaluation points
/// and accumulation order match the scalar formulation exactly.
fn simpson_sq_err(pwl: &PwlFunction, f: &dyn Activation, lo: f64, hi: f64) -> f64 {
    let h = (hi - lo) / SIMPSON_STEPS as f64;
    let mut xs = [0.0; SIMPSON_STEPS + 1];
    for (k, x) in xs.iter_mut().enumerate() {
        *x = lo + k as f64 * h;
    }
    xs[SIMPSON_STEPS] = hi;
    let mut ys = [0.0; SIMPSON_STEPS + 1];
    for (s, run) in pwl.segment_runs(&xs) {
        let [ax, ay, m] = pwl.segment_line(s);
        for k in run {
            ys[k] = m * (xs[k] - ax) + ay;
        }
    }
    let sq = |k: usize| {
        let e = ys[k] - f.eval(xs[k]);
        e * e
    };
    let mut acc = sq(0) + sq(SIMPSON_STEPS);
    for k in 1..SIMPSON_STEPS {
        let w = if k % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * sq(k);
    }
    acc * h / 3.0
}

/// The integral MSE `1/(b−a) ∫ (f̂ − f)²` — the paper's loss `L_[a,b]`.
///
/// # Panics
///
/// Panics if `a >= b`.
///
/// # Examples
///
/// ```
/// use flexsfu_core::{loss, PwlFunction};
/// use flexsfu_funcs::Relu;
///
/// // Breakpoints at -1 and 0 with slopes (0, 1) reproduce ReLU exactly:
/// let exact = PwlFunction::new(vec![-1.0, 0.0], vec![0.0, 0.0], 0.0, 1.0)?;
/// assert!(loss::integral_mse(&exact, &Relu, -1.0, 1.0) < 1e-30);
/// # Ok::<(), flexsfu_core::PwlError>(())
/// ```
pub fn integral_mse(pwl: &PwlFunction, f: &dyn Activation, a: f64, b: f64) -> f64 {
    let mut total = 0.0;
    for (lo, hi) in pieces(pwl, a, b) {
        total += simpson_sq_err(pwl, f, lo, hi);
    }
    total / (b - a)
}

/// The integral MSE of one segment piece `[lo, hi]`, *not* normalized —
/// the quantity inside the paper's insertion loss
/// `ℓᵢⁱⁿˢ = (p_{i+1} − pᵢ) · L_[pᵢ, p_{i+1}]`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn piece_sse(pwl: &PwlFunction, f: &dyn Activation, lo: f64, hi: f64) -> f64 {
    assert!(lo < hi, "empty piece");
    simpson_sq_err(pwl, f, lo, hi)
}

/// Maximum absolute error over `[a, b]` (the paper's MAE axis in
/// Figure 5), found by dense scanning plus golden-section refinement in the
/// best bracket.
pub fn max_abs_error(pwl: &PwlFunction, f: &dyn Activation, a: f64, b: f64) -> f64 {
    max_abs_error_compiled(pwl, &pwl.compile(), f, a, b)
}

/// [`max_abs_error`] through an already-compiled engine.
pub fn max_abs_error_compiled(
    pwl: &PwlFunction,
    engine: &CompiledPwl,
    f: &dyn Activation,
    a: f64,
    b: f64,
) -> f64 {
    let err = |x: f64| (engine.eval_one(x) - f.eval(x)).abs();
    let mut best_x = a;
    let mut best = err(a);
    let mut xs = [0.0; SCAN_STEPS + 1];
    let mut ys = [0.0; SCAN_STEPS + 1];
    for (lo, hi) in pieces(pwl, a, b) {
        // The PWL side of the dense scan runs through the batch engine;
        // the candidate points are identical to the scalar formulation.
        let h = (hi - lo) / SCAN_STEPS as f64;
        for (k, x) in xs.iter_mut().enumerate() {
            *x = lo + k as f64 * h;
        }
        engine.eval_into(&xs, &mut ys);
        for k in 0..=SCAN_STEPS {
            let e = (ys[k] - f.eval(xs[k])).abs();
            if e > best {
                best = e;
                best_x = xs[k];
            }
        }
    }
    // Local refinement around the best sample.
    let span = (b - a) / SCAN_STEPS as f64;
    let (mut lo, mut hi) = ((best_x - span).max(a), (best_x + span).min(b));
    for _ in 0..60 {
        let m1 = lo + (hi - lo) * 0.382;
        let m2 = lo + (hi - lo) * 0.618;
        if err(m1) < err(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    best.max(err(0.5 * (lo + hi)))
}

/// Average absolute error `1/(b−a) ∫ |f̂ − f|` — the AAE metric most prior
/// works report (Table II). Uses dense trapezoid sampling because the
/// integrand has kinks where the error changes sign.
pub fn integral_aae(pwl: &PwlFunction, f: &dyn Activation, a: f64, b: f64) -> f64 {
    integral_aae_compiled(pwl, &pwl.compile(), f, a, b)
}

/// [`integral_aae`] through an already-compiled engine.
pub fn integral_aae_compiled(
    pwl: &PwlFunction,
    engine: &CompiledPwl,
    f: &dyn Activation,
    a: f64,
    b: f64,
) -> f64 {
    const STEPS: usize = 4 * SCAN_STEPS;
    let mut xs = vec![0.0; STEPS + 1];
    let mut ys = vec![0.0; STEPS + 1];
    let mut total = 0.0;
    for (lo, hi) in pieces(pwl, a, b) {
        // Trapezoid sampling with the PWL side batch-evaluated; the
        // sample points and accumulation order match the scalar form.
        let h = (hi - lo) / STEPS as f64;
        for (k, x) in xs.iter_mut().enumerate() {
            *x = lo + k as f64 * h;
        }
        xs[STEPS] = hi;
        engine.eval_into(&xs, &mut ys);
        let err = |k: usize| (ys[k] - f.eval(xs[k])).abs();
        let mut acc = 0.5 * (err(0) + err(STEPS));
        for k in 1..STEPS {
            acc += err(k);
        }
        total += acc * h;
    }
    total / (b - a)
}

/// Squared AAE — the paper squares AAE to compare against MSE on the same
/// order of magnitude (Table II's `sq-AAE`).
pub fn sq_aae(pwl: &PwlFunction, f: &dyn Activation, a: f64, b: f64) -> f64 {
    let aae = integral_aae(pwl, f, a, b);
    aae * aae
}

/// MSE over an explicit sample grid — the discretized loss the optimizer
/// differentiates.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn sampled_mse(pwl: &PwlFunction, f: &dyn Activation, xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "empty sample grid");
    sampled_mse_compiled(&pwl.compile(), f, xs)
}

/// [`sampled_mse`] through an already-compiled engine — the form the
/// optimizer's inner loops use to amortize compilation across calls.
pub fn sampled_mse_compiled(engine: &CompiledPwl, f: &dyn Activation, xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "empty sample grid");
    // One widened sweep for the PWL side; the exact activation is the
    // remaining per-sample cost.
    let ys = engine.eval_batch(xs);
    let mut acc = 0.0;
    for (&x, &y) in xs.iter().zip(&ys) {
        let e = y - f.eval(x);
        acc += e * e;
    }
    acc / xs.len() as f64
}

/// All three headline metrics of one approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossReport {
    /// Integral mean squared error.
    pub mse: f64,
    /// Maximum absolute error.
    pub mae: f64,
    /// Average absolute error.
    pub aae: f64,
}

impl LossReport {
    /// Computes MSE, MAE and AAE of `pwl` against `f` on `[a, b]`,
    /// compiling the function once for the two scanned metrics.
    pub fn compute(pwl: &PwlFunction, f: &dyn Activation, a: f64, b: f64) -> Self {
        let engine = pwl.compile();
        Self {
            mse: integral_mse(pwl, f, a, b),
            mae: max_abs_error_compiled(pwl, &engine, f, a, b),
            aae: integral_aae_compiled(pwl, &engine, f, a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform_pwl;
    use flexsfu_funcs::{Gelu, Relu, Sigmoid, Tanh};

    #[test]
    fn exact_relu_pwl_has_zero_loss() {
        // breakpoints at -1 and 0; left slope 0, right slope 1 → exact ReLU.
        let pwl = PwlFunction::new(vec![-1.0, 0.0], vec![0.0, 0.0], 0.0, 1.0).unwrap();
        let r = LossReport::compute(&pwl, &Relu, -4.0, 4.0);
        assert!(r.mse < 1e-28, "mse = {}", r.mse);
        assert!(r.mae < 1e-14, "mae = {}", r.mae);
        assert!(r.aae < 1e-14, "aae = {}", r.aae);
    }

    #[test]
    fn known_mse_of_linear_error() {
        // Approximate f(x) = 0 with f̂(x) = x on [0, 1] (breakpoints at 0,1
        // with passthrough): MSE = ∫ x² = 1/3.
        #[derive(Debug)]
        struct Zero;
        impl Activation for Zero {
            fn name(&self) -> &'static str {
                "zero"
            }
            fn eval(&self, _: f64) -> f64 {
                0.0
            }
            fn asymptotes(&self) -> flexsfu_funcs::Asymptotes {
                flexsfu_funcs::Asymptotes::new(
                    flexsfu_funcs::Asymptote::constant(0.0),
                    flexsfu_funcs::Asymptote::constant(0.0),
                )
            }
        }
        let pwl = PwlFunction::new(vec![0.0, 1.0], vec![0.0, 1.0], 1.0, 1.0).unwrap();
        let mse = integral_mse(&pwl, &Zero, 0.0, 1.0);
        assert!((mse - 1.0 / 3.0).abs() < 1e-10, "mse = {mse}");
        let aae = integral_aae(&pwl, &Zero, 0.0, 1.0);
        assert!((aae - 0.5).abs() < 1e-6, "aae = {aae}");
        let mae = max_abs_error(&pwl, &Zero, 0.0, 1.0);
        assert!((mae - 1.0).abs() < 1e-9, "mae = {mae}");
    }

    #[test]
    fn mse_decreases_with_more_breakpoints() {
        let mut prev = f64::INFINITY;
        for n in [4, 8, 16, 32] {
            let pwl = uniform_pwl(&Gelu, n, (-8.0, 8.0));
            let mse = integral_mse(&pwl, &Gelu, -8.0, 8.0);
            assert!(mse < prev, "mse should shrink with n = {n}");
            prev = mse;
        }
    }

    #[test]
    fn uniform_pwl_error_scaling_is_quartic_in_mse() {
        // PWL interpolation error is O(h²) pointwise → MSE is O(h⁴):
        // doubling breakpoints should shrink MSE by roughly 16x.
        // Use fine grids where the asymptotic regime holds.
        let mse32 = integral_mse(&uniform_pwl(&Tanh, 32, (-8.0, 8.0)), &Tanh, -8.0, 8.0);
        let mse64 = integral_mse(&uniform_pwl(&Tanh, 64, (-8.0, 8.0)), &Tanh, -8.0, 8.0);
        let ratio = mse32 / mse64;
        assert!(
            (6.0..80.0).contains(&ratio),
            "expected roughly quartic scaling, got ratio {ratio}"
        );
    }

    #[test]
    fn sampled_mse_approaches_integral_mse() {
        let pwl = uniform_pwl(&Sigmoid, 8, (-8.0, 8.0));
        let xs: Vec<f64> = (0..8192).map(|i| -8.0 + 16.0 * i as f64 / 8191.0).collect();
        let s = sampled_mse(&pwl, &Sigmoid, &xs);
        let i = integral_mse(&pwl, &Sigmoid, -8.0, 8.0);
        assert!((s - i).abs() / i < 0.05, "sampled {s} vs integral {i}");
    }

    #[test]
    fn mae_at_least_rms() {
        let pwl = uniform_pwl(&Gelu, 8, (-8.0, 8.0));
        let r = LossReport::compute(&pwl, &Gelu, -8.0, 8.0);
        assert!(r.mae >= r.mse.sqrt());
        assert!(r.mae >= r.aae);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_interval_panics() {
        let pwl = uniform_pwl(&Gelu, 4, (-1.0, 1.0));
        integral_mse(&pwl, &Gelu, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty sample grid")]
    fn empty_grid_panics() {
        let pwl = uniform_pwl(&Gelu, 4, (-1.0, 1.0));
        sampled_mse(&pwl, &Gelu, &[]);
    }
}
