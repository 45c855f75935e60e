//! The [`PwlFunction`] type: a validated non-uniform piecewise-linear
//! function with asymptotic outer segments.

use crate::error::PwlError;
use std::ops::Range;

/// Which piece of the domain an input falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `x ≤ p₀`: the left outer segment with slope `ml`.
    Left,
    /// `pᵢ < x < p_{i+1}`: inner segment `i` (0-based).
    Inner(usize),
    /// `x ≥ p_{n-1}`: the right outer segment with slope `mr`.
    Right,
}

/// A continuous piecewise-linear function with `n ≥ 2` strictly increasing
/// breakpoints, per-breakpoint values, and boundary slopes (paper,
/// Section IV).
///
/// The function has `n + 1` linear segments: two half-open outer segments
/// anchored at `(p₀, v₀)` and `(p_{n-1}, v_{n-1})` with slopes `ml`/`mr`,
/// and `n - 1` inner segments interpolating consecutive breakpoint/value
/// pairs. Continuity at every breakpoint is structural: neighbouring
/// segments share the breakpoint value exactly.
///
/// # Examples
///
/// ```
/// use flexsfu_core::PwlFunction;
///
/// // A 3-breakpoint hat function, flat outside [-1, 1].
/// let hat = PwlFunction::new(
///     vec![-1.0, 0.0, 1.0],
///     vec![0.0, 1.0, 0.0],
///     0.0,
///     0.0,
/// )?;
/// assert_eq!(hat.eval(-2.0), 0.0);
/// assert_eq!(hat.eval(0.5), 0.5);
/// assert_eq!(hat.eval(0.0), 1.0);
/// # Ok::<(), flexsfu_core::PwlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PwlFunction {
    breakpoints: Vec<f64>,
    values: Vec<f64>,
    left_slope: f64,
    right_slope: f64,
}

impl PwlFunction {
    /// Builds a PWL function after validating every invariant.
    ///
    /// # Errors
    ///
    /// * [`PwlError::TooFewBreakpoints`] if fewer than 2 breakpoints,
    /// * [`PwlError::LengthMismatch`] if `values.len() != breakpoints.len()`,
    /// * [`PwlError::NotStrictlyIncreasing`] if breakpoints are not sorted
    ///   strictly ascending,
    /// * [`PwlError::NonFinite`] if any entry or slope is NaN/infinite.
    pub fn new(
        breakpoints: Vec<f64>,
        values: Vec<f64>,
        left_slope: f64,
        right_slope: f64,
    ) -> Result<Self, PwlError> {
        if breakpoints.len() < 2 {
            return Err(PwlError::TooFewBreakpoints {
                got: breakpoints.len(),
            });
        }
        if breakpoints.len() != values.len() {
            return Err(PwlError::LengthMismatch {
                breakpoints: breakpoints.len(),
                values: values.len(),
            });
        }
        if breakpoints.iter().any(|p| !p.is_finite()) {
            return Err(PwlError::NonFinite {
                what: "breakpoints",
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(PwlError::NonFinite { what: "values" });
        }
        if !left_slope.is_finite() || !right_slope.is_finite() {
            return Err(PwlError::NonFinite { what: "slopes" });
        }
        if let Some(i) = breakpoints.windows(2).position(|w| w[0] >= w[1]) {
            return Err(PwlError::NotStrictlyIncreasing { index: i });
        }
        Ok(Self {
            breakpoints,
            values,
            left_slope,
            right_slope,
        })
    }

    /// Number of breakpoints `n`.
    pub fn num_breakpoints(&self) -> usize {
        self.breakpoints.len()
    }

    /// Number of linear segments, `n + 1` (two outer + `n - 1` inner).
    pub fn num_segments(&self) -> usize {
        self.breakpoints.len() + 1
    }

    /// The breakpoint positions `p`.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// The breakpoint values `v`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Left outer slope `ml`.
    pub fn left_slope(&self) -> f64 {
        self.left_slope
    }

    /// Right outer slope `mr`.
    pub fn right_slope(&self) -> f64 {
        self.right_slope
    }

    /// Classifies `x` into its [`Region`] via binary search —
    /// the software analogue of the ADU's binary-search tree.
    ///
    /// Convention (matching the paper's `cmpo` comparison `x > bp`):
    /// `x ≤ p₀` is `Left`, `x ≥ p_{n-1}` is `Right`, otherwise `Inner(i)`
    /// with `pᵢ < x ≤ p_{i+1}` … except that an `x` exactly equal to an
    /// inner breakpoint may be attributed to either adjacent segment —
    /// continuity makes both evaluate identically.
    pub fn region(&self, x: f64) -> Region {
        let n = self.breakpoints.len();
        if x <= self.breakpoints[0] {
            return Region::Left;
        }
        if x >= self.breakpoints[n - 1] {
            return Region::Right;
        }
        // partition_point returns the count of breakpoints < x, which is in
        // 1..n-1 here; segment i spans (p_i, p_{i+1}).
        let idx = self.breakpoints.partition_point(|&p| p < x);
        Region::Inner(idx - 1)
    }

    /// The table-order segment of a non-NaN `x` (`0` left outer, `i + 1`
    /// inner segment `i`, `n` right outer): [`Self::region`] as an index,
    /// and exactly what [`crate::CompiledPwl::segment_index`] returns.
    fn segment_of(&self, x: f64) -> usize {
        match self.region(x) {
            Region::Left => 0,
            Region::Inner(i) => i + 1,
            Region::Right => self.breakpoints.len(),
        }
    }

    /// Splits sorted points into runs that share a segment, in one merge
    /// walk against the breakpoints: yields `(segment, range)` with
    /// `xs[range]` all in table-order segment `segment`, the ranges
    /// contiguous and covering `xs` in order, each non-empty.
    ///
    /// The assignment is exactly [`crate::CompiledPwl::segments_into`]'s
    /// (`x ≤ p₀` → 0, `x ≥ p_{n-1}` → n, otherwise the count of
    /// breakpoints `< x`), so evaluating each run with its
    /// [`Self::segment_line`] reproduces the engine bit for bit — without
    /// building the engine's bucket index. This is how the optimizer
    /// sweeps its fixed, sorted loss grid.
    ///
    /// `xs` must be sorted ascending and NaN-free. Debug builds assert
    /// it; release builds yield unspecified runs (the walk still
    /// terminates).
    ///
    /// # Examples
    ///
    /// ```
    /// use flexsfu_core::PwlFunction;
    ///
    /// let pwl = PwlFunction::new(vec![-1.0, 1.0], vec![-1.0, 1.0], 0.0, 0.0)?;
    /// let xs = [-2.0, -1.0, 0.0, 0.5, 1.0, 3.0];
    /// let runs: Vec<_> = pwl.segment_runs(&xs).collect();
    /// assert_eq!(runs, vec![(0, 0..2), (1, 2..4), (2, 4..6)]);
    /// # Ok::<(), flexsfu_core::PwlError>(())
    /// ```
    pub fn segment_runs<'a>(
        &'a self,
        xs: &'a [f64],
    ) -> impl Iterator<Item = (usize, Range<usize>)> + 'a {
        debug_assert!(
            xs.windows(2).all(|w| w[0] <= w[1]),
            "segment_runs needs sorted, NaN-free points"
        );
        let p = &self.breakpoints;
        let n = p.len();
        let mut start = 0;
        std::iter::from_fn(move || {
            let &x = xs.get(start)?;
            let s = self.segment_of(x);
            // Segment s keeps every later point up to its right edge:
            // p_s inclusive for s ≤ n − 2, p_{n-1} exclusive for the last
            // inner segment (p_{n-1} itself is the right outer one's).
            let rest = &xs[start + 1..];
            let len = 1 + if s + 2 <= n {
                rest.partition_point(|&y| y <= p[s])
            } else if s + 1 == n {
                rest.partition_point(|&y| y < p[n - 1])
            } else {
                rest.len()
            };
            let run = (s, start..start + len);
            start += len;
            Some(run)
        })
    }

    /// The anchored line `[aₓ, a_y, m]` of table-order segment `s`: the
    /// segment evaluates as `m·(x − aₓ) + a_y`. Outer segments anchor at
    /// their end breakpoint with the boundary slope; inner segment `i`
    /// anchors at `(pᵢ, vᵢ)` with the slope quotient [`Self::eval`]
    /// computes per call. Both compiled engines store exactly these
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `s > n`.
    pub fn segment_line(&self, s: usize) -> [f64; 3] {
        let (p, v) = (&self.breakpoints, &self.values);
        let n = p.len();
        assert!(s <= n, "segment {s} out of range for {n} breakpoints");
        if s == 0 {
            [p[0], v[0], self.left_slope]
        } else if s < n {
            [p[s - 1], v[s - 1], (v[s] - v[s - 1]) / (p[s] - p[s - 1])]
        } else {
            [p[n - 1], v[n - 1], self.right_slope]
        }
    }

    /// Evaluates the function at `x`.
    ///
    /// NaN inputs propagate to NaN.
    pub fn eval(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let n = self.breakpoints.len();
        match self.region(x) {
            Region::Left => self.left_slope * (x - self.breakpoints[0]) + self.values[0],
            Region::Right => self.right_slope * (x - self.breakpoints[n - 1]) + self.values[n - 1],
            Region::Inner(i) => {
                let (p0, p1) = (self.breakpoints[i], self.breakpoints[i + 1]);
                let (v0, v1) = (self.values[i], self.values[i + 1]);
                v0 + (v1 - v0) / (p1 - p0) * (x - p0)
            }
        }
    }

    /// Evaluates the function over a slice.
    ///
    /// For repeated batches, prefer [`compile`](Self::compile) — it pays
    /// the flattening cost once instead of a binary search plus division
    /// per element.
    pub fn eval_vec(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// Lowers the function into the batch-evaluation engine's SoA form
    /// (see [`crate::engine`]). Evaluation through the compiled form runs
    /// the SIMD lane kernels and is bit-identical to [`eval`](Self::eval).
    ///
    /// # Examples
    ///
    /// ```
    /// use flexsfu_core::{PwlEvaluator, PwlFunction};
    ///
    /// let pwl = PwlFunction::new(vec![-1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0], 0.0, 0.0)?;
    /// let engine = pwl.compile(); // pay the O(n) lowering once…
    /// let xs = [-1.5, -0.25, 0.5, 2.0, f64::NAN];
    /// let ys = engine.eval_batch(&xs); // …amortize it over every batch
    /// for (&x, &y) in xs.iter().zip(&ys) {
    ///     assert_eq!(y.to_bits(), pwl.eval(x).to_bits()); // bit-identical
    /// }
    /// # Ok::<(), flexsfu_core::PwlError>(())
    /// ```
    pub fn compile(&self) -> crate::engine::CompiledPwl {
        crate::engine::CompiledPwl::from_pwl(self)
    }

    /// Returns a copy with breakpoint `i` removed (used by the removal-loss
    /// heuristic). The boundary slopes are kept; removing an outer
    /// breakpoint re-anchors the corresponding outer segment on its
    /// neighbour.
    ///
    /// # Errors
    ///
    /// Returns [`PwlError::TooFewBreakpoints`] if only two breakpoints
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn without_breakpoint(&self, i: usize) -> Result<Self, PwlError> {
        assert!(i < self.breakpoints.len(), "breakpoint index out of range");
        if self.breakpoints.len() <= 2 {
            return Err(PwlError::TooFewBreakpoints { got: 1 });
        }
        let mut p = self.breakpoints.clone();
        let mut v = self.values.clone();
        p.remove(i);
        v.remove(i);
        Self::new(p, v, self.left_slope, self.right_slope)
    }

    /// Returns a copy with a breakpoint inserted at `(p, v)` (the
    /// insertion-loss heuristic inserts at segment midpoints).
    ///
    /// # Errors
    ///
    /// Returns [`PwlError::NotStrictlyIncreasing`] if `p` collides with an
    /// existing breakpoint, or [`PwlError::NonFinite`] for bad inputs.
    pub fn with_breakpoint(&self, p: f64, v: f64) -> Result<Self, PwlError> {
        if !p.is_finite() {
            return Err(PwlError::NonFinite {
                what: "breakpoints",
            });
        }
        if !v.is_finite() {
            return Err(PwlError::NonFinite { what: "values" });
        }
        let idx = self.breakpoints.partition_point(|&q| q < p);
        if self.breakpoints.get(idx) == Some(&p) {
            return Err(PwlError::NotStrictlyIncreasing { index: idx });
        }
        let mut bp = self.breakpoints.clone();
        let mut vv = self.values.clone();
        bp.insert(idx, p);
        vv.insert(idx, v);
        Self::new(bp, vv, self.left_slope, self.right_slope)
    }

    /// Decomposes into `(breakpoints, values, ml, mr)`.
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>, f64, f64) {
        (
            self.breakpoints,
            self.values,
            self.left_slope,
            self.right_slope,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp() -> PwlFunction {
        // f̂(x) = x on [-1, 1] clamped outside: breakpoints at ±1.
        PwlFunction::new(vec![-1.0, 1.0], vec![-1.0, 1.0], 0.0, 0.0).unwrap()
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            PwlFunction::new(vec![0.0], vec![0.0], 0.0, 0.0),
            Err(PwlError::TooFewBreakpoints { got: 1 })
        );
        assert_eq!(
            PwlFunction::new(vec![0.0, 1.0], vec![0.0], 0.0, 0.0),
            Err(PwlError::LengthMismatch {
                breakpoints: 2,
                values: 1
            })
        );
        assert_eq!(
            PwlFunction::new(vec![1.0, 0.0], vec![0.0, 0.0], 0.0, 0.0),
            Err(PwlError::NotStrictlyIncreasing { index: 0 })
        );
        assert_eq!(
            PwlFunction::new(vec![0.0, 0.0], vec![0.0, 0.0], 0.0, 0.0),
            Err(PwlError::NotStrictlyIncreasing { index: 0 })
        );
        assert_eq!(
            PwlFunction::new(vec![0.0, f64::NAN], vec![0.0, 0.0], 0.0, 0.0),
            Err(PwlError::NonFinite {
                what: "breakpoints"
            })
        );
        assert_eq!(
            PwlFunction::new(vec![0.0, 1.0], vec![0.0, f64::INFINITY], 0.0, 0.0),
            Err(PwlError::NonFinite { what: "values" })
        );
        assert_eq!(
            PwlFunction::new(vec![0.0, 1.0], vec![0.0, 1.0], f64::NAN, 0.0),
            Err(PwlError::NonFinite { what: "slopes" })
        );
    }

    #[test]
    fn regions_and_eval() {
        let r = ramp();
        assert_eq!(r.region(-5.0), Region::Left);
        assert_eq!(r.region(-1.0), Region::Left); // boundary belongs left
        assert_eq!(r.region(0.0), Region::Inner(0));
        assert_eq!(r.region(1.0), Region::Right);
        assert_eq!(r.region(5.0), Region::Right);

        assert_eq!(r.eval(-5.0), -1.0);
        assert_eq!(r.eval(0.25), 0.25);
        assert_eq!(r.eval(5.0), 1.0);
    }

    #[test]
    fn continuity_at_breakpoints() {
        let pwl = PwlFunction::new(
            vec![-2.0, -0.5, 0.0, 1.5, 3.0],
            vec![0.1, -0.3, 0.0, 2.0, 2.5],
            0.2,
            1.0,
        )
        .unwrap();
        for &p in pwl.breakpoints() {
            let eps = 1e-9;
            let lo = pwl.eval(p - eps);
            let hi = pwl.eval(p + eps);
            assert!((lo - hi).abs() < 1e-7, "discontinuity at {p}");
            // The function passes exactly through (p, v).
            let i = pwl.breakpoints().iter().position(|&q| q == p).unwrap();
            assert!((pwl.eval(p) - pwl.values()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn num_segments_is_breakpoints_plus_one() {
        let pwl = ramp();
        assert_eq!(pwl.num_breakpoints(), 2);
        assert_eq!(pwl.num_segments(), 3);
    }

    #[test]
    fn nan_propagates() {
        assert!(ramp().eval(f64::NAN).is_nan());
    }

    #[test]
    fn removal_and_insertion() {
        let pwl = PwlFunction::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0], 0.0, 0.0).unwrap();
        let removed = pwl.without_breakpoint(1).unwrap();
        assert_eq!(removed.breakpoints(), &[0.0, 2.0]);
        // Removing from a 2-breakpoint function fails.
        assert!(removed.without_breakpoint(0).is_err());

        let inserted = pwl.with_breakpoint(0.5, 0.5).unwrap();
        assert_eq!(inserted.num_breakpoints(), 4);
        assert_eq!(inserted.breakpoints(), &[0.0, 0.5, 1.0, 2.0]);
        // Exact collision is rejected.
        assert!(pwl.with_breakpoint(1.0, 0.0).is_err());
    }

    #[test]
    fn eval_vec_matches_scalar() {
        let pwl = ramp();
        let xs: Vec<f64> = (-20..=20).map(|i| i as f64 * 0.1).collect();
        let ys = pwl.eval_vec(&xs);
        for (&x, &y) in xs.iter().zip(&ys) {
            assert_eq!(pwl.eval(x), y);
        }
    }

    #[test]
    fn into_parts_roundtrip() {
        let pwl = ramp();
        let (p, v, ml, mr) = pwl.clone().into_parts();
        let back = PwlFunction::new(p, v, ml, mr).unwrap();
        assert_eq!(back, pwl);
    }

    proptest! {
        /// Any sorted, deduplicated breakpoint set yields a function that
        /// interpolates its own (p, v) pairs and is monotone-region
        /// consistent.
        #[test]
        fn prop_interpolates_breakpoint_values(
            mut ps in proptest::collection::vec(-100.0f64..100.0, 2..20),
            seed in 0u64..1000,
        ) {
            ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ps.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            prop_assume!(ps.len() >= 2);
            // Deterministic pseudo-values from the seed.
            let vs: Vec<f64> = ps.iter().enumerate()
                .map(|(i, _)| ((seed as f64 + i as f64) * 0.61803).sin())
                .collect();
            let pwl = PwlFunction::new(ps.clone(), vs.clone(), 0.5, -0.5).unwrap();
            for (p, v) in ps.iter().zip(&vs) {
                prop_assert!((pwl.eval(*p) - v).abs() < 1e-9);
            }
        }

        /// Evaluation between two adjacent breakpoints stays within the
        /// convex hull of their values (linearity).
        #[test]
        fn prop_inner_values_bounded_by_endpoints(t in 0.0f64..1.0) {
            let pwl = PwlFunction::new(
                vec![-1.0, 0.0, 2.0],
                vec![3.0, -1.0, 4.0],
                0.0, 0.0,
            ).unwrap();
            let x = -1.0 + t; // inside segment 0
            let y = pwl.eval(x);
            prop_assert!((-1.0 - 1e-12..=3.0 + 1e-12).contains(&y));
        }
    }
}
