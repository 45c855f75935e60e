//! Breakpoint removal and insertion heuristics (paper, Section IV).
//!
//! To escape sub-optimal local minima, the optimizer periodically *removes*
//! the breakpoint whose absence hurts least and *re-inserts* one where the
//! error is concentrated:
//!
//! * **removal loss** `ℓᵢʳᵐ = L_[a,b](f̂ without pᵢ, f)` — the global loss
//!   with breakpoint `i` deleted; the breakpoint with minimal `ℓʳᵐ` is
//!   removed;
//! * **insertion loss** `ℓᵢⁱⁿˢ = (p_{i+1} − pᵢ) · L_[pᵢ,p_{i+1}](f̂, f)` —
//!   the *unnormalized* squared error mass of segment `i`; a breakpoint is
//!   inserted at the midpoint of the segment with maximal `ℓⁱⁿˢ`, with the
//!   midpoint value `(vᵢ + v_{i+1})/2` (which is exactly `f̂` at that
//!   point).

use flexsfu_core::boundary::BoundarySpec;
use flexsfu_core::loss::{integral_mse, piece_sse};
use flexsfu_core::PwlFunction;
use flexsfu_funcs::Activation;

/// Re-applies boundary ties after a structural change: outer values move
/// onto the asymptote anchored at the (possibly new) end breakpoints.
pub fn retie_boundaries(pwl: &PwlFunction, spec: &BoundarySpec) -> PwlFunction {
    let p = pwl.breakpoints().to_vec();
    let mut v = pwl.values().to_vec();
    let mut ml = pwl.left_slope();
    let mut mr = pwl.right_slope();
    let n = p.len();
    if let Some((m, v0)) = spec.left.tie(p[0]) {
        ml = m;
        v[0] = v0;
    }
    if let Some((m, vn)) = spec.right.tie(p[n - 1]) {
        mr = m;
        v[n - 1] = vn;
    }
    PwlFunction::new(p, v, ml, mr).expect("retying preserves validity")
}

/// Removal losses `ℓᵢʳᵐ` for every breakpoint (index-aligned).
///
/// Breakpoints whose removal would leave fewer than two are assigned
/// `f64::INFINITY`.
pub fn removal_losses(
    pwl: &PwlFunction,
    f: &dyn Activation,
    range: (f64, f64),
    spec: &BoundarySpec,
) -> Vec<f64> {
    let (a, b) = range;
    (0..pwl.num_breakpoints())
        .map(|i| match pwl.without_breakpoint(i) {
            Ok(candidate) => integral_mse(&retie_boundaries(&candidate, spec), f, a, b),
            Err(_) => f64::INFINITY,
        })
        .collect()
}

/// The index with minimal removal loss — `p_remove = argmin ℓᵢʳᵐ`.
pub fn best_removal(
    pwl: &PwlFunction,
    f: &dyn Activation,
    range: (f64, f64),
    spec: &BoundarySpec,
) -> (usize, f64) {
    let losses = removal_losses(pwl, f, range, spec);
    let (mut best_i, mut best) = (0, f64::INFINITY);
    for (i, &l) in losses.iter().enumerate() {
        if l < best {
            best = l;
            best_i = i;
        }
    }
    (best_i, best)
}

/// Insertion losses `ℓᵢⁱⁿˢ` for every *inner* segment `i`
/// (between `pᵢ` and `p_{i+1}`), index-aligned with segments `0..n-1`.
pub fn insertion_losses(pwl: &PwlFunction, f: &dyn Activation) -> Vec<f64> {
    let p = pwl.breakpoints();
    (0..p.len() - 1)
        .map(|i| piece_sse(pwl, f, p[i], p[i + 1]))
        .collect()
}

/// The midpoint `(p, v)` of the segment with maximal insertion loss.
pub fn best_insertion(pwl: &PwlFunction, f: &dyn Activation) -> (f64, f64, f64) {
    let losses = insertion_losses(pwl, f);
    let (mut best_i, mut best) = (0, f64::NEG_INFINITY);
    for (i, &l) in losses.iter().enumerate() {
        if l > best {
            best = l;
            best_i = i;
        }
    }
    let p = pwl.breakpoints();
    let v = pwl.values();
    let pm = 0.5 * (p[best_i] + p[best_i + 1]);
    let vm = 0.5 * (v[best_i] + v[best_i + 1]);
    (pm, vm, best)
}

/// One remove-then-insert move: removes the argmin-removal-loss breakpoint,
/// re-ties boundaries, then inserts at the argmax-insertion-loss midpoint.
///
/// Returns the new function together with `(removed_index, inserted_at)`
/// so the caller can detect convergence of the pair.
pub fn remove_insert_move(
    pwl: &PwlFunction,
    f: &dyn Activation,
    range: (f64, f64),
    spec: &BoundarySpec,
) -> (PwlFunction, usize, f64) {
    let (ri, _) = best_removal(pwl, f, range, spec);
    let removed = retie_boundaries(
        &pwl.without_breakpoint(ri)
            .expect("optimizer maintains ≥3 breakpoints before moves"),
        spec,
    );
    let (pm, vm, _) = best_insertion(&removed, f);
    let inserted = removed
        .with_breakpoint(pm, vm)
        .expect("midpoint is strictly inside a segment");
    (retie_boundaries(&inserted, spec), ri, pm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_core::init::{uniform_pwl, uniform_pwl_asymptotic};
    use flexsfu_funcs::{Gelu, Relu, Tanh};

    #[test]
    fn removal_prefers_redundant_breakpoints() {
        // ReLU is exactly linear on both sides of 0: a breakpoint at x = 4
        // is redundant, one at 0 is essential.
        let pwl = uniform_pwl(&Relu, 5, (-8.0, 8.0)); // bps at -8,-4,0,4,8
        let losses = removal_losses(&pwl, &Relu, (-8.0, 8.0), &BoundarySpec::free());
        // Removing the kink breakpoint (index 2) must hurt the most among
        // interior candidates.
        assert!(losses[2] > losses[1]);
        assert!(losses[2] > losses[3]);
        let (best, _) = best_removal(&pwl, &Relu, (-8.0, 8.0), &BoundarySpec::free());
        assert_ne!(best, 2);
    }

    #[test]
    fn insertion_targets_high_curvature() {
        // For GELU on [-8, 8] with few breakpoints the error mass sits in
        // the curved region around the origin, not in the flat tails.
        let pwl = uniform_pwl(&Gelu, 5, (-8.0, 8.0)); // segments of width 4
        let losses = insertion_losses(&pwl, &Gelu);
        let max_i = losses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // Middle segments [-4,0] or [0,4] carry the most error.
        assert!(max_i == 1 || max_i == 2, "max segment was {max_i}");
        let (pm, vm, _) = best_insertion(&pwl, &Gelu);
        assert!(pm.abs() <= 2.0, "insertion point {pm}");
        assert!(vm.is_finite());
    }

    #[test]
    fn remove_insert_keeps_breakpoint_count() {
        let spec = BoundarySpec::from_activation(&Tanh);
        let pwl = uniform_pwl_asymptotic(&Tanh, 8, (-8.0, 8.0));
        let (moved, ri, pm) = remove_insert_move(&pwl, &Tanh, (-8.0, 8.0), &spec);
        assert_eq!(moved.num_breakpoints(), 8);
        assert!(ri < 8);
        assert!((-8.0..=8.0).contains(&pm));
    }

    #[test]
    fn remove_insert_does_not_catastrophically_hurt() {
        let spec = BoundarySpec::from_activation(&Gelu);
        let pwl = uniform_pwl_asymptotic(&Gelu, 8, (-8.0, 8.0));
        let before = integral_mse(&pwl, &Gelu, -8.0, 8.0);
        let (moved, _, _) = remove_insert_move(&pwl, &Gelu, (-8.0, 8.0), &spec);
        let after = integral_mse(&moved, &Gelu, -8.0, 8.0);
        // The move may transiently raise the loss (it's followed by
        // retraining) but not explode it.
        assert!(after < before * 50.0, "before {before}, after {after}");
    }

    #[test]
    fn retie_moves_outer_values_onto_asymptote() {
        let spec = BoundarySpec::from_activation(&Tanh);
        let pwl = uniform_pwl(&Tanh, 5, (-6.0, 6.0)); // exact values at ends
        let tied = retie_boundaries(&pwl, &spec);
        assert_eq!(tied.values()[0], -1.0);
        assert_eq!(tied.values()[4], 1.0);
        assert_eq!(tied.left_slope(), 0.0);
        assert_eq!(tied.right_slope(), 0.0);
    }

    #[test]
    fn two_breakpoint_function_cannot_lose_more() {
        let pwl = uniform_pwl(&Tanh, 2, (-1.0, 1.0));
        let losses = removal_losses(&pwl, &Tanh, (-1.0, 1.0), &BoundarySpec::free());
        assert!(losses.iter().all(|l| l.is_infinite()));
    }
}
