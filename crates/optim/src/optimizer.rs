//! The full Flex-SFU optimization pipeline.
//!
//! Paper, "Optimization strategy": initialize with uniformly distributed
//! breakpoints → optimize with Adam until convergence → remove and insert
//! one breakpoint → retrain with a lower learning rate → reiterate until
//! the removal/insertion points converge.

use crate::adam::Adam;
use crate::grad::SampledProblem;
use crate::heuristics::{remove_insert_move, retie_boundaries};
use crate::refit::refit_values;
use crate::scheduler::ReduceLrOnPlateau;
use flexsfu_core::boundary::BoundarySpec;
use flexsfu_core::init::{chebyshev_pwl, uniform_pwl_asymptotic};
use flexsfu_core::loss::{integral_mse, LossReport};
use flexsfu_core::PwlFunction;
use flexsfu_funcs::Activation;

/// Breakpoint initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// Uniformly spaced breakpoints (the paper's initialization).
    #[default]
    Uniform,
    /// Chebyshev (Gauss-Lobatto) nodes, denser near the interval ends —
    /// an alternative basin for multi-start runs.
    Chebyshev,
}

/// Configuration of the optimization pipeline.
///
/// The defaults mirror the paper: Adam with `lr = 0.1`, momenta
/// `(0.9, 0.999)`, a plateau scheduler, and iterated remove/insert rounds
/// at decaying learning rates.
///
/// # Examples
///
/// ```
/// use flexsfu_optim::OptimizeConfig;
///
/// let cfg = OptimizeConfig::new(32).with_range(-4.0, 4.0).with_samples(1024);
/// assert_eq!(cfg.num_breakpoints, 32);
/// assert_eq!(cfg.range, Some((-4.0, 4.0)));
/// ```
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    /// Number of breakpoints `n` (the paper sweeps 4–64).
    pub num_breakpoints: usize,
    /// Fitting interval; defaults to the activation's
    /// [`default_range`](flexsfu_funcs::Activation::default_range).
    pub range: Option<(f64, f64)>,
    /// Boundary handling; defaults to the activation's asymptotes.
    pub boundary: Option<BoundarySpec>,
    /// Samples in the discretized loss grid.
    pub samples: usize,
    /// Initial Adam learning rate.
    pub lr: f64,
    /// Adam momenta `(β₁, β₂)`.
    pub betas: (f64, f64),
    /// Maximum Adam steps per training round.
    pub max_steps: usize,
    /// Plateau scheduler: LR multiplier on stall.
    pub plateau_factor: f64,
    /// Plateau scheduler: stalled steps tolerated before reduction.
    pub plateau_patience: usize,
    /// Training round ends when the LR decays below this.
    pub min_lr: f64,
    /// Maximum remove/insert rounds after the initial training.
    pub max_rounds: usize,
    /// LR decay applied at each retraining round.
    pub round_lr_decay: f64,
    /// Breakpoint initialization strategy.
    pub init: InitStrategy,
    /// Whether the remove/insert escape heuristic runs between rounds
    /// (disable for ablations).
    pub enable_remove_insert: bool,
    /// Whether exact least-squares value refits run (disable for
    /// ablations; the paper's plain-Adam configuration).
    pub enable_refit: bool,
}

impl OptimizeConfig {
    /// A paper-faithful configuration for `n` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (the remove/insert heuristics need at least three
    /// breakpoints to move one).
    pub fn new(num_breakpoints: usize) -> Self {
        assert!(
            num_breakpoints >= 3,
            "optimizer needs at least 3 breakpoints, got {num_breakpoints}"
        );
        Self {
            num_breakpoints,
            range: None,
            boundary: None,
            samples: 4096,
            lr: 0.1,
            betas: (0.9, 0.999),
            max_steps: 1500,
            plateau_factor: 0.5,
            plateau_patience: 40,
            min_lr: 1e-4,
            max_rounds: 8,
            round_lr_decay: 0.7,
            init: InitStrategy::Uniform,
            enable_remove_insert: true,
            enable_refit: true,
        }
    }

    /// Overrides the fitting interval.
    pub fn with_range(mut self, a: f64, b: f64) -> Self {
        self.range = Some((a, b));
        self
    }

    /// Overrides the loss-grid density.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Overrides the boundary specification.
    pub fn with_boundary(mut self, spec: BoundarySpec) -> Self {
        self.boundary = Some(spec);
        self
    }

    /// Overrides the initialization strategy.
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// A fast low-accuracy preset for tests and smoke runs.
    pub fn quick(num_breakpoints: usize) -> Self {
        let mut c = Self::new(num_breakpoints);
        c.samples = 768;
        c.max_steps = 250;
        c.max_rounds = 2;
        c
    }
}

/// Outcome of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The best function found (lowest integral MSE).
    pub pwl: PwlFunction,
    /// MSE/MAE/AAE of `pwl` on the fitting interval.
    pub report: LossReport,
    /// Total Adam steps taken across all rounds.
    pub steps: usize,
    /// Remove/insert rounds executed.
    pub rounds: usize,
    /// Integral MSE after each round (round 0 = initial training).
    pub history: Vec<f64>,
}

/// Minimum relative breakpoint gap enforced by the sort projection.
const MIN_GAP_FRACTION: f64 = 1e-5;

/// Steps between exact least-squares value refits inside a training round
/// (alternating minimization: Adam moves breakpoints, the refit snaps
/// values to their conditional optimum).
const REFIT_EVERY: usize = 25;

/// Projects breakpoints back to a strictly increasing sequence inside
/// `[a, b]` after a gradient step.
fn project_sorted(p: &mut [f64], a: f64, b: f64) {
    let gap = (b - a) * MIN_GAP_FRACTION;
    for x in p.iter_mut() {
        *x = x.clamp(a, b);
    }
    for i in 1..p.len() {
        if p[i] < p[i - 1] + gap {
            p[i] = p[i - 1] + gap;
        }
    }
    // A forward sweep can push the tail past b; sweep backwards.
    let n = p.len();
    if p[n - 1] > b {
        p[n - 1] = b;
        for i in (0..n - 1).rev() {
            if p[i] > p[i + 1] - gap {
                p[i] = p[i + 1] - gap;
            }
        }
    }
}

/// One Adam training round at learning rate `lr`; returns the trained
/// function and the number of steps taken.
fn train_round(
    mut pwl: PwlFunction,
    problem: &SampledProblem,
    spec: &BoundarySpec,
    lr: f64,
    cfg: &OptimizeConfig,
) -> (PwlFunction, usize) {
    let n = pwl.num_breakpoints();
    let dim = 2 * n + 2; // p, v, ml, mr (tied entries get zero gradients)
    let mut adam = Adam::new(dim, lr, cfg.betas);
    let mut sched =
        ReduceLrOnPlateau::new(lr, cfg.plateau_factor, cfg.plateau_patience, cfg.min_lr);
    let (a, b) = problem.range();
    let mut best = (problem.loss(&pwl), pwl.clone());
    let mut steps = 0;
    // One workspace (gradient buffers) and one pair of flattened
    // vectors for the whole round: after the first step the gradient
    // sweep no longer touches the allocator.
    let mut ws = crate::grad::GradWorkspace::new();
    let mut params = Vec::with_capacity(dim);
    let mut grads = Vec::with_capacity(dim);

    for _ in 0..cfg.max_steps {
        let loss = problem.loss_and_grad_compiled(&pwl, spec, &mut ws);
        let g = ws.gradient();
        steps += 1;
        if loss < best.0 {
            best = (loss, pwl.clone());
        }

        // Flatten parameters.
        params.clear();
        params.extend_from_slice(pwl.breakpoints());
        params.extend_from_slice(pwl.values());
        params.push(pwl.left_slope());
        params.push(pwl.right_slope());
        grads.clear();
        grads.extend_from_slice(&g.d_breakpoints);
        grads.extend_from_slice(&g.d_values);
        grads.push(g.d_left_slope);
        grads.push(g.d_right_slope);

        adam.step(&mut params, &grads);

        // Unflatten + project + re-tie.
        let mut p = params[..n].to_vec();
        let v = params[n..2 * n].to_vec();
        let (ml, mr) = (params[2 * n], params[2 * n + 1]);
        project_sorted(&mut p, a, b);
        let candidate = PwlFunction::new(p, v, ml, mr).expect("projection keeps breakpoints valid");
        pwl = retie_boundaries(&candidate, spec);

        if cfg.enable_refit && steps % REFIT_EVERY == 0 {
            pwl = refit_values(&pwl, problem, spec);
        }

        let new_lr = sched.step(loss);
        if new_lr < adam.lr() {
            adam.set_lr(new_lr);
        }
        if sched.exhausted() {
            break;
        }
    }
    let (final_loss, _) = (problem.loss(&pwl), ());
    if final_loss < best.0 {
        best = (final_loss, pwl);
    }
    (best.1, steps)
}

/// Runs the full pipeline on activation `f`.
///
/// # Panics
///
/// Panics if the configured range is invalid.
///
/// # Examples
///
/// ```
/// use flexsfu_optim::{optimize, OptimizeConfig};
/// use flexsfu_funcs::Sigmoid;
///
/// let r = optimize(&Sigmoid, OptimizeConfig::quick(8));
/// assert!(r.report.mse < 1e-4);
/// ```
pub fn optimize(f: &dyn Activation, cfg: OptimizeConfig) -> OptimizeResult {
    let (a, b) = cfg.range.unwrap_or_else(|| f.default_range());
    // Tie a boundary to its asymptote only when the range actually
    // reaches it (narrow comparison ranges stay free, like prior works).
    let spec = cfg
        .boundary
        .unwrap_or_else(|| BoundarySpec::for_range(f, (a, b), 5e-3));
    let problem = SampledProblem::new(f, a, b, cfg.samples);

    // Start from the chosen grid with least-squares-optimal values.
    let init_pwl = match cfg.init {
        InitStrategy::Uniform => uniform_pwl_asymptotic(f, cfg.num_breakpoints, (a, b)),
        InitStrategy::Chebyshev => crate::heuristics::retie_boundaries(
            &chebyshev_pwl(f, cfg.num_breakpoints, (a, b)),
            &spec,
        ),
    };
    let mut pwl = if cfg.enable_refit {
        refit_values(&init_pwl, &problem, &spec)
    } else {
        init_pwl
    };
    // Adam's per-parameter step magnitude is ≈ lr; cap it at a fraction of
    // the breakpoint gap so dense grids are refined, not scrambled.
    let gap = (b - a) / (cfg.num_breakpoints - 1) as f64;
    let mut lr = cfg.lr.min(0.25 * gap);
    let mut total_steps = 0;
    let mut history = Vec::new();
    let mut best: Option<(f64, PwlFunction)> = None;
    let mut last_move: Option<(usize, f64)> = None;
    let mut rounds = 0;

    for round in 0..=cfg.max_rounds {
        let (trained, steps) = train_round(pwl.clone(), &problem, &spec, lr, &cfg);
        total_steps += steps;
        pwl = if cfg.enable_refit {
            refit_values(&trained, &problem, &spec)
        } else {
            trained
        };
        let mse = integral_mse(&pwl, f, a, b);
        history.push(mse);
        if best.as_ref().is_none_or(|(bm, _)| mse < *bm) {
            best = Some((mse, pwl.clone()));
        }
        if round == cfg.max_rounds || !cfg.enable_remove_insert {
            break;
        }
        rounds += 1;

        // Remove/insert move, then retrain with decayed LR.
        let (moved, removed_idx, inserted_at) = remove_insert_move(&pwl, f, (a, b), &spec);
        let converged = last_move
            .is_some_and(|(ri, pi)| ri == removed_idx && (pi - inserted_at).abs() < (b - a) * 1e-3);
        last_move = Some((removed_idx, inserted_at));
        pwl = if cfg.enable_refit {
            refit_values(&moved, &problem, &spec)
        } else {
            moved
        };
        lr *= cfg.round_lr_decay;
        if converged {
            break;
        }
    }

    let (_, best_pwl) = best.expect("at least one round ran");
    let report = LossReport::compute(&best_pwl, f, a, b);
    OptimizeResult {
        pwl: best_pwl,
        report,
        steps: total_steps,
        rounds,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_core::init::uniform_pwl;
    use flexsfu_funcs::{Exp, Gelu, Sigmoid, Tanh};

    #[test]
    fn project_sorted_restores_order() {
        let mut p = vec![0.5, 0.2, 0.9, 0.1];
        project_sorted(&mut p, 0.0, 1.0);
        assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn project_sorted_handles_tail_overflow() {
        let mut p = vec![0.999, 0.9995, 1.2, 1.4];
        project_sorted(&mut p, 0.0, 1.0);
        assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
        assert!(*p.last().unwrap() <= 1.0);
    }

    #[test]
    fn optimizer_beats_uniform_baseline_on_gelu() {
        let result = optimize(&Gelu, OptimizeConfig::quick(8));
        let uniform = uniform_pwl(&Gelu, 8, (-8.0, 8.0));
        let uniform_mse = integral_mse(&uniform, &Gelu, -8.0, 8.0);
        assert!(
            result.report.mse < uniform_mse / 3.0,
            "optimized {} vs uniform {uniform_mse}",
            result.report.mse
        );
    }

    #[test]
    fn optimizer_preserves_breakpoint_count_and_ties() {
        let result = optimize(&Tanh, OptimizeConfig::quick(8));
        assert_eq!(result.pwl.num_breakpoints(), 8);
        // Asymptote ties survive the whole pipeline.
        assert_eq!(result.pwl.left_slope(), 0.0);
        assert_eq!(result.pwl.right_slope(), 0.0);
        assert_eq!(result.pwl.values()[0], -1.0);
        assert_eq!(result.pwl.values()[7], 1.0);
    }

    #[test]
    fn history_is_monotone_at_best() {
        let result = optimize(&Sigmoid, OptimizeConfig::quick(8));
        assert!(!result.history.is_empty());
        let best_hist = result.history.iter().cloned().fold(f64::INFINITY, f64::min);
        // The reported MSE is the best seen across rounds.
        assert!(result.report.mse <= best_hist * 1.0001);
        assert!(result.steps > 0);
    }

    #[test]
    fn exp_with_free_right_boundary_optimizes() {
        let result = optimize(&Exp, OptimizeConfig::quick(8));
        // exp on [-10, 0.1]: approximation must be decent and bounded left.
        assert!(result.report.mse < 1e-4, "mse {}", result.report.mse);
        assert_eq!(result.pwl.left_slope(), 0.0);
        assert!((result.pwl.eval(-30.0)).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "at least 3 breakpoints")]
    fn config_rejects_two_breakpoints() {
        OptimizeConfig::new(2);
    }
}
