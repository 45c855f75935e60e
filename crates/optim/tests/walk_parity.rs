//! Bit-identity of the optimizer's sorted-grid sweeps against references
//! that classify every sample through `CompiledPwl::segments_into` and
//! evaluate it with `CompiledPwl::eval_at_segment`, accumulating the same
//! terms in the same order: `SampledProblem::loss`,
//! `SampledProblem::loss_and_grad_compiled` and `refit_values`, under
//! free and asymptote-tied boundaries, compared with `to_bits` on every
//! output.

use flexsfu_core::boundary::BoundarySpec;
use flexsfu_core::{CompiledPwl, PwlFunction};
use flexsfu_funcs::{Activation, Gelu, Tanh};
use flexsfu_optim::refit::refit_values;
use flexsfu_optim::{GradWorkspace, Gradient, SampledProblem};

fn segments(pwl: &PwlFunction, xs: &[f64]) -> (CompiledPwl, Vec<u32>) {
    let engine = pwl.compile();
    let mut segs = vec![0u32; xs.len()];
    engine.segments_into(xs, &mut segs);
    (engine, segs)
}

fn ref_loss(problem: &SampledProblem, pwl: &PwlFunction) -> f64 {
    let xs = problem.samples();
    let (engine, segs) = segments(pwl, xs);
    let mut acc = 0.0;
    for k in 0..xs.len() {
        let e = engine.eval_at_segment(xs[k], segs[k] as usize) - problem.target(k);
        acc += e * e;
    }
    acc / xs.len() as f64
}

/// The per-sample scatter form of the gradient sweep.
fn ref_loss_and_grad(
    problem: &SampledProblem,
    pwl: &PwlFunction,
    spec: &BoundarySpec,
) -> (f64, Gradient) {
    let (p, v) = (pwl.breakpoints(), pwl.values());
    let n = p.len();
    let (ml, mr) = (pwl.left_slope(), pwl.right_slope());
    let xs = problem.samples();
    let (engine, segs) = segments(pwl, xs);
    let (mut dp, mut dv) = (vec![0.0; n], vec![0.0; n]);
    let (mut dml, mut dmr, mut loss) = (0.0, 0.0, 0.0);
    for (k, &x) in xs.iter().enumerate() {
        let s = segs[k] as usize;
        let e = engine.eval_at_segment(x, s) - problem.target(k);
        loss += e * e;
        if s == 0 {
            dv[0] += e;
            dp[0] += e * -ml;
            dml += e * (x - p[0]);
        } else if s == n {
            dv[n - 1] += e;
            dp[n - 1] += e * -mr;
            dmr += e * (x - p[n - 1]);
        } else {
            let i = s - 1;
            let delta = p[i + 1] - p[i];
            let tt = (x - p[i]) / delta;
            let dvdiff = v[i + 1] - v[i];
            dv[i] += e * (1.0 - tt);
            dv[i + 1] += e * tt;
            dp[i] += e * dvdiff * (x - p[i + 1]) / (delta * delta);
            dp[i + 1] += e * -dvdiff * (x - p[i]) / (delta * delta);
        }
    }
    let inv_m = 1.0 / xs.len() as f64;
    let scale = 2.0 * inv_m;
    dp.iter_mut().for_each(|g| *g *= scale);
    dv.iter_mut().for_each(|g| *g *= scale);
    dml *= scale;
    dmr *= scale;
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
    let grad = Gradient {
        d_breakpoints: dp,
        d_values: dv,
        d_left_slope: dml,
        d_right_slope: dmr,
    };
    (loss * inv_m, grad)
}

/// The per-sample scatter form of the refit's normal equations, then
/// the same guard, tie folding and Thomas solve as `refit_values`.
fn ref_refit(pwl: &PwlFunction, problem: &SampledProblem, spec: &BoundarySpec) -> PwlFunction {
    let p = pwl.breakpoints();
    let n = p.len();
    let m = problem.len();
    let (ml, mr) = (pwl.left_slope(), pwl.right_slope());
    let tied_left = spec.left.tie(p[0]).map(|(_, v)| v);
    let tied_right = spec.right.tie(p[n - 1]).map(|(_, v)| v);
    let (mut diag, mut off, mut rhs) = (vec![0.0; n], vec![0.0; n - 1], vec![0.0; n]);
    let (_, segs) = segments(pwl, problem.samples());
    for (k, &seg) in segs.iter().enumerate() {
        let (x, fx) = (problem.sample(k), problem.target(k));
        let s = seg as usize;
        if s == 0 {
            diag[0] += 1.0;
            rhs[0] += fx - ml * (x - p[0]);
        } else if s == n {
            diag[n - 1] += 1.0;
            rhs[n - 1] += fx - mr * (x - p[n - 1]);
        } else {
            let (i0, i1) = (s - 1, s);
            let t = (x - p[i0]) / (p[i1] - p[i0]);
            let (h0, h1) = (1.0 - t, t);
            diag[i0] += h0 * h0;
            diag[i1] += h1 * h1;
            off[i0] += h0 * h1;
            rhs[i0] += h0 * fx;
            rhs[i1] += h1 * fx;
        }
    }
    let ridge = 1e-9 * (m as f64 / n as f64);
    for i in 0..n {
        if diag[i] == 0.0 {
            diag[i] = 1.0;
            rhs[i] = pwl.values()[i];
        } else {
            diag[i] += ridge;
        }
    }
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
    let (mut c, mut d) = (vec![0.0; n - 1], vec![0.0; n]);
    c[0] = off[0] / diag[0];
    d[0] = rhs[0] / diag[0];
    for i in 1..n {
        let denom = diag[i] - off[i - 1] * c[i - 1];
        if i < n - 1 {
            c[i] = off[i] / denom;
        }
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom;
    }
    let mut v = vec![0.0; n];
    v[n - 1] = d[n - 1];
    for i in (0..n - 1).rev() {
        v[i] = d[i] - c[i] * v[i + 1];
    }
    if v.iter().any(|x| !x.is_finite()) {
        return pwl.clone();
    }
    PwlFunction::new(p.to_vec(), v, ml, mr).unwrap()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn table(f: &dyn Activation, ps: Vec<f64>) -> PwlFunction {
    let vs = ps
        .iter()
        .map(|&p| f.eval(p) + 0.01 * (p * 3.0).sin())
        .collect();
    PwlFunction::new(ps, vs, 0.05, 0.9).unwrap()
}

/// Minimum-gap projection over `[-8, 8]`, as the optimizer applies it.
fn squeezed(mut ps: Vec<f64>) -> Vec<f64> {
    let gap = 16.0 * 1e-5;
    for i in 1..ps.len() {
        if ps[i] < ps[i - 1] + gap {
            ps[i] = ps[i - 1] + gap;
        }
    }
    ps
}

/// Tables against a 4096-point grid over [-8, 8]: n = 2, 3, 64;
/// breakpoints exactly on grid samples; every sample left of p₀ or right
/// of p_{n-1} (one segment then holds no sample at all); and clusters
/// squeezed to the optimizer's minimum gap.
fn cases(f: &dyn Activation, problem: &SampledProblem) -> Vec<(&'static str, PwlFunction)> {
    let on_grid: Vec<f64> = (0..31).map(|i| problem.sample(7 + 131 * i)).collect();
    let n64: Vec<f64> = (0..64)
        .map(|i| {
            let u = i as f64 / 63.0 * 2.0 - 1.0;
            7.5 * u * u.abs().sqrt()
        })
        .collect();
    let mut triplets: Vec<f64> = (0..28).map(|i| -8.0 + 16.0 * i as f64 / 27.0).collect();
    triplets.extend([-2.8791, -2.8791, -2.8791, 0.3, 0.3, 0.3]);
    triplets.sort_by(f64::total_cmp);
    let mut cluster: Vec<f64> = (0..12).map(|i| -7.0 + 14.0 * i as f64 / 11.0).collect();
    cluster.extend([0.5; 20]);
    cluster.sort_by(f64::total_cmp);
    vec![
        ("n=2", table(f, vec![-1.0, 1.0])),
        ("n=3", table(f, vec![-2.0, 0.0, 3.0])),
        ("n=64", table(f, n64)),
        ("on grid", table(f, on_grid)),
        ("all left of p0", table(f, vec![8.5, 9.0, 10.0])),
        ("all right of pn", table(f, vec![-10.0, -9.0, -8.0])),
        ("triplets", table(f, squeezed(triplets))),
        ("cluster", table(f, squeezed(cluster))),
    ]
}

#[test]
fn sweeps_are_bit_identical_to_segments_into_reference() {
    for f in [&Gelu as &dyn Activation, &Tanh] {
        let problem = SampledProblem::new(f, -8.0, 8.0, 4096);
        let specs = [
            ("free", BoundarySpec::free()),
            ("tied", BoundarySpec::from_activation(f)),
        ];
        let mut ws = GradWorkspace::new();
        for (cname, pwl) in cases(f, &problem) {
            let label = format!("{}/{cname}", f.name());
            assert_eq!(
                problem.loss(&pwl).to_bits(),
                ref_loss(&problem, &pwl).to_bits(),
                "{label}: loss"
            );
            for (sname, spec) in &specs {
                let (want_loss, want) = ref_loss_and_grad(&problem, &pwl, spec);
                let loss = problem.loss_and_grad_compiled(&pwl, spec, &mut ws);
                let got = ws.gradient();
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{label}/{sname}: loss");
                assert_eq!(
                    bits(&got.d_breakpoints),
                    bits(&want.d_breakpoints),
                    "{label}/{sname}: d_breakpoints"
                );
                assert_eq!(
                    bits(&got.d_values),
                    bits(&want.d_values),
                    "{label}/{sname}: d_values"
                );
                assert_eq!(
                    [got.d_left_slope.to_bits(), got.d_right_slope.to_bits()],
                    [want.d_left_slope.to_bits(), want.d_right_slope.to_bits()],
                    "{label}/{sname}: boundary slopes"
                );

                let got = refit_values(&pwl, &problem, spec);
                let want = ref_refit(&pwl, &problem, spec);
                assert_eq!(
                    bits(got.breakpoints()),
                    bits(want.breakpoints()),
                    "{label}/{sname}: refit breakpoints"
                );
                assert_eq!(
                    bits(got.values()),
                    bits(want.values()),
                    "{label}/{sname}: refit values"
                );
                assert_eq!(
                    [got.left_slope().to_bits(), got.right_slope().to_bits()],
                    [want.left_slope().to_bits(), want.right_slope().to_bits()],
                    "{label}/{sname}: refit slopes"
                );
            }
        }
    }
}
