//! Backend parity battery: the SFU emulation backend against the scalar
//! f64 reference, for every built-in activation and across number
//! formats.
//!
//! Three layers of pinning:
//!
//! 1. **Declared ULP budgets** — for every function in the
//!    `flexsfu-funcs` registry, the FP16 emulator's error against scalar
//!    f64 `PwlFunction::eval` stays within a per-function budget
//!    declared in [`FP16_ULP_BUDGETS`] (units: FP16 ULPs at base 1, the
//!    paper's Figure 5 yardstick). The program's *computed* sound bound
//!    ([`SfuProgram::abs_error_bound`]) must also sit under the declared
//!    budget, so the budget documents a guarantee, not a measurement.
//! 2. **Bit-faithful fixed-point lowering** — a proptest drives random
//!    functions (saturating breakpoints, denormal-range slopes) and
//!    adversarial inputs (NaN, ±∞, saturating magnitudes, exact
//!    breakpoints) through the emulator and demands **bit equality**
//!    with an independent reference built only from `flexsfu-formats`
//!    rounding primitives (encode/decode/compare-key), i.e. the
//!    datapath spec rather than the `hw` crate's implementation.
//! 3. **Cost-model sanity** — every flush reports cycles > 0 and
//!    positive energy.
//! 4. **In-place evaluation** — `BackendProgram::eval_in_place`, the
//!    serving tier's path for a flush of one job, returns the outputs
//!    and the `FlushStats` of `eval_batch` on the same input, on the
//!    emulator's default implementation and the native override.

use flexsfu_backend::{BackendProgram, EvalBackend, LowerError, NativeBackend, SfuBackend};
use flexsfu_core::init::uniform_pwl;
use flexsfu_core::PwlFunction;
use flexsfu_formats::ulp::{self, F16_ULP_AT_1};
use flexsfu_formats::FloatFormat;
use flexsfu_formats::{DataFormat, FixedFormat};
use flexsfu_funcs::all_standard;
use flexsfu_hw::FlexSfuConfig;
use proptest::prelude::*;

/// Breakpoints per function: 31 → 32 segments, the paper's deep-table
/// configuration.
const BREAKPOINTS: usize = 31;

/// Declared FP16 error budgets per registry function, in **FP16 ULPs at
/// base 1** (`2⁻¹⁰`): the emulated datapath — input, breakpoint and
/// coefficient quantization plus one output rounding — stays within this
/// of scalar f64 evaluation of the same table over the function's
/// default range. The numbers cover the *computed sound bound*, not just
/// what a grid measured, so they hold for every input in range.
const FP16_ULP_BUDGETS: &[(&str, f64)] = &[
    ("relu", 32.0),
    ("leaky_relu", 32.0),
    ("elu", 34.0),
    ("sigmoid", 9.0),
    ("tanh", 29.0),
    ("softplus", 34.0),
    ("gelu", 39.0),
    ("silu", 38.0),
    ("mish", 37.0),
    ("hardswish", 44.0),
    ("hardsigmoid", 6.0),
    ("relu6", 34.0),
];

fn declared_budget(name: &str) -> f64 {
    FP16_ULP_BUDGETS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no declared budget for {name}"))
        .1
}

/// Dense grid over `[lo, hi]` plus every breakpoint exactly and a step
/// on either side of each.
fn parity_inputs(pwl: &PwlFunction, lo: f64, hi: f64) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..4001)
        .map(|k| lo + (hi - lo) * k as f64 / 4000.0)
        .collect();
    for &p in pwl.breakpoints() {
        xs.extend([p, p - 1e-4, p + 1e-4]);
    }
    xs
}

#[test]
fn every_registry_function_within_declared_fp16_ulp_budget() {
    let backend = SfuBackend::fp16(32);
    for f in all_standard() {
        let (lo, hi) = f.default_range();
        let pwl = uniform_pwl(f.as_ref(), BREAKPOINTS, (lo, hi));
        let program = backend
            .lower_program(&pwl.compile())
            .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", f.name()));

        // The declared budget covers the computed sound bound.
        let bound = program.abs_error_bound(lo, hi);
        let budget = declared_budget(f.name());
        assert!(
            bound <= budget * F16_ULP_AT_1,
            "{}: computed bound {:.2} ulp@1 exceeds declared budget {budget}",
            f.name(),
            bound / F16_ULP_AT_1
        );

        // And the measured error respects both on a dense grid.
        let xs = parity_inputs(&pwl, lo, hi);
        let (ys, stats) = program.eval_batch(&xs);
        let hw = stats.hw.expect("sfu backend reports hardware costs");
        assert!(hw.cycles > 0 && hw.energy_nj > 0.0, "{}", f.name());
        let mut max_ulps = 0.0f64;
        for (&x, &y) in xs.iter().zip(&ys) {
            let exact = pwl.eval(x);
            let err = (y - exact).abs();
            assert!(
                err <= bound,
                "{} at {x}: err {err:.3e} above sound bound {bound:.3e}",
                f.name()
            );
            max_ulps = max_ulps.max(ulp::error_in_ulps_at(y, exact, FloatFormat::FP16, 1.0));
        }
        assert!(
            max_ulps <= budget,
            "{}: measured {max_ulps:.2} ulp@1 above budget {budget}",
            f.name()
        );
        println!(
            "{:12}  bound {:6.2} ulp@1   measured {:6.2} ulp@1   budget {budget}",
            f.name(),
            bound / F16_ULP_AT_1,
            max_ulps
        );
    }
}

/// `eval_in_place` on `program` must equal `eval_batch` bit for bit,
/// with the same `FlushStats`.
fn assert_in_place_matches_batch<T, P>(program: &P, xs: &[T], bits: fn(T) -> u64, label: &str)
where
    T: flexsfu_core::Element,
    P: BackendProgram<T> + ?Sized,
{
    let (want, want_stats) = program.eval_batch(xs);
    let mut got = xs.to_vec();
    let stats = program.eval_in_place(&mut got);
    assert_eq!(stats, want_stats, "{label}: flush stats");
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(bits(g), bits(w), "{label}: element {i}");
    }
}

#[test]
fn eval_in_place_matches_eval_batch_outputs_and_stats() {
    for f in all_standard() {
        let (lo, hi) = f.default_range();
        let pwl = uniform_pwl(f.as_ref(), BREAKPOINTS, (lo, hi));
        let engine = pwl.compile();
        let mut xs = parity_inputs(&pwl, lo, hi);
        xs.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e9]);

        let sfu = SfuBackend::fp16(32).lower(&engine).unwrap();
        assert_in_place_matches_batch(sfu.as_ref(), &xs, f64::to_bits, f.name());
        assert_in_place_matches_batch(sfu.as_ref(), &[], f64::to_bits, f.name());

        let native = NativeBackend::new().lower(&engine).unwrap();
        assert_in_place_matches_batch(native.as_ref(), &xs, f64::to_bits, f.name());
        let native32 = NativeBackend::new()
            .lower_f32(&flexsfu_core::CompiledPwlF32::from_pwl(&pwl))
            .unwrap();
        let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
        let bits32 = |x: f32| u64::from(x.to_bits());
        assert_in_place_matches_batch(native32.as_ref(), &xs32, bits32, f.name());
    }
}

#[test]
fn fixed_point_backend_stays_within_its_own_bound_for_every_function() {
    // Q6.9: enough integer headroom for every registry function's
    // intercepts (|q| ≤ |v| + |m|·|p| ≲ 20 on the default ranges).
    let fmt = DataFormat::Fixed(FixedFormat::new(16, 9));
    let backend = SfuBackend::new(FlexSfuConfig::new(32, 1), fmt);
    for f in all_standard() {
        let (lo, hi) = f.default_range();
        let pwl = uniform_pwl(f.as_ref(), BREAKPOINTS, (lo, hi));
        let program = backend
            .lower_program(&pwl.compile())
            .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", f.name()));
        let bound = program.abs_error_bound(lo, hi);
        for x in parity_inputs(&pwl, lo, hi) {
            let err = (program.eval_one(x) - pwl.eval(x)).abs();
            assert!(
                err <= bound,
                "{} at {x}: err {err:.3e} above bound {bound:.3e}",
                f.name()
            );
        }
    }
}

/// The datapath reference built from `flexsfu-formats` primitives only:
/// quantized breakpoints padded with the format maximum, LTC rows
/// (quantized on load, last row replicated), ADU comparison on monotone
/// keys, MADD on dequantized operands, one output rounding.
struct FormatsReference {
    fmt: DataFormat,
    /// Quantized breakpoints padded to `depth − 1` entries.
    qbps_padded: Vec<f64>,
    /// Quantized `(m, q)` rows replicated to `depth` entries.
    rows: Vec<(f64, f64)>,
}

impl FormatsReference {
    fn build(pwl: &PwlFunction, fmt: DataFormat, depth: usize) -> Self {
        let table = pwl.compile().to_coeff_table();
        let mut qbps_padded: Vec<f64> =
            pwl.breakpoints().iter().map(|&p| fmt.quantize(p)).collect();
        while qbps_padded.len() < depth - 1 {
            qbps_padded.push(fmt.max_value());
        }
        let rows: Vec<(f64, f64)> = (0..depth)
            .map(|row| {
                let src = row.min(table.len() - 1);
                (
                    fmt.quantize(table.slopes()[src]),
                    fmt.quantize(table.intercepts()[src]),
                )
            })
            .collect();
        Self {
            fmt,
            qbps_padded,
            rows,
        }
    }

    fn eval(&self, x: f64) -> f64 {
        let xpat = self.fmt.encode(x);
        let key = self.fmt.compare_key(xpat);
        let mut address = 0usize;
        for &b in &self.qbps_padded {
            if key > self.fmt.compare_key(self.fmt.encode(b)) {
                address += 1;
            }
        }
        let (m, q) = self.rows[address];
        let xq = self.fmt.decode(xpat);
        self.fmt.quantize(m * xq + q)
    }
}

/// Adversarial inputs for the bit-equality sweep.
fn adversarial_inputs(pwl: &PwlFunction, fmt: DataFormat) -> Vec<f64> {
    let mut xs = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        fmt.max_value(),
        fmt.min_value(),
        fmt.max_value() * 4.0, // saturates
        fmt.min_value() * 4.0,
    ];
    for &p in pwl.breakpoints() {
        xs.extend([p, p * (1.0 + 1e-9), p * (1.0 - 1e-9)]);
    }
    xs
}

proptest! {
    /// Fixed-point lowering edge cases: breakpoints pushed to (and past)
    /// the format's saturation point, slopes down in the denormal range
    /// of magnitudes, NaN and ±∞ inputs. Whenever lowering succeeds the
    /// emulator must be **bit-identical** to the formats-only reference;
    /// when it reports a breakpoint collision, the reference rounding
    /// must actually collide.
    #[test]
    fn prop_fixed_lowering_matches_formats_reference(
        seed in 0u64..1u64 << 48,
        frac in 1u8..15,
        bp_exp in -18i32..7,
        val_exp in -40i32..4,
        nbp in 2usize..8,
    ) {
        let fixed = FixedFormat::new(16, frac);
        let fmt = DataFormat::Fixed(fixed);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Strictly increasing breakpoints at magnitude 2^bp_exp —
        // saturating past the format's range for large exponents,
        // collapsing below its resolution for small ones.
        let step = (bp_exp as f64).exp2();
        let mut p = Vec::with_capacity(nbp);
        let mut acc = -(nbp as f64) / 2.0 * step;
        for _ in 0..nbp {
            acc += step * (1.0 + (next() % 8) as f64 / 4.0);
            p.push(acc);
        }
        // Values at magnitude 2^val_exp: denormal-range slopes when tiny.
        let vstep = (val_exp as f64).exp2();
        let v: Vec<f64> = (0..nbp)
            .map(|_| ((next() % 2001) as f64 / 1000.0 - 1.0) * vstep)
            .collect();
        let ml = ((next() % 2001) as f64 / 1000.0 - 1.0) * vstep;
        let mr = ((next() % 2001) as f64 / 1000.0 - 1.0) * vstep;
        let Ok(pwl) = PwlFunction::new(p.clone(), v, ml, mr) else {
            // Accumulated float steps can collapse; not the case under test.
            prop_assume!(false);
            unreachable!()
        };

        let backend = SfuBackend::new(FlexSfuConfig::new(8, 1), fmt);
        match backend.lower_program(&pwl.compile()) {
            Err(LowerError::BreakpointCollision) => {
                let qb: Vec<f64> = p.iter().map(|&b| fmt.quantize(b)).collect();
                prop_assert!(
                    qb.windows(2).any(|w| w[0] >= w[1]),
                    "collision reported but reference rounding keeps breakpoints distinct"
                );
            }
            Err(e) => panic!("unexpected lowering failure: {e}"),
            Ok(program) => {
                let reference = FormatsReference::build(&pwl, fmt, 8);
                for x in adversarial_inputs(&pwl, fmt) {
                    prop_assert_eq!(
                        program.eval_one(x).to_bits(),
                        reference.eval(x).to_bits(),
                        "input {} (bp_exp {}, val_exp {}, frac {})",
                        x, bp_exp, val_exp, frac
                    );
                }
                // A handful of random in-and-out-of-range points too.
                for _ in 0..16 {
                    let x = ((next() % 4001) as f64 / 1000.0 - 2.0)
                        * fixed.max_value();
                    prop_assert_eq!(
                        program.eval_one(x).to_bits(),
                        reference.eval(x).to_bits(),
                        "random input {}", x
                    );
                }
            }
        }
    }
}

#[test]
fn nan_and_saturation_semantics_match_the_format_family() {
    let pwl = uniform_pwl(all_standard()[6].as_ref(), 15, (-8.0, 8.0)); // gelu
    let engine = pwl.compile();

    // Float family: NaN propagates through the whole datapath.
    let fp16 = SfuBackend::fp16(16).lower_program(&engine).unwrap();
    assert!(fp16.eval_one(f64::NAN).is_nan(), "fp16 NaN must propagate");

    // Fixed family: NaN encodes to code 0 (the quantizer's convention),
    // so it evaluates like quantized zero — deterministic, not NaN.
    let fmt = DataFormat::Fixed(FixedFormat::new(16, 9));
    let fixed = SfuBackend::new(FlexSfuConfig::new(16, 1), fmt)
        .lower_program(&engine)
        .unwrap();
    let at_nan = fixed.eval_one(f64::NAN);
    let at_zero = fixed.eval_one(0.0);
    assert!(!at_nan.is_nan());
    assert_eq!(at_nan.to_bits(), at_zero.to_bits());

    // Saturating inputs clamp to the format edge and land in the outer
    // segments, matching the reference.
    let reference = FormatsReference::build(&pwl, fmt, 16);
    for x in [1e9, -1e9, fmt.max_value() * 2.0, fmt.min_value() * 2.0] {
        assert_eq!(fixed.eval_one(x).to_bits(), reference.eval(x).to_bits());
    }
}
