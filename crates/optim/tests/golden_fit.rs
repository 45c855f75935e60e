//! Golden pins of the fitter's output: step and round counts plus FNV-1a
//! digests of the fitted breakpoints and values, for the full pipeline
//! (`optimize` with the quick preset) and for `quick_nonuniform`, on the
//! four activations the benchmark fits.
//!
//! The loss, gradient, refit and integral sweeps are all specified to be
//! bit-identical across evaluation strategies, so a faster fitter must
//! reproduce these tables exactly. Any change to one digest means some
//! sweep changed its arithmetic, and every fitted table downstream (the
//! paper metrics included) moved with it.

use flexsfu_funcs::{Activation, Gelu, Sigmoid, Silu, Tanh};
use flexsfu_optim::{optimize, quick_nonuniform, OptimizeConfig};

/// FNV-1a over the little-endian bits of every value.
fn fnv1a(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn funcs() -> [&'static dyn Activation; 4] {
    [&Gelu, &Silu, &Tanh, &Sigmoid]
}

#[test]
fn optimize_quick_tables_are_pinned() {
    // (steps, rounds, breakpoint digest, value digest)
    let want: [(usize, usize, u64, u64); 4] = [
        (750, 2, 0x0243_3895_531d_c3fc, 0x0608_4ea0_d150_4d2b),
        (750, 2, 0x1466_2954_3bfc_e179, 0x880f_66d6_dcb3_ab36),
        (750, 2, 0x2708_46ad_c4a3_73d2, 0x1dce_1c37_9cd1_e709),
        (750, 2, 0xa27c_0746_449d_d179, 0x8ee5_c37f_65b9_716e),
    ];
    for (f, want) in funcs().into_iter().zip(want) {
        let r = optimize(f, OptimizeConfig::quick(31));
        let got = (
            r.steps,
            r.rounds,
            fnv1a(r.pwl.breakpoints()),
            fnv1a(r.pwl.values()),
        );
        assert_eq!(got, want, "{}: (steps, rounds, bp, v) moved", f.name());
    }
}

#[test]
fn quick_nonuniform_tables_are_pinned() {
    // (breakpoint digest, value digest)
    let want: [(u64, u64); 4] = [
        (0x1d9e_2830_993e_81b3, 0xfd79_8082_307c_c463),
        (0xe79e_57eb_402d_6333, 0xc68a_a4cf_292d_2dbe),
        (0x6cc2_7cd4_2dbf_7ffd, 0x023d_9b8f_6737_2dbc),
        (0x2157_6159_acf6_c4fd, 0x6fcd_fff6_9adc_dc57),
    ];
    for (f, want) in funcs().into_iter().zip(want) {
        let q = quick_nonuniform(f, 31, f.default_range(), 1024, 4);
        let got = (fnv1a(q.breakpoints()), fnv1a(q.values()));
        assert_eq!(got, want, "{}: (bp, v) moved", f.name());
    }
}
