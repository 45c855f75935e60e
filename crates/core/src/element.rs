//! Precision genericity: the sealed [`Element`] trait.
//!
//! The paper's SFU runs one interpolation datapath over several data
//! formats. This crate mirrors that with one compiled engine per
//! precision — [`CompiledPwl`] for f64, [`CompiledPwlF32`] for f32 —
//! whose SIMD kernels and table builds are hand-specialised, because
//! that is where the speed is. Everything *around* the kernels (the
//! threaded fan-out, the scatter copy-out, and in the downstream crates
//! the backend programs, the serving lane and the wire tickets) is
//! written once over `T: Element` and instantiated for both.
//!
//! [`Element`] maps a precision to its engine and [`CompiledEngine`]
//! maps back, so `ParallelPwl::new(CompiledPwl::from_pwl(&pwl))` infers
//! the precision from the engine it is given. Both traits are sealed:
//! only `f64` and `f32` (and their engines) implement them.

use crate::engine::{CompiledPwl, PwlEvaluator, CHUNK};
use crate::engine_f32::CompiledPwlF32;
use std::fmt::Debug;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
    impl Sealed for crate::CompiledPwl {}
    impl Sealed for crate::CompiledPwlF32 {}
}

/// A sample precision the engine serves: `f64` or `f32`.
///
/// `Into<f64>` is exact for both, which lets precision-blind consumers
/// (the serving tier's input histograms) widen samples without a second
/// code path.
pub trait Element: sealed::Sealed + Copy + Default + Into<f64> + Send + Sync + 'static {
    /// This precision's compiled single-threaded engine.
    type Engine: CompiledEngine<Elem = Self>;

    /// Scalar evaluation on `engine`.
    fn eval_one(engine: &Self::Engine, x: Self) -> Self;

    /// Batch evaluation on `engine` through its SIMD kernels.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    fn eval_into(engine: &Self::Engine, xs: &[Self], out: &mut [Self]);
}

/// A compiled engine, naming the precision it evaluates — the inverse
/// of [`Element::Engine`].
pub trait CompiledEngine: sealed::Sealed + Clone + Debug + Send + Sync + 'static {
    /// The sample precision this engine evaluates.
    type Elem: Element<Engine = Self>;
}

impl Element for f64 {
    type Engine = CompiledPwl;

    fn eval_one(engine: &CompiledPwl, x: f64) -> f64 {
        engine.eval_one(x)
    }

    fn eval_into(engine: &CompiledPwl, xs: &[f64], out: &mut [f64]) {
        PwlEvaluator::eval_into(engine, xs, out);
    }
}

impl Element for f32 {
    type Engine = CompiledPwlF32;

    fn eval_one(engine: &CompiledPwlF32, x: f32) -> f32 {
        engine.eval_one(x)
    }

    fn eval_into(engine: &CompiledPwlF32, xs: &[f32], out: &mut [f32]) {
        engine.eval_into(xs, out);
    }
}

impl CompiledEngine for CompiledPwl {
    type Elem = f64;
}

impl CompiledEngine for CompiledPwlF32 {
    type Elem = f32;
}

/// The scatter copy-out behind both engines' `eval_scatter_into`:
/// evaluates the packed input chunk by chunk through the SIMD kernels
/// and copies each chunk's results into the output slices in order.
///
/// # Panics
///
/// Panics if the output lengths do not sum to `xs.len()`.
pub(crate) fn scatter_into<T: Element>(engine: &T::Engine, xs: &[T], outs: &mut [&mut [T]]) {
    let total: usize = outs.iter().map(|o| o.len()).sum();
    assert_eq!(xs.len(), total, "output slices must partition the input");
    let mut scratch = vec![T::default(); xs.len().min(CHUNK)];
    let mut job = 0usize; // output slice currently being filled
    let mut filled = 0usize; // elements of outs[job] already written
    for xc in xs.chunks(CHUNK) {
        let sc = &mut scratch[..xc.len()];
        T::eval_into(engine, xc, sc);
        let mut off = 0;
        while off < sc.len() {
            while outs[job].len() == filled {
                job += 1;
                filled = 0;
            }
            let take = (outs[job].len() - filled).min(sc.len() - off);
            outs[job][filled..filled + take].copy_from_slice(&sc[off..off + take]);
            filled += take;
            off += take;
        }
    }
}

/// Precision-generic test bodies for the fan-out splitter, run for both
/// precisions from the `engine` and `engine_f32` test modules.
#[cfg(test)]
pub(crate) mod splitter_tests {
    use super::*;
    use crate::engine::PARALLEL_MIN_ELEMENTS;
    use crate::{ParallelPwl, PwlFunction};

    /// Test-only construction hooks the sealed trait does not offer.
    pub(crate) trait Lane: Element {
        fn compile(pwl: &PwlFunction) -> Self::Engine;
        fn from_f64(x: f64) -> Self;
        fn bits(self) -> u64;
    }

    impl Lane for f64 {
        fn compile(pwl: &PwlFunction) -> CompiledPwl {
            CompiledPwl::from_pwl(pwl)
        }
        fn from_f64(x: f64) -> f64 {
            x
        }
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    impl Lane for f32 {
        fn compile(pwl: &PwlFunction) -> CompiledPwlF32 {
            CompiledPwlF32::from_pwl(pwl)
        }
        fn from_f64(x: f64) -> f32 {
            x as f32
        }
        fn bits(self) -> u64 {
            u64::from(self.to_bits())
        }
    }

    fn engine<T: Lane>() -> T::Engine {
        let pwl = PwlFunction::new(
            vec![-2.0, -1.0, 0.5, 2.0],
            vec![0.3, -0.7, 1.1, 0.9],
            0.25,
            -0.5,
        )
        .unwrap();
        T::compile(&pwl)
    }

    fn grid<T: Lane>(n: usize) -> Vec<T> {
        (0..n)
            .map(|k| T::from_f64(-6.0 + 12.0 * k as f64 / (n - 1) as f64))
            .collect()
    }

    /// Scatters `xs` through a 4-thread fan-out into jobs of `sizes`
    /// and checks the bits against one contiguous serial evaluation.
    fn assert_parallel_scatter_matches<T: Lane>(sizes: &[usize]) {
        let c = engine::<T>();
        let n = sizes.iter().sum();
        let xs = grid::<T>(n);
        let mut want = vec![T::default(); n];
        T::eval_into(&c, &xs, &mut want);
        let mut bufs: Vec<Vec<T>> = sizes.iter().map(|&s| vec![T::default(); s]).collect();
        let mut views: Vec<&mut [T]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        ParallelPwl::with_threads(c, 4).eval_scatter_into(&xs, &mut views);
        let flat: Vec<T> = bufs.concat();
        for (i, (&w, &got)) in want.iter().zip(&flat).enumerate() {
            assert_eq!(got.bits(), w.bits(), "parallel scatter at {i}");
        }
    }

    /// Above the parallel threshold, with one oversized job that must
    /// become a run of its own — and a lone job, whose single run the
    /// calling thread evaluates itself.
    pub(crate) fn splits_at_job_boundaries<T: Lane>() {
        let n = PARALLEL_MIN_ELEMENTS * 2;
        assert_parallel_scatter_matches::<T>(&[300, n - 1000, 0, 700]);
        assert_parallel_scatter_matches::<T>(&[PARALLEL_MIN_ELEMENTS + 1]);
    }

    /// 7 jobs, each just over half the per-thread share: the greedy
    /// splitter would otherwise make 7 single-job runs on a 4-thread
    /// engine; the cap folds the tail into the final run. Results must
    /// be unchanged.
    pub(crate) fn caps_runs_at_thread_count<T: Lane>() {
        let job = (PARALLEL_MIN_ELEMENTS * 2).div_ceil(7) + 1;
        assert_parallel_scatter_matches::<T>(&[job; 7]);
    }

    /// No input at all, into no outputs and into two empty outputs.
    pub(crate) fn accepts_empty_input_and_outputs<T: Lane>() {
        let c = engine::<T>();
        let mut views: Vec<&mut [T]> = Vec::new();
        scatter_into::<T>(&c, &[], &mut views);
        let mut a: Vec<T> = Vec::new();
        let mut b: Vec<T> = Vec::new();
        let mut views = [a.as_mut_slice(), b.as_mut_slice()];
        scatter_into::<T>(&c, &[], &mut views);
        ParallelPwl::with_threads(c, 4).eval_scatter_into(&[], &mut views);
    }
}
