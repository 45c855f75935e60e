//! The identity lowering: the engine's own SIMD lane kernels as a
//! backend.

use crate::{BackendProgram, BackendProgramF32, EvalBackend, FlushStats, LowerError};
use flexsfu_core::{CompiledPwl, CompiledPwlF32, Element, ParallelPwl};
use std::sync::Arc;

/// The native backend: lowering is a no-op re-wrap of the engine, and
/// evaluation runs the runtime-dispatched SIMD lane kernels (threaded
/// above the [`ParallelPwl`] crossover). Results are bit-identical to
/// scalar f64 [`flexsfu_core::PwlFunction::eval`] — this backend *is*
/// the reference the others are measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl NativeBackend {
    /// Creates the native backend (stateless).
    pub fn new() -> Self {
        Self
    }
}

impl EvalBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn lower(&self, engine: &CompiledPwl) -> Result<Arc<dyn BackendProgram>, LowerError> {
        Ok(Arc::new(NativeProgram::from_engine(Arc::new(
            ParallelPwl::new(engine.clone()),
        ))))
    }

    fn lower_f32(&self, engine: &CompiledPwlF32) -> Option<Arc<dyn BackendProgramF32>> {
        Some(Arc::new(NativeProgram::from_engine(Arc::new(
            ParallelPwl::new(engine.clone()),
        ))))
    }
}

/// A lowered native program in precision `T`: a shared
/// [`ParallelPwl<T>`]. `NativeProgram` is the f64 program and
/// `NativeProgram<f32>` the identity f32 lowering — the eight-wide f32
/// lane kernels with no f64 round-trip anywhere. Each flush reports its
/// element count (`hw: None`: no hardware cost model applies).
#[derive(Debug, Clone)]
pub struct NativeProgram<T: Element = f64> {
    engine: Arc<ParallelPwl<T>>,
}

impl<T: Element> NativeProgram<T> {
    /// Wraps an engine a caller already holds, without re-compiling —
    /// for embedders that want the program and their own engine handle
    /// to share one allocation.
    pub fn from_engine(engine: Arc<ParallelPwl<T>>) -> Self {
        Self { engine }
    }

    /// The wrapped threaded engine.
    pub fn engine(&self) -> &Arc<ParallelPwl<T>> {
        &self.engine
    }
}

impl<T: Element> BackendProgram<T> for NativeProgram<T> {
    fn backend_name(&self) -> &'static str {
        "native"
    }

    fn eval_scatter_into(&self, xs: &[T], outs: &mut [&mut [T]]) -> FlushStats {
        self.engine.eval_scatter_into(xs, outs);
        FlushStats {
            elems: xs.len(),
            hw: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_core::init::uniform_pwl;
    use flexsfu_core::PwlEvaluator;
    use flexsfu_funcs::Gelu;

    #[test]
    fn native_program_is_bit_identical_to_the_engine() {
        let pwl = uniform_pwl(&Gelu, 15, (-8.0, 8.0));
        let engine = pwl.compile();
        let program = NativeBackend::new().lower(&engine).unwrap();
        assert_eq!(program.backend_name(), "native");
        let xs: Vec<f64> = (0..500).map(|i| i as f64 * 0.04 - 10.0).collect();
        let (got, stats) = program.eval_batch(&xs);
        assert_eq!(stats.elems, xs.len());
        assert!(stats.hw.is_none(), "native has no hardware cost model");
        for (g, w) in got.iter().zip(engine.eval_batch(&xs)) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn native_scatter_partitions_like_the_engine() {
        let engine = uniform_pwl(&Gelu, 7, (-8.0, 8.0)).compile();
        let program = NativeBackend::new().lower(&engine).unwrap();
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1 - 5.0).collect();
        let want = engine.eval_batch(&xs);
        let mut a = vec![0.0; 30];
        let mut b = vec![0.0; 0];
        let mut c = vec![0.0; 70];
        let stats = program.eval_scatter_into(
            &xs,
            &mut [a.as_mut_slice(), b.as_mut_slice(), c.as_mut_slice()],
        );
        assert_eq!(stats.elems, 100);
        let flat: Vec<f64> = a.into_iter().chain(b).chain(c).collect();
        for (g, w) in flat.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn native_f32_program_is_bit_identical_to_the_f32_engine() {
        let pwl = uniform_pwl(&Gelu, 15, (-8.0, 8.0));
        let engine = CompiledPwlF32::from_pwl(&pwl);
        let program = NativeBackend::new()
            .lower_f32(&engine)
            .expect("native has an f32 lane");
        assert_eq!(program.backend_name(), "native");
        let xs: Vec<f32> = (0..500).map(|i| i as f32 * 0.04 - 10.0).collect();
        let (got, stats) = program.eval_batch(&xs);
        assert_eq!(stats.elems, xs.len());
        assert!(stats.hw.is_none(), "native has no hardware cost model");
        for (g, w) in got.iter().zip(engine.eval_batch(&xs)) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn native_f32_scatter_partitions_like_the_engine() {
        let engine = CompiledPwlF32::from_pwl(&uniform_pwl(&Gelu, 7, (-8.0, 8.0)));
        let program = NativeBackend::new().lower_f32(&engine).unwrap();
        let xs: Vec<f32> = (0..100).map(|i| i as f32 * 0.1 - 5.0).collect();
        let want = engine.eval_batch(&xs);
        let mut a = vec![0.0f32; 30];
        let mut b = vec![0.0f32; 0];
        let mut c = vec![0.0f32; 70];
        let stats = program.eval_scatter_into(
            &xs,
            &mut [a.as_mut_slice(), b.as_mut_slice(), c.as_mut_slice()],
        );
        assert_eq!(stats.elems, 100);
        let flat: Vec<f32> = a.into_iter().chain(b).chain(c).collect();
        for (g, w) in flat.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn sfu_backend_has_no_f32_lane() {
        let engine = CompiledPwlF32::from_pwl(&uniform_pwl(&Gelu, 7, (-8.0, 8.0)));
        assert!(crate::SfuBackend::fp16(16).lower_f32(&engine).is_none());
    }
}
