#![cfg_attr(feature = "std-simd", feature(portable_simd))]
//! # flexsfu-core
//!
//! The non-uniform piecewise-linear (PWL) function machinery at the heart of
//! Flex-SFU (DAC 2023, Section IV).
//!
//! A [`PwlFunction`] is defined by `n` breakpoints `p₀ < … < p_{n-1}`, the
//! values `vᵢ = f̂(pᵢ)` at those breakpoints, and two boundary slopes
//! `ml`/`mr` for the half-open outer segments:
//!
//! ```text
//!          ⎧ ml·(x − p₀) + v₀                        x ≤ p₀
//! f̂(x) =  ⎨ vᵢ + (v_{i+1} − vᵢ)/(p_{i+1} − pᵢ)·(x − pᵢ)   pᵢ < x < p_{i+1}
//!          ⎩ mr·(x − p_{n-1}) + v_{n-1}              x ≥ p_{n-1}
//! ```
//!
//! The crate provides:
//!
//! * [`PwlFunction`] — validated construction, scalar/batch evaluation,
//!   binary-search segment lookup ([`pwl::Region`]),
//! * [`engine`] — the compiled batch-evaluation engine: [`CompiledPwl`]
//!   (structure-of-arrays form with precomputed slopes and branch-light
//!   lookup), the [`PwlEvaluator`] trait every consumer routes through,
//!   and the threaded [`ParallelPwl`],
//! * [`engine_f32`] — the single-precision fast path: [`CompiledPwlF32`]
//!   and [`ParallelPwlF32`], the same engine with f32 tables, eight-wide
//!   lanes and half the table bandwidth, bit-identical across its own
//!   scalar/batch/SIMD/scatter paths and within a declared ULP budget of
//!   the f64 reference,
//! * [`element`] — the sealed [`Element`] trait (`f64`, `f32`) naming
//!   each precision's compiled engine, over which [`ParallelPwl`] and
//!   the downstream serving, backend and wire lanes are written once
//!   ([`ParallelPwlF32`] is `ParallelPwl<f32>`),
//! * [`simd`] — the fixed-width lane types ([`simd::F64x4`],
//!   [`simd::F32x8`]) the engine's vectorized kernels are written
//!   against, with an AVX2 runtime-dispatch path and a nightly
//!   `std-simd` feature gate,
//! * [`CoeffTable`] — the `(mᵢ, qᵢ)` slope/intercept pairs stored in the
//!   hardware LTC, with an equivalence guarantee against direct evaluation,
//! * [`boundary`] — the paper's asymptotic boundary conditions,
//! * [`loss`] — integral MSE / MAE / AAE metrics and the sampled losses
//!   used during optimization,
//! * [`init`] — uniform and Chebyshev breakpoint initializers,
//! * [`quant`] — quantization of a PWL function through any
//!   [`flexsfu_formats::DataFormat`].
//!
//! # Examples
//!
//! ```
//! use flexsfu_core::init::uniform_pwl;
//! use flexsfu_core::loss::integral_mse;
//! use flexsfu_funcs::Gelu;
//!
//! // 16 uniformly spaced breakpoints on GELU's default range.
//! let pwl = uniform_pwl(&Gelu, 16, (-8.0, 8.0));
//! let mse = integral_mse(&pwl, &Gelu, -8.0, 8.0);
//! assert!(mse < 1e-3);
//! ```

pub mod boundary;
pub mod coeffs;
pub mod element;
pub mod engine;
pub mod engine_f32;
pub mod init;
pub mod loss;
pub mod pwl;
pub mod quant;
pub mod simd;

mod error;

pub use coeffs::CoeffTable;
pub use element::{CompiledEngine, Element};
pub use engine::{CompiledPwl, ParallelPwl, PwlEvaluator};
pub use engine_f32::{CompiledPwlF32, ParallelPwlF32};
pub use error::PwlError;
pub use pwl::{PwlFunction, Region};
