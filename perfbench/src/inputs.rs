//! Seeded workload inputs and the tables they are served through.
//!
//! Payloads, sizes, function choice and arrival times all come from
//! `flexsfu-traffic`'s [`simulate`], seeded from the command line's
//! `--seed`; the program under test only ever sees the generated
//! tensors. Everything here runs before any timer starts.

use crate::stats::digest;
use flexsfu_core::{CompiledPwl, CompiledPwlF32, PwlEvaluator, PwlFunction};
use flexsfu_funcs::{Activation, Gelu, Sigmoid, Silu, Tanh};
use flexsfu_traffic::{simulate, ArrivalProcess, FunctionLoad, InputSampler, WorkloadSpec};

/// A request tensor in the precision it is submitted in.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The f64 lane.
    F64(Vec<f64>),
    /// The f32 lane.
    F32(Vec<f32>),
}

impl Payload {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Self::F64(v) => v.len(),
            Self::F32(v) => v.len(),
        }
    }

    /// The tensor widened to f64 (for backends without an f32 lane).
    pub fn to_f64(&self) -> Vec<f64> {
        match self {
            Self::F64(v) => v.clone(),
            Self::F32(v) => v.iter().map(|&x| f64::from(x)).collect(),
        }
    }
}

/// One generated request: which table, and the tensor.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into the workload's table list (and its registry id).
    pub func: usize,
    /// The tensor.
    pub payload: Payload,
}

/// A shareable exact activation.
pub type Func = &'static (dyn Activation + Sync);

/// One activation and how its requests' payloads are distributed.
pub struct FuncSpec {
    /// The exact function.
    pub f: Func,
    /// Breakpoints of its table (segments = breakpoints + 1).
    pub breakpoints: usize,
    /// Pre-activation payload distribution, clamped into the table's
    /// breakpoint span.
    pub sampler: InputSampler,
}

fn bell(std: f64) -> InputSampler {
    InputSampler::Gaussian {
        mean: 0.0,
        std,
        clamp: (-8.0, 8.0),
    }
}

/// gelu, silu and tanh at 32 segments: the serving workloads' mix.
pub fn serving_funcs() -> Vec<FuncSpec> {
    vec![
        FuncSpec {
            f: &Gelu,
            breakpoints: 31,
            sampler: bell(2.0),
        },
        FuncSpec {
            f: &Silu,
            breakpoints: 31,
            sampler: bell(2.0),
        },
        FuncSpec {
            f: &Tanh,
            breakpoints: 31,
            sampler: bell(1.5),
        },
    ]
}

/// The fitter's functions, in `fit`'s order.
pub fn fit_funcs() -> [Func; 4] {
    [&Gelu, &Silu, &Tanh, &Sigmoid]
}

/// A fitted table with both compiled precisions — the oracle the
/// served results are compared against.
pub struct Table {
    /// The exact function.
    pub f: Func,
    /// The fitted table.
    pub pwl: PwlFunction,
    /// The f64 engine.
    pub engine: CompiledPwl,
    /// The f32 engine, converted from the f64 one as the serving
    /// registry does.
    pub engine32: CompiledPwlF32,
}

impl Table {
    /// Compiles `pwl` for `f`.
    pub fn new(f: Func, pwl: PwlFunction) -> Self {
        let engine = CompiledPwl::from_pwl(&pwl);
        let engine32 = CompiledPwlF32::from_compiled(&engine);
        Self {
            f,
            pwl,
            engine,
            engine32,
        }
    }

    /// Digest of the direct single-engine evaluation of `p`.
    pub fn expected_digest(&self, p: &Payload) -> u64 {
        match p {
            Payload::F64(xs) => digest(&self.engine.eval_batch(xs)),
            Payload::F32(xs) => digest(&self.engine32.eval_batch(xs)),
        }
    }
}

/// Fits each function's non-uniform table the quick way serving
/// deployments do: a least-squares refit of a uniform start plus a few
/// remove/insert escapes.
pub fn fit_tables(funcs: &[FuncSpec]) -> Vec<Table> {
    funcs
        .iter()
        .map(|s| {
            let pwl =
                flexsfu_optim::quick_nonuniform(s.f, s.breakpoints, s.f.default_range(), 1024, 4);
            Table::new(s.f, pwl)
        })
        .collect()
}

/// SplitMix64: the per-request precision coin, independent of the
/// simulator's stream.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` requests over `funcs` (equal weights), each `elems.0..=elems.1`
/// elements long, half of them (by a seeded coin) in f32.
pub fn requests(seed: u64, funcs: &[FuncSpec], elems: (u32, u32), count: usize) -> Vec<Request> {
    let spec = WorkloadSpec {
        seed,
        arrivals: ArrivalProcess::Poisson { rate_hz: 1e6 },
        functions: funcs
            .iter()
            .map(|s| FunctionLoad {
                name: s.f.name().to_string(),
                weight: 1.0,
                elems,
                sampler: s.sampler.clone(),
            })
            .collect(),
        shifts: Vec::new(),
    };
    let trace = simulate(&spec, u64::MAX, count);
    assert_eq!(trace.events.len(), count, "simulator stopped early");
    trace
        .events
        .into_iter()
        .enumerate()
        .map(|(i, e)| Request {
            func: e.func as usize,
            payload: if splitmix(seed ^ i as u64) & 1 == 1 {
                Payload::F32(e.payload.iter().map(|&x| x as f32).collect())
            } else {
                Payload::F64(e.payload)
            },
        })
        .collect()
}

/// Poisson arrival offsets (ns from the phase start) at `rate_hz` for
/// `seconds`.
pub fn poisson_schedule(seed: u64, rate_hz: f64, seconds: f64) -> Vec<u64> {
    let spec = WorkloadSpec {
        seed,
        arrivals: ArrivalProcess::Poisson { rate_hz },
        functions: vec![FunctionLoad {
            name: "tick".into(),
            weight: 1.0,
            elems: (1, 1),
            sampler: InputSampler::Uniform { lo: 0.0, hi: 1.0 },
        }],
        shifts: Vec::new(),
    };
    simulate(&spec, (seconds * 1e9) as u64, usize::MAX)
        .events
        .iter()
        .map(|e| e.at_ns)
        .collect()
}

/// Total elements across `reqs`.
pub fn total_elems(reqs: &[Request]) -> usize {
    reqs.iter().map(|r| r.payload.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let funcs = serving_funcs();
        let a = requests(7, &funcs, (64, 256), 50);
        let b = requests(7, &funcs, (64, 256), 50);
        let c = requests(8, &funcs, (64, 256), 50);
        let key = |r: &[Request]| -> Vec<(usize, u64)> {
            r.iter()
                .map(|q| {
                    let bits = match &q.payload {
                        Payload::F64(v) => digest(v),
                        Payload::F32(v) => digest(v),
                    };
                    (q.func, bits)
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        let f32s = a
            .iter()
            .filter(|r| matches!(r.payload, Payload::F32(_)))
            .count();
        assert!((10..=40).contains(&f32s), "{f32s} of 50 in f32");
        assert!(a.iter().all(|r| (64..=256).contains(&r.payload.len())));
        assert_eq!(
            poisson_schedule(3, 1000.0, 1.0),
            poisson_schedule(3, 1000.0, 1.0)
        );
    }
}
