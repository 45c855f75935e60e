//! In-memory layer probes: each times one layer's public entry point
//! alone, on the workload's own tensors and tables, so a workload's
//! traced run can say what its kernel, backend, frame codec and
//! gradient sweep cost without the layers above them.

use crate::inputs::{Payload, Request, Table};
use crate::stats::median;
use crate::Metrics;
use flexsfu_backend::{BackendProgram, BackendProgramF32, EvalBackend, NativeBackend};
use flexsfu_core::boundary::BoundarySpec;
use flexsfu_core::PwlEvaluator;
use flexsfu_optim::{GradWorkspace, SampledProblem};
use flexsfu_wire::{Frame, FrameReader};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Elements each timed probe pass covers at least (repeating the pool).
const PASS_ELEMS: usize = 1 << 21;
/// Timed passes per probe; the median is reported.
const PASSES: usize = 5;
/// The serving tier's default flush size: requests pack up to it.
const FLUSH_ELEMS: usize = 32_768;
/// Elements pushed through the (slow, per-element) SFU emulator.
const SFU_ELEMS: usize = 1 << 16;
/// The optimizer's default loss-grid size.
pub const GRID_SAMPLES: usize = 4096;

/// Runs every in-memory probe and records its metric. Probes use the
/// pool's leading requests, up to twice [`PASS_ELEMS`] elements.
pub fn run(tables: &[Table], reqs: &[Request], out: &mut Metrics) {
    let mut elems = 0;
    let n = reqs
        .iter()
        .take_while(|r| {
            elems += r.payload.len();
            elems <= 2 * PASS_ELEMS
        })
        .count();
    let reqs = &reqs[..n.max(1)];
    let (f64_ns, f32_ns) = core(tables, reqs);
    out.insert("core.f64_ns_per_elem", f64_ns);
    out.insert("core.f32_ns_per_elem", f32_ns);
    out.insert("backend.native_ns_per_elem", native(tables, reqs));
    out.insert("backend.sfu_ns_per_elem", sfu(tables, reqs));
    let codec = codec(tables, reqs);
    out.insert("wire.encode_ns", codec.encode_ns);
    out.insert("wire.decode_ns", codec.decode_ns);
    out.insert("wire.bytes_per_elem", codec.bytes_per_elem);
    out.insert("optim.grad_ns_per_sample", grad_ns_per_sample(&tables[0]));
}

/// How many times the pool must repeat for a pass of [`PASS_ELEMS`].
fn repeats(elems: usize) -> usize {
    PASS_ELEMS.div_ceil(elems.max(1))
}

/// Times `PASSES` runs of `pass` (after one warm-up run) and returns
/// the median ns per item, for a pass that handles `items` items.
fn ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    pass();
    let times = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(times)
}

/// One thread of `CompiledPwl::eval_into` and `CompiledPwlF32::eval_into`,
/// each over every pool tensor (narrowed or widened to its precision).
fn core(tables: &[Table], reqs: &[Request]) -> (f64, f64) {
    let xs64: Vec<Vec<f64>> = reqs.iter().map(|r| r.payload.to_f64()).collect();
    let xs32: Vec<Vec<f32>> = xs64
        .iter()
        .map(|v| v.iter().map(|&x| x as f32).collect())
        .collect();
    let max = xs64.iter().map(Vec::len).max().unwrap_or(0);
    let (mut out64, mut out32) = (vec![0.0f64; max], vec![0.0f32; max]);
    let elems = crate::inputs::total_elems(reqs);
    let reps = repeats(elems);
    let f64_ns = ns_per_item(elems * reps, || {
        for _ in 0..reps {
            for (r, xs) in reqs.iter().zip(&xs64) {
                tables[r.func].engine.eval_into(xs, &mut out64[..xs.len()]);
                black_box(&out64);
            }
        }
    });
    let f32_ns = ns_per_item(elems * reps, || {
        for _ in 0..reps {
            for (r, xs) in reqs.iter().zip(&xs32) {
                tables[r.func]
                    .engine32
                    .eval_into(xs, &mut out32[..xs.len()]);
                black_box(&out32);
            }
        }
    });
    (f64_ns, f32_ns)
}

/// Consecutive same-function, same-precision requests packed up to the
/// flush size, as the batcher packs them.
struct Pack {
    func: usize,
    xs64: Vec<f64>,
    xs32: Vec<f32>,
    lens: Vec<usize>,
}

fn packs(reqs: &[Request]) -> Vec<Pack> {
    let mut out: Vec<Pack> = Vec::new();
    for r in reqs {
        let is32 = matches!(r.payload, Payload::F32(_));
        let fits = out.last().is_some_and(|p| {
            p.func == r.func
                && p.xs32.is_empty() != is32
                && p.xs64.len() + p.xs32.len() < FLUSH_ELEMS
        });
        if !fits {
            out.push(Pack {
                func: r.func,
                xs64: Vec::new(),
                xs32: Vec::new(),
                lens: Vec::new(),
            });
        }
        let p = out.last_mut().expect("just pushed");
        match &r.payload {
            Payload::F64(xs) => p.xs64.extend_from_slice(xs),
            Payload::F32(xs) => p.xs32.extend_from_slice(xs),
        }
        p.lens.push(r.payload.len());
    }
    out
}

/// The native backend's flush entry point (`eval_scatter_into`, with
/// its `ParallelPwl` fan-out) over packed flush buffers.
fn native(tables: &[Table], reqs: &[Request]) -> f64 {
    let backend = NativeBackend::new();
    let progs64: Vec<Arc<dyn BackendProgram>> = tables
        .iter()
        .map(|t| backend.lower(&t.engine).expect("native lowering"))
        .collect();
    let progs32: Vec<Arc<dyn BackendProgramF32>> = tables
        .iter()
        .map(|t| backend.lower_f32(&t.engine32).expect("native f32 lane"))
        .collect();
    let packs = packs(reqs);
    let mut outs64: Vec<Vec<f64>> = packs.iter().map(|p| vec![0.0; p.xs64.len()]).collect();
    let mut outs32: Vec<Vec<f32>> = packs.iter().map(|p| vec![0.0; p.xs32.len()]).collect();
    let elems = crate::inputs::total_elems(reqs);
    let reps = repeats(elems);
    ns_per_item(elems * reps, || {
        for _ in 0..reps {
            for ((p, o64), o32) in packs.iter().zip(&mut outs64).zip(&mut outs32) {
                if p.xs32.is_empty() {
                    let mut views = split(o64, &p.lens);
                    progs64[p.func].eval_scatter_into(&p.xs64, &mut views);
                } else {
                    let mut views = split(o32, &p.lens);
                    progs32[p.func].eval_scatter_into(&p.xs32, &mut views);
                }
            }
        }
    })
}

/// Per-job output views over one packed output buffer.
fn split<'a, T>(mut buf: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    lens.iter()
        .map(|&n| {
            let (head, rest) = std::mem::take(&mut buf).split_at_mut(n);
            buf = rest;
            head
        })
        .collect()
}

/// Host time of the sfu-emu program (as `fit::lower` builds it) over the first [`SFU_ELEMS`] elements of the pool, widened
/// to f64: the emulator has no f32 lane.
fn sfu(tables: &[Table], reqs: &[Request]) -> f64 {
    let progs: Vec<_> = tables.iter().map(|t| crate::fit::lower(t).0).collect();
    let mut inputs = Vec::new();
    let mut taken = 0;
    for r in reqs {
        if taken >= SFU_ELEMS {
            break;
        }
        let xs = r.payload.to_f64();
        let n = xs.len().min(SFU_ELEMS - taken);
        taken += n;
        inputs.push((r.func, xs[..n].to_vec(), vec![0.0; n]));
    }
    ns_per_item(taken, || {
        for (func, xs, out) in &mut inputs {
            progs[*func].eval_scatter_into(xs, &mut [out.as_mut_slice()]);
        }
    })
}

/// Frame codec cost per frame, over each request's submit frame and its
/// result frame.
struct Codec {
    /// `Frame::encode_into` ns per frame.
    encode_ns: f64,
    /// `FrameReader` feed + decode ns per frame.
    decode_ns: f64,
    /// Encoded bytes (submit + result) per request element.
    bytes_per_elem: f64,
}

fn codec(tables: &[Table], reqs: &[Request]) -> Codec {
    let mut frames = Vec::new();
    let mut elems = 0;
    for (i, r) in reqs.iter().enumerate() {
        if elems >= PASS_ELEMS {
            break;
        }
        elems += r.payload.len();
        let (req, func) = (i as u64 + 1, r.func as u32);
        let t = &tables[r.func];
        match &r.payload {
            Payload::F64(xs) => {
                frames.push(Frame::SubmitF64 {
                    req,
                    func,
                    data: xs.clone(),
                    trace: None,
                });
                frames.push(Frame::ResultF64 {
                    req,
                    data: t.engine.eval_batch(xs),
                });
            }
            Payload::F32(xs) => {
                frames.push(Frame::SubmitF32 {
                    req,
                    func,
                    data: xs.clone(),
                    trace: None,
                });
                frames.push(Frame::ResultF32 {
                    req,
                    data: t.engine32.eval_batch(xs),
                });
            }
        }
    }
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(encoded.iter().map(Vec::len).max().unwrap_or(0));
    let encode_ns = ns_per_item(frames.len(), || {
        for f in &frames {
            buf.clear();
            f.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    let mut reader = FrameReader::new();
    let decode_ns = ns_per_item(frames.len(), || {
        for bytes in &encoded {
            reader.feed(bytes);
            let frame = reader.next_frame().expect("own frames decode");
            black_box(frame.expect("a whole frame was fed"));
        }
    });
    Codec {
        encode_ns,
        decode_ns,
        bytes_per_elem: bytes as f64 / elems.max(1) as f64,
    }
}

/// `SampledProblem::loss_and_grad_compiled` — one Adam step's gradient
/// sweep — on `table`'s breakpoints over the optimizer's default grid.
pub fn grad_ns_per_sample(table: &Table) -> f64 {
    let range = table.f.default_range();
    let problem = SampledProblem::new(table.f, range.0, range.1, GRID_SAMPLES);
    let spec = BoundarySpec::for_range(table.f, range, 5e-3);
    let mut ws = GradWorkspace::new();
    const STEPS: usize = 200;
    ns_per_item(STEPS * GRID_SAMPLES, || {
        for _ in 0..STEPS {
            black_box(problem.loss_and_grad_compiled(&table.pwl, &spec, &mut ws));
        }
    })
}
