//! The compiled batch-evaluation engine: [`CompiledPwl`] and the
//! [`PwlEvaluator`] trait.
//!
//! [`PwlFunction::eval`] is the readable reference path: per call it binary
//! searches a `Vec` of breakpoints, re-derives the segment slope with a
//! division, and interpolates. That is fine for one point and ruinous for a
//! tensor — the optimizer's loss grid, the NN forward pass and the hardware
//! model all evaluate the *same* function over thousands to millions of
//! elements.
//!
//! [`CompiledPwl`] lowers a function once into a structure-of-arrays form:
//!
//! * sorted breakpoints, plus a **uniform bucket index** over them: a
//!   power-of-two grid of precomputed lower bounds, so segment lookup is
//!   one multiply, one table read, and an expected `O(1)` fix-up scan
//!   instead of a branch-mispredicting binary search per element,
//! * per-segment anchor point `(aₓ, a_y)` and precomputed slope `m` in
//!   table order (left outer, inner 0 … n−2, right outer), so evaluation is
//!   a single `m·(x − aₓ) + a_y` with **no division** on the hot path.
//!
//! Functions with ≤ 8 segments skip the index entirely in favour of a
//! vectorizable linear scan (`count of breakpoints < x`), mirroring how a
//! shallow ADU beats a deep one in hardware. The bucket index is the
//! software analogue of putting a one-cycle uniform pre-decoder in front
//! of the ADU's binary-search tree: the grid gets you next to the right
//! segment, a couple of comparisons finish the job exactly.
//!
//! # SIMD lane kernels
//!
//! Batch evaluation is lane-packed. The portable kernels run **four
//! elements wide** through the [`crate::simd`] lane types
//! ([`crate::simd::F64x4`]): the linear scan broadcasts each breakpoint
//! against a whole lane group, and the bucket path keeps the mapping,
//! clamp and anchored multiply-add in f64 lanes — the uniform-bucket
//! layout makes the index computation gather-free, which is precisely
//! why the paper chose it. The one scalar step per element is a single
//! aligned cache-line read (a `BucketLine`: comparison breakpoint, seed,
//! and both candidate segments' coefficients fused together). On x86-64
//! the lane kernels are compiled a second time under
//! `#[target_feature(enable = "avx2")]`, and machines with AVX-512F get
//! a dedicated eight-wide kernel whose five table reads per lane group
//! are hardware gathers — everything stays in registers. All paths are
//! selected at runtime and produce bit-identical results. The pre-SIMD
//! scalar kernels remain available as [`CompiledPwl::eval_into_ref`] —
//! the measured baseline for the `compiled_vs_scalar` bench's `simd`
//! column and the tail kernel for lane remainders.
//!
//! # Bit-exactness
//!
//! The engine is **bit-identical** to [`PwlFunction::eval`] for every
//! input, including the half-open boundary regions, inputs exactly on
//! breakpoints, and NaN (which propagates). This is guaranteed by
//! construction: segment selection reproduces [`PwlFunction::region`]'s
//! comparison sequence, and the anchored evaluation performs the same
//! f64 operations in the same order (the precomputed slope is the same
//! rounded quotient the scalar path computes per call). Parity is locked
//! down by the property tests in `tests/engine_parity.rs`.
//!
//! # Which entry point?
//!
//! * [`CompiledPwl::eval_one`] — scalar, for call sites that genuinely
//!   have one value.
//! * [`PwlEvaluator::eval_into`] / [`PwlEvaluator::eval_batch`] — chunked
//!   batch evaluation; the workhorse for loss grids and tensors.
//! * [`ParallelPwl`] — the same batch API fanned out over threads with
//!   `std::thread::scope`; worthwhile from roughly 10⁵ elements.
//!
//! # Examples
//!
//! ```
//! use flexsfu_core::{CompiledPwl, PwlEvaluator, PwlFunction};
//!
//! let pwl = PwlFunction::new(vec![-1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0], 0.0, 0.0)?;
//! let engine = CompiledPwl::from_pwl(&pwl);
//! let xs = [-2.0, -0.5, 0.25, 3.0];
//! let ys = engine.eval_batch(&xs);
//! for (&x, &y) in xs.iter().zip(&ys) {
//!     assert_eq!(y, pwl.eval(x)); // bit-identical, not merely close
//! }
//! # Ok::<(), flexsfu_core::PwlError>(())
//! ```

use crate::coeffs::CoeffTable;
use crate::element::{scatter_into, CompiledEngine, Element};
use crate::pwl::PwlFunction;
use crate::simd::{F64x4, F64_LANES};

/// Functions with at most this many segments use the linear-scan lookup.
const LINEAR_SCAN_MAX_SEGMENTS: usize = 8;

/// Batch evaluation proceeds in chunks of this many elements to keep the
/// working set cache-resident.
pub(crate) const CHUNK: usize = 4096;

/// Below this many elements [`ParallelPwl`] stays serial — thread spawn
/// overhead would dominate.
pub(crate) const PARALLEL_MIN_ELEMENTS: usize = 1 << 15;

/// Elements per stack block in [`ParallelPwl::eval_in_place`]: 8 KiB of
/// f64, so the block and the slice it overwrites stay L1-resident.
pub const IN_PLACE_BLOCK: usize = 1024;

/// Elements per block in the SIMD lane kernels. Each block runs as
/// distributed passes (vector index math, scalar table gathers, vector
/// multiply-add) over stack arrays small enough to stay register/L1
/// resident; 32 elements is 8 [`F64x4`] groups per pass.
const LANE_BLOCK: usize = 32;

/// A uniform interface over scalar and batch PWL evaluation.
///
/// Implemented by [`PwlFunction`] (the readable scalar reference),
/// [`CompiledPwl`] (chunked batch over the SoA form) and [`ParallelPwl`]
/// (threaded batch). Consumers — the optimizer's loss sampling, the NN
/// activation layers, the hardware model's programming path — accept any
/// implementor, so swapping evaluation strategies is a one-line change.
pub trait PwlEvaluator {
    /// Evaluates the function at one point. NaN propagates.
    fn eval_one(&self, x: f64) -> f64;

    /// Evaluates the function over `xs`, writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    fn eval_into(&self, xs: &[f64], out: &mut [f64]);

    /// Evaluates the function over `xs` into a fresh `Vec`.
    fn eval_batch(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; xs.len()];
        self.eval_into(xs, &mut out);
        out
    }
}

/// The scalar reference path: one binary search and one division per call.
impl PwlEvaluator for PwlFunction {
    fn eval_one(&self, x: f64) -> f64 {
        self.eval(x)
    }

    fn eval_into(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.eval(x);
        }
    }
}

/// A [`PwlFunction`] compiled to structure-of-arrays form for fast batch
/// evaluation.
///
/// Segment indices follow the [`CoeffTable`] convention: `0` is the left
/// outer segment, `1..n-1` the inner segments, `n` the right outer segment
/// (`n` breakpoints → `n + 1` segments).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPwl {
    /// Sorted breakpoints (`n`).
    breakpoints: Vec<f64>,
    /// Breakpoints with `window` copies of `+∞` appended, so the windowed
    /// count below can read past the end unconditionally.
    bps_padded: Vec<f64>,
    /// Per-segment anchor abscissa (`n + 1`, table order).
    anchor_x: Vec<f64>,
    /// Per-segment anchor ordinate (`n + 1`).
    anchor_y: Vec<f64>,
    /// Per-segment slope (`n + 1`), precomputed with the same division
    /// the scalar path performs per call.
    slope: Vec<f64>,
    /// The same three per-segment values packed `[aₓ, a_y, m]` — one
    /// bounds check and one cache line per lookup on the batch hot path.
    seg_packed: Vec<[f64; 3]>,
    /// `window_pairs[s] = [bp(s), bp(s+1)]` with `+∞` past the end
    /// (`n + 1` entries): the two-comparison window as a single indexed
    /// load for the specialized `window ≤ 2` kernel.
    window_pairs: Vec<[f64; 2]>,
    /// Per-bucket fused lookup for the SIMD bucket kernels, built only
    /// for `window ≤ 2` tables (see [`BucketLine`]). One aligned cache
    /// line holds the single comparison breakpoint, the seed, and both
    /// candidate segments' coefficients, so the portable kernel resolves
    /// a bucket with one load and the AVX-512 kernel gathers the
    /// breakpoint/seed fields directly.
    bucket_line: Vec<BucketLine>,
    /// Left edge of the bucket grid (`p₀`).
    bucket_lo: f64,
    /// Buckets per unit of input: `K / (p_{n-1} − p₀)`, or `0.0` when the
    /// span is degenerate/overflowing (every input then lands in bucket 0
    /// and the window covers the whole array — slower, never wrong).
    bucket_inv_w: f64,
    /// Per-bucket *conservative* seed: the breakpoint count below the
    /// previous bucket's left edge. One bucket of margin absorbs any
    /// float rounding in the bucket mapping, so the windowed count is
    /// exact for every input, not just almost all of them.
    bucket_seed: Vec<u32>,
    /// Window length: from any bucket's seed, scanning this many padded
    /// breakpoints provably reaches every count an input mapped to that
    /// bucket can have.
    window: usize,
    /// Construction scratch (per-bucket-edge breakpoint counts), kept so
    /// [`CompiledPwl::refill_from_pwl`] can recompile without touching
    /// the allocator. Fully rewritten on every (re)fill, so two engines
    /// compiled from the same function always compare equal.
    edge_scratch: Vec<u32>,
}

/// Windows longer than this (pathologically clustered breakpoints) fall
/// back to `partition_point` — correctness never depends on the index.
const WINDOW_MAX: usize = 16;

/// One cache line of per-bucket lookup state for the SIMD bucket kernels:
/// `[bp(seed), seed as f64, aₓ(seed), a_y(seed), m(seed), aₓ(seed+1),
/// a_y(seed+1), m(seed+1)]`.
///
/// `window ≤ 2` guarantees every input mapping to the bucket counts
/// either `seed` or `seed + 1` breakpoints below it (the window reaches
/// exactly one past the seed), so **one** comparison against `bp(seed)`
/// resolves the segment and both candidate coefficient triples ride along
/// in the same 64-byte line — bucket resolution is a single aligned load
/// plus arithmetic, with no dependent `seed → breakpoint → coefficient`
/// walk. The seed is stored as an exact f64 so the AVX-512 kernel can
/// keep the whole count in float lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct BucketLine([f64; 8]);

impl CompiledPwl {
    /// Flattens `pwl` into the SoA form. `O(n)`; amortize it over batches.
    pub fn from_pwl(pwl: &PwlFunction) -> Self {
        let mut engine = Self {
            breakpoints: Vec::new(),
            bps_padded: Vec::new(),
            anchor_x: Vec::new(),
            anchor_y: Vec::new(),
            slope: Vec::new(),
            seg_packed: Vec::new(),
            window_pairs: Vec::new(),
            bucket_line: Vec::new(),
            bucket_lo: 0.0,
            bucket_inv_w: 0.0,
            bucket_seed: Vec::new(),
            window: 0,
            edge_scratch: Vec::new(),
        };
        engine.refill_from_pwl(pwl);
        engine
    }

    /// Recompiles `pwl` into this engine **in place**, reusing every
    /// internal allocation whose capacity still suffices — the amortized
    /// form of [`CompiledPwl::from_pwl`] for callers that recompile the
    /// same-shaped function every iteration (at production sweep scale
    /// the per-iteration `Vec` churn of a fresh compile is pure
    /// allocator traffic).
    ///
    /// The resulting engine is indistinguishable from
    /// `CompiledPwl::from_pwl(pwl)`: the same construction code runs, so
    /// evaluation stays bit-identical and the engines compare equal.
    pub fn refill_from_pwl(&mut self, pwl: &PwlFunction) {
        let p = pwl.breakpoints();
        let n = p.len();

        // Per-segment anchored lines: outer segments at their end
        // breakpoints, inner ones at their left endpoints, with the
        // exact slope quotient the scalar path computes per call.
        self.anchor_x.clear();
        self.anchor_y.clear();
        self.slope.clear();
        self.anchor_x.reserve(n + 1);
        self.anchor_y.reserve(n + 1);
        self.slope.reserve(n + 1);
        for s in 0..=n {
            let [ax, ay, m] = pwl.segment_line(s);
            self.anchor_x.push(ax);
            self.anchor_y.push(ay);
            self.slope.push(m);
        }

        // Uniform bucket index. Start at ~4 buckets per breakpoint and
        // refine (power of two, capped) until the window drops to the
        // 2 comparisons the specialized kernel wants — real optimized
        // functions cluster breakpoints in the curved regions, so a
        // fixed multiplier is not enough.
        let (lo, hi) = (p[0], p[n - 1]);
        let span = hi - lo;
        // Size the grid so ~4 bucket widths fit the smallest gap — then
        // no 3-bucket stretch holds two breakpoints and the window lands
        // at the 2 comparisons the specialized kernel wants. The sizing
        // is only a guess: the window is *measured* from the actual edge
        // counts below, so a capped or degenerate grid merely loses the
        // fast path, never correctness.
        let min_gap = p
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min);
        let wanted = if min_gap > 0.0 && (4.0 * span / min_gap).is_finite() {
            // Saturating cast: absurd ratios just hit the cap below.
            (4.0 * span / min_gap).ceil() as usize
        } else {
            usize::MAX
        };
        let buckets = wanted
            .clamp(4 * n, 1 << 14)
            .next_power_of_two()
            .min(1 << 14);
        let inv_w = if span.is_finite() && span > 0.0 && (buckets as f64 / span).is_finite() {
            buckets as f64 / span
        } else {
            0.0
        };
        // Exact breakpoint count below each bucket edge (edge `buckets`
        // ≡ n), in one monotone walk — edges and breakpoints both ascend.
        let mut edge_counts = std::mem::take(&mut self.edge_scratch);
        edge_counts.clear();
        edge_counts.reserve(buckets + 1);
        let mut idx = 0usize;
        for b in 0..buckets {
            let left_edge = if inv_w > 0.0 {
                lo + b as f64 / inv_w
            } else {
                lo
            };
            while idx < n && p[idx] < left_edge {
                idx += 1;
            }
            edge_counts.push(idx as u32);
        }
        edge_counts.push(n as u32);
        // Degenerate span: everything maps to bucket 0; force the
        // window to cover the whole array.
        if inv_w == 0.0 {
            edge_counts.fill(n as u32);
            edge_counts[0] = 0;
        }
        // Seed one bucket early; the float bucket mapping can misplace
        // an input by at most one bucket, so the seed is always a true
        // lower bound on the input's count.
        self.bucket_seed.clear();
        self.bucket_seed
            .extend((0..buckets).map(|b| edge_counts[b.saturating_sub(1)]));
        let bucket_seed = &self.bucket_seed;
        // The window must reach from any bucket's seed to one bucket
        // past its right edge (again one bucket of rounding margin).
        let window = (0..buckets)
            .map(|b| edge_counts[(b + 2).min(buckets)] - bucket_seed[b])
            .max()
            .unwrap_or(n as u32) as usize
            + 1;
        self.edge_scratch = edge_counts;

        self.breakpoints.clear();
        self.breakpoints.extend_from_slice(p);
        self.bps_padded.clear();
        self.bps_padded.extend_from_slice(p);
        self.bps_padded.resize(n + window.max(2), f64::INFINITY);
        let bps_padded = &self.bps_padded;

        self.window_pairs.clear();
        self.window_pairs
            .extend((0..=n).map(|s| [bps_padded[s], bps_padded[s + 1]]));

        // Fused per-bucket lines for the SIMD kernels. Only meaningful
        // when the one-comparison window suffices (window ≤ 2 means the
        // count is seed or seed + 1); longer windows route to the search
        // fallback and never read this. For a seed of n (past the last
        // breakpoint) the second candidate clamps to n — bp(seed) is +∞
        // there, so the comparison never selects it.
        self.bucket_line.clear();
        if window <= 2 {
            let (anchor_x, anchor_y, slope) = (&self.anchor_x, &self.anchor_y, &self.slope);
            self.bucket_line.extend(self.bucket_seed.iter().map(|&s| {
                let s = s as usize;
                let s1 = (s + 1).min(n);
                BucketLine([
                    bps_padded[s],
                    s as f64,
                    anchor_x[s],
                    anchor_y[s],
                    slope[s],
                    anchor_x[s1],
                    anchor_y[s1],
                    slope[s1],
                ])
            }));
        }

        self.seg_packed.clear();
        {
            let (anchor_x, anchor_y, slope) = (&self.anchor_x, &self.anchor_y, &self.slope);
            self.seg_packed.extend(
                anchor_x
                    .iter()
                    .zip(anchor_y.iter().zip(slope))
                    .map(|(&ax, (&ay, &m))| [ax, ay, m]),
            );
        }

        self.bucket_lo = lo;
        self.bucket_inv_w = inv_w;
        self.window = window;
    }

    /// Number of breakpoints `n`.
    pub fn num_breakpoints(&self) -> usize {
        self.breakpoints.len()
    }

    /// Number of segments, `n + 1`.
    pub fn num_segments(&self) -> usize {
        self.slope.len()
    }

    /// The sorted breakpoints.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Per-segment slopes in table order (left outer, inner…, right outer).
    pub fn slopes(&self) -> &[f64] {
        &self.slope
    }

    /// The per-segment anchored form `(aₓ, a_y, m)` as the three SoA
    /// columns, in table order. Internal view for the f32 engine's
    /// conversion path ([`crate::engine_f32::CompiledPwlF32::from_compiled`]):
    /// the stored f64 values are exactly what `from_pwl` would recompute,
    /// so converting from a compiled engine or from its source function
    /// yields identical f32 tables.
    pub(crate) fn anchor_parts(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.anchor_x, &self.anchor_y, &self.slope)
    }

    /// Lowers to the `(m, q)` coefficient-table view the hardware programs,
    /// identical to `CoeffTable::from_pwl` on the source function.
    pub fn to_coeff_table(&self) -> CoeffTable {
        let intercepts: Vec<f64> = self
            .slope
            .iter()
            .zip(self.anchor_x.iter().zip(&self.anchor_y))
            .map(|(&m, (&ax, &ay))| ay - m * ax)
            .collect();
        CoeffTable::from_parts(self.breakpoints.clone(), self.slope.clone(), intercepts)
    }

    /// Number of breakpoints strictly below `x` (what
    /// `breakpoints.partition_point(|p| p < x)` computes), via the bucket
    /// index: one multiply locates the bucket, its conservative seed
    /// starts the count, and exactly `window` branch-free comparisons
    /// finish it. The seed under-counts by at most `window − 1` and every
    /// breakpoint past the window is provably ≥ `x`, so the result is
    /// exact for every input — including NaN, which maps to bucket 0 and
    /// counts nothing.
    #[inline]
    fn count_below(&self, x: f64) -> usize {
        if self.window > WINDOW_MAX {
            // Pathologically clustered breakpoints: the index would scan
            // long windows; std's binary search is the better tool.
            return self.breakpoints.partition_point(|&p| p < x);
        }
        // Saturating f64→usize cast: negatives and NaN land in bucket 0,
        // +∞/overflow in the last bucket.
        let b =
            (((x - self.bucket_lo) * self.bucket_inv_w) as usize).min(self.bucket_seed.len() - 1);
        let seed = self.bucket_seed[b] as usize;
        let mut c = seed;
        for j in 0..self.window {
            c += usize::from(self.bps_padded[seed + j] < x);
        }
        c
    }

    /// The table-order segment index of `x`, reproducing
    /// [`PwlFunction::region`]'s boundary conventions exactly
    /// (`x ≤ p₀` → 0, `x ≥ p_{n-1}` → n). NaN maps to segment 0; the
    /// evaluation path screens NaN out before lookup.
    #[inline]
    pub fn segment_index(&self, x: f64) -> usize {
        let n = self.breakpoints.len();
        let c = if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
            // Branchless count, vectorizable for the shallow tables the
            // hardware actually ships (4–64 segments, most ≤ 8).
            let mut c = 0usize;
            for &b in &self.breakpoints {
                c += usize::from(b < x);
            }
            c
        } else {
            self.count_below(x)
        };
        // `x == p_{n-1}` counts n−1 breakpoints below but belongs to the
        // right outer segment, matching `Region::Right`'s `x ≥ p_{n-1}`.
        if x >= self.breakpoints[n - 1] {
            n
        } else {
            c
        }
    }

    /// Evaluates one point: segment lookup plus one multiply-add on the
    /// anchored form. Bit-identical to [`PwlFunction::eval`].
    #[inline]
    pub fn eval_one(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let s = self.segment_index(x);
        self.slope[s] * (x - self.anchor_x[s]) + self.anchor_y[s]
    }

    /// Writes the table-order segment index of every sample into `out`.
    ///
    /// This is the batch analogue of [`PwlFunction::region`] for consumers
    /// that need *where* each sample landed as well as the value. Sorted
    /// inputs are cheaper through [`PwlFunction::segment_runs`], which
    /// assigns the same segments without building the engine.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn segments_into(&self, xs: &[f64], out: &mut [u32]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.segment_index(x) as u32;
        }
    }

    /// Evaluates the segment `s` assigned to `x` — the second half of
    /// [`Self::eval_one`] for callers that already hold the segment index
    /// from [`Self::segments_into`].
    #[inline]
    pub fn eval_at_segment(&self, x: f64, s: usize) -> f64 {
        self.slope[s] * (x - self.anchor_x[s]) + self.anchor_y[s]
    }
}

impl CompiledPwl {
    /// Reference batch kernel for shallow tables: branchless linear count,
    /// one element at a time (the PR-1 instruction-level-parallel path,
    /// kept as the SIMD kernels' remainder/fallback and as the measurable
    /// baseline in `compiled_vs_scalar`).
    fn eval_chunk_linear_ref(&self, xs: &[f64], out: &mut [f64]) {
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            if x.is_nan() {
                *o = f64::NAN;
                continue;
            }
            let mut c = 0usize;
            for &b in &self.breakpoints {
                c += usize::from(b < x);
            }
            let s = c + usize::from(x >= last) * (n - c);
            let [ax, ay, m] = self.seg_packed[s];
            *o = m * (x - ax) + ay;
        }
    }

    /// The table-order segment index of `x` for the specialized
    /// `window ≤ 2` kernel.
    ///
    /// # Safety contract (established at construction, checked by caller)
    ///
    /// * `hi_bucket_f == (bucket_seed.len() − 1) as f64`, so the clamped
    ///   cast lands inside `bucket_seed` (NaN maps to 0.0 via `max`);
    /// * every seed is ≤ `n`, and `window_pairs` has `n + 1` entries, so
    ///   the pair load is in bounds;
    /// * `window ≤ 2` guarantees `seed ≤ count(x) ≤ seed + 2`, the pair
    ///   comparisons therefore produce exactly `count(x)`, and any
    ///   breakpoint at an index ≥ `count(x)` compares ≥ `x` by
    ///   sortedness, so over-reading the second pair slot is harmless.
    ///
    /// The returned index is ≤ `n`, in bounds for `seg_packed`.
    #[inline(always)]
    fn fast_segment_index(&self, hi_bucket_f: f64, n: usize, last: f64, x: f64) -> usize {
        let t = ((x - self.bucket_lo) * self.bucket_inv_w)
            .max(0.0)
            .min(hi_bucket_f);
        // SAFETY: t is clamped to [0, bucket_seed.len() − 1] and NaN-free.
        let b = unsafe { t.to_int_unchecked::<usize>() };
        // SAFETY: b < bucket_seed.len(); seed ≤ n < window_pairs.len().
        let (seed, w) = unsafe {
            let seed = *self.bucket_seed.get_unchecked(b) as usize;
            (seed, self.window_pairs.get_unchecked(seed))
        };
        let c = seed + usize::from(w[0] < x) + usize::from(w[1] < x);
        c + usize::from(x >= last) * (n - c)
    }

    /// Reference batch kernel for deep tables with `window ≤ 2` (every
    /// remotely even breakpoint distribution): one bucket load, one pair
    /// load, two comparisons, one segment load — unrolled 16-wide so the
    /// dependent loads of neighbouring elements overlap. The PR-1 path,
    /// kept as the SIMD kernel's remainder/fallback and as the measurable
    /// baseline in `compiled_vs_scalar`.
    fn eval_chunk_bucket2_ref(&self, xs: &[f64], out: &mut [f64]) {
        debug_assert!(self.window <= 2);
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        let hi_bucket_f = (self.bucket_seed.len() - 1) as f64;
        let mut xi = xs.chunks_exact(16);
        let mut oi = out.chunks_exact_mut(16);
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            let mut segs = [0usize; 16];
            for k in 0..16 {
                segs[k] = self.fast_segment_index(hi_bucket_f, n, last, xc[k]);
            }
            for k in 0..16 {
                let x = xc[k];
                // SAFETY: fast_segment_index returns ≤ n; seg_packed has
                // n + 1 entries.
                let [ax, ay, m] = unsafe { *self.seg_packed.get_unchecked(segs[k]) };
                let y = m * (x - ax) + ay;
                // NaN screens through the select so the output is the
                // canonical NaN the scalar path returns.
                oc[k] = if x.is_nan() { f64::NAN } else { y };
            }
        }
        for (&x, o) in xi.remainder().iter().zip(oi.into_remainder()) {
            let s = self.fast_segment_index(hi_bucket_f, n, last, x);
            let [ax, ay, m] = self.seg_packed[s];
            *o = if x.is_nan() {
                f64::NAN
            } else {
                m * (x - ax) + ay
            };
        }
    }

    /// Fallback batch kernel (window > 2): per-element `count_below`,
    /// which walks its window or routes to `partition_point`.
    fn eval_chunk_search(&self, xs: &[f64], out: &mut [f64]) {
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            if x.is_nan() {
                *o = f64::NAN;
                continue;
            }
            let c = self.count_below(x);
            let s = c + usize::from(x >= last) * (n - c);
            let [ax, ay, m] = self.seg_packed[s];
            *o = m * (x - ax) + ay;
        }
    }

    /// Shared vector tail of both lane kernels: given the per-element
    /// segment index as an exact f64 in `s_arr`, gather the segment
    /// coefficients (the one genuinely scalar step — pass 2), then run
    /// the anchored multiply-add and NaN screen four lanes wide (pass 3).
    #[inline(always)]
    fn eval_block_from_segments(
        &self,
        xc: &[f64; LANE_BLOCK],
        s_arr: &[f64; LANE_BLOCK],
        oc: &mut [f64; LANE_BLOCK],
    ) {
        let nan = F64x4::splat(f64::NAN);
        let mut ax = [0.0; LANE_BLOCK];
        let mut ay = [0.0; LANE_BLOCK];
        let mut m = [0.0; LANE_BLOCK];
        for i in 0..LANE_BLOCK {
            // SAFETY: every entry of s_arr is a segment index ≤ n by the
            // callers' construction, and seg_packed has n + 1 entries.
            let s = unsafe { s_arr[i].to_int_unchecked::<usize>() };
            let [a, y0, mm] = unsafe { *self.seg_packed.get_unchecked(s) };
            ax[i] = a;
            ay[i] = y0;
            m[i] = mm;
        }
        for g in 0..LANE_BLOCK / F64_LANES {
            let at = g * F64_LANES;
            let xv = F64x4::from_slice(&xc[at..]);
            let y = F64x4::from_slice(&m[at..]) * (xv - F64x4::from_slice(&ax[at..]))
                + F64x4::from_slice(&ay[at..]);
            xv.is_nan().select(nan, y).write_to(&mut oc[at..]);
        }
    }

    /// SIMD lane kernel for shallow tables: the branchless count runs
    /// four elements wide — every breakpoint is broadcast and compared
    /// against a whole [`F64x4`] at once — and only the per-segment
    /// `(aₓ, a_y, m)` reads stay scalar. The kernel is structured as
    /// distributed passes over [`LANE_BLOCK`]-element blocks (vector
    /// count, scalar gather, vector evaluate) so each vector pass is a
    /// clean lane loop the backend provably packs.
    #[inline(always)]
    fn eval_chunk_linear_lanes(&self, xs: &[f64], out: &mut [f64]) {
        let n = self.breakpoints.len();
        let last = F64x4::splat(self.breakpoints[n - 1]);
        let nf = F64x4::splat(n as f64);
        let mut xi = xs.chunks_exact(LANE_BLOCK);
        let mut oi = out.chunks_exact_mut(LANE_BLOCK);
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            let xc: &[f64; LANE_BLOCK] = xc.try_into().unwrap();
            let oc: &mut [f64; LANE_BLOCK] = oc.try_into().unwrap();
            // Pass 1 (vector): lane-parallel branchless count of
            // breakpoints < x, right-edge select. NaN lanes count 0 and
            // fail the ≥ test, landing on segment 0 exactly like the
            // scalar path; the final NaN screen replaces their output.
            let mut s_arr = [0.0; LANE_BLOCK];
            for g in 0..LANE_BLOCK / F64_LANES {
                let at = g * F64_LANES;
                let xv = F64x4::from_slice(&xc[at..]);
                let mut cnt = F64x4::splat(0.0);
                for &b in &self.breakpoints {
                    cnt = cnt + F64x4::splat(b).lt(xv).ones();
                }
                xv.ge(last).select(nf, cnt).write_to(&mut s_arr[at..]);
            }
            // Passes 2–3: coefficient gather + anchored multiply-add.
            self.eval_block_from_segments(xc, &s_arr, oc);
        }
        self.eval_chunk_linear_ref(xi.remainder(), oi.into_remainder());
    }

    /// SIMD lane kernel for deep tables with `window ≤ 2`: bucket
    /// mapping, clamp, and the anchored multiply-add run four lanes wide
    /// in f64 arithmetic — the uniform-bucket layout keeps the entire
    /// index computation gather-free, which is exactly why the paper
    /// chose it. The one genuinely scalar step, isolated in its own pass,
    /// is the per-element [`BucketLine`] load: one comparison against the
    /// line's breakpoint picks between the two candidate coefficient
    /// triples riding in the same cache line (`window ≤ 2` proves the
    /// count is `seed` or `seed + 1`), and a conditional move retargets
    /// the right outer segment — no dependent seed → breakpoint →
    /// coefficient walk.
    #[inline(always)]
    fn eval_chunk_bucket2_lanes(&self, xs: &[f64], out: &mut [f64]) {
        debug_assert!(self.window <= 2 && !self.bucket_line.is_empty());
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        let lo = F64x4::splat(self.bucket_lo);
        let inv_w = F64x4::splat(self.bucket_inv_w);
        let hi_bucket = F64x4::splat((self.bucket_seed.len() - 1) as f64);
        let zero = F64x4::splat(0.0);
        let nan = F64x4::splat(f64::NAN);
        // Right outer segment coefficients, selected by pointer below.
        let right = [self.anchor_x[n], self.anchor_y[n], self.slope[n]];
        let mut xi = xs.chunks_exact(LANE_BLOCK);
        let mut oi = out.chunks_exact_mut(LANE_BLOCK);
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            let xc: &[f64; LANE_BLOCK] = xc.try_into().unwrap();
            let oc: &mut [f64; LANE_BLOCK] = oc.try_into().unwrap();
            // Pass 1 (vector): bucket coordinate, clamped to the grid.
            // NaN fails `t ≥ 0` and lands in bucket 0, mirroring the
            // scalar path's saturating cast.
            let mut t_arr = [0.0; LANE_BLOCK];
            for g in 0..LANE_BLOCK / F64_LANES {
                let at = g * F64_LANES;
                let xv = F64x4::from_slice(&xc[at..]);
                let t = (xv - lo) * inv_w;
                let t = t.ge(zero).select(t, zero);
                let t = t.le(hi_bucket).select(t, hi_bucket);
                t.write_to(&mut t_arr[at..]);
            }
            // Pass 2 (scalar): resolve each element's segment from its
            // bucket line — one aligned 64-byte load, one comparison, one
            // conditional move — staging the coefficient triple.
            let mut ax = [0.0; LANE_BLOCK];
            let mut ay = [0.0; LANE_BLOCK];
            let mut m = [0.0; LANE_BLOCK];
            for i in 0..LANE_BLOCK {
                let x = xc[i];
                // SAFETY: t_arr is clamped to [0, bucket_line.len() − 1]
                // and NaN-free by pass 1.
                let b = unsafe { t_arr[i].to_int_unchecked::<usize>() };
                let line = unsafe { &self.bucket_line.get_unchecked(b).0 };
                // count = seed + (bp(seed) < x); see BucketLine.
                let k = usize::from(line[0] < x);
                // SAFETY: 2 + 3k is 2 or 5; both triples are in the line.
                let cand = unsafe { line.get_unchecked(2 + 3 * k..) };
                let cand: &[f64] = if x >= last { &right } else { cand };
                ax[i] = cand[0];
                ay[i] = cand[1];
                m[i] = cand[2];
            }
            // Pass 3 (vector): anchored multiply-add + NaN screen.
            for g in 0..LANE_BLOCK / F64_LANES {
                let at = g * F64_LANES;
                let xv = F64x4::from_slice(&xc[at..]);
                let y = F64x4::from_slice(&m[at..]) * (xv - F64x4::from_slice(&ax[at..]))
                    + F64x4::from_slice(&ay[at..]);
                xv.is_nan().select(nan, y).write_to(&mut oc[at..]);
            }
        }
        self.eval_chunk_bucket2_ref(xi.remainder(), oi.into_remainder());
    }

    /// Runtime-dispatched linear kernel: on x86-64 the lane body is
    /// compiled a second time under `#[target_feature(enable = "avx2")]`
    /// and selected when the CPU supports it, so the lane loops lower to
    /// 256-bit packed instructions; elsewhere the baseline-target build
    /// of the same source runs.
    fn eval_chunk_linear_simd(&self, xs: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { self.eval_chunk_linear_avx2(xs, out) };
        }
        self.eval_chunk_linear_lanes(xs, out);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn eval_chunk_linear_avx2(&self, xs: &[f64], out: &mut [f64]) {
        self.eval_chunk_linear_lanes(xs, out);
    }

    /// Runtime-dispatched bucket kernel: the AVX-512 gather kernel where
    /// the CPU has it, otherwise the portable lane kernel (compiled under
    /// AVX2 when available, baseline elsewhere).
    fn eval_chunk_bucket2_simd(&self, xs: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was verified at runtime.
                return unsafe { self.eval_chunk_bucket2_avx512(xs, out) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was verified at runtime.
                return unsafe { self.eval_chunk_bucket2_avx2(xs, out) };
            }
        }
        self.eval_chunk_bucket2_lanes(xs, out);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn eval_chunk_bucket2_avx2(&self, xs: &[f64], out: &mut [f64]) {
        self.eval_chunk_bucket2_lanes(xs, out);
    }

    /// AVX-512 bucket kernel: eight lanes per iteration, fully in
    /// registers — the bucket map, clamp, one-comparison count and
    /// anchored multiply-add are packed f64 arithmetic, and the five table
    /// reads per lane group (breakpoint + seed from the [`BucketLine`]s,
    /// then the three SoA coefficient columns) are hardware gathers, so
    /// nothing is staged through memory. Performs exactly the same IEEE
    /// f64 operations as the scalar path in the same order (no FMA
    /// contraction), so results stay bit-identical.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn eval_chunk_bucket2_avx512(&self, xs: &[f64], out: &mut [f64]) {
        use core::arch::x86_64::*;
        debug_assert!(self.window <= 2 && !self.bucket_line.is_empty());
        const W: usize = 8;
        let n = self.breakpoints.len();
        let lo = _mm512_set1_pd(self.bucket_lo);
        let inv_w = _mm512_set1_pd(self.bucket_inv_w);
        let hi_bucket = _mm512_set1_pd((self.bucket_seed.len() - 1) as f64);
        let zero = _mm512_setzero_pd();
        let one = _mm512_set1_pd(1.0);
        let nf = _mm512_set1_pd(n as f64);
        let last = _mm512_set1_pd(self.breakpoints[n - 1]);
        let nan = _mm512_set1_pd(f64::NAN);
        let lines = self.bucket_line.as_ptr() as *const f64;
        let mut xi = xs.chunks_exact(W);
        let mut oi = out.chunks_exact_mut(W);
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            // SAFETY: xc has exactly W elements.
            let xv = _mm512_loadu_pd(xc.as_ptr());
            // Bucket coordinate, clamped; NaN fails `t ≥ 0` → bucket 0,
            // mirroring the scalar path's saturating cast.
            let t = _mm512_mul_pd(_mm512_sub_pd(xv, lo), inv_w);
            let t = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(t, zero, _CMP_GE_OQ), zero, t);
            // min is NaN-safe here: t is NaN-free after the blend.
            let t = _mm512_min_pd(t, hi_bucket);
            // SAFETY: t is clamped to [0, buckets − 1]; the truncating
            // convert and the scaled gathers below stay in the line table.
            let bi = _mm512_cvttpd_epi32(t);
            let bi8 = _mm256_slli_epi32(bi, 3); // line stride: 8 f64
            let blo = _mm512_i32gather_pd::<8>(bi8, lines);
            let seed = _mm512_i32gather_pd::<8>(bi8, lines.add(1));
            // count = seed + (bp(seed) < x); see BucketLine. Exact in f64.
            let c = _mm512_add_pd(
                seed,
                _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(blo, xv, _CMP_LT_OQ), one),
            );
            let s = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(xv, last, _CMP_GE_OQ), c, nf);
            // SAFETY: every lane of s is a segment index ≤ n; the three
            // SoA columns have n + 1 entries.
            let si = _mm512_cvttpd_epi32(s);
            let ax = _mm512_i32gather_pd::<8>(si, self.anchor_x.as_ptr());
            let ay = _mm512_i32gather_pd::<8>(si, self.anchor_y.as_ptr());
            let m = _mm512_i32gather_pd::<8>(si, self.slope.as_ptr());
            // m · (x − aₓ) + a_y with separate mul and add — bit-identical
            // to the scalar path; then the NaN screen.
            let y = _mm512_add_pd(_mm512_mul_pd(m, _mm512_sub_pd(xv, ax)), ay);
            let y = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(xv, xv, _CMP_UNORD_Q), y, nan);
            _mm512_storeu_pd(oc.as_mut_ptr(), y);
        }
        self.eval_chunk_bucket2_ref(xi.remainder(), oi.into_remainder());
    }

    fn eval_chunk(&self, xs: &[f64], out: &mut [f64]) {
        if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
            self.eval_chunk_linear_simd(xs, out);
        } else if self.window <= 2 {
            self.eval_chunk_bucket2_simd(xs, out);
        } else {
            self.eval_chunk_search(xs, out);
        }
    }

    /// The PR-1 batch path: the instruction-level-parallel scalar kernels
    /// that predate the SIMD lane kernels, kept callable as the measured
    /// baseline (`compiled_vs_scalar`'s `batch` column) and as the tail
    /// kernel of the lane loops. Bit-identical to [`PwlEvaluator::eval_into`]
    /// and to scalar [`PwlFunction::eval`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn eval_into_ref(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
                self.eval_chunk_linear_ref(xc, oc);
            } else if self.window <= 2 {
                self.eval_chunk_bucket2_ref(xc, oc);
            } else {
                self.eval_chunk_search(xc, oc);
            }
        }
    }

    /// Evaluates the packed input `xs` and scatters the results into the
    /// non-contiguous output slices `outs`, in order: the first
    /// `outs[0].len()` results land in `outs[0]`, the next `outs[1].len()`
    /// in `outs[1]`, and so on. Zero-length output slices are permitted
    /// and consume nothing.
    ///
    /// This is the serving front-end's entry point: a batcher coalesces
    /// many small request tensors into one contiguous buffer so the lane
    /// kernels run at full width, then the results must land back in the
    /// per-request buffers. Evaluation proceeds through the same chunked
    /// SIMD kernels as [`PwlEvaluator::eval_into`] on the *packed* buffer
    /// — lane groups span job boundaries, so a flush of many tiny jobs
    /// does not degenerate to remainder handling — and only the copy-out
    /// is per-job. Results are bit-identical to evaluating the packed
    /// buffer contiguously (and therefore to scalar
    /// [`PwlFunction::eval`] per element).
    ///
    /// # Panics
    ///
    /// Panics if the output lengths do not sum to `xs.len()`.
    pub fn eval_scatter_into(&self, xs: &[f64], outs: &mut [&mut [f64]]) {
        scatter_into::<f64>(self, xs, outs);
    }
}

impl PwlEvaluator for CompiledPwl {
    fn eval_one(&self, x: f64) -> f64 {
        CompiledPwl::eval_one(self, x)
    }

    fn eval_into(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            self.eval_chunk(xc, oc);
        }
    }
}

/// A compiled engine that fans batch evaluation out over OS threads —
/// one type for both precisions: `ParallelPwl` (f64, over a
/// [`CompiledPwl`]) and [`crate::ParallelPwlF32`] (f32, over a
/// [`crate::CompiledPwlF32`]).
///
/// Small batches (below ~32 k elements) run serially — the crossover where
/// thread spawning pays for itself. Results are identical to the serial
/// engine regardless of thread count: the input is split into contiguous
/// slices and every element is evaluated by the same bit-exact kernel.
///
/// # Examples
///
/// ```
/// use flexsfu_core::{CompiledPwl, ParallelPwl, PwlEvaluator, PwlFunction};
///
/// let pwl = PwlFunction::new(vec![-1.0, 1.0], vec![-1.0, 1.0], 0.0, 0.0)?;
/// let par = ParallelPwl::new(CompiledPwl::from_pwl(&pwl));
/// let xs: Vec<f64> = (0..100_000).map(|i| i as f64 * 1e-4 - 5.0).collect();
/// let ys = par.eval_batch(&xs);
/// assert_eq!(ys[0], pwl.eval(xs[0]));
/// # Ok::<(), flexsfu_core::PwlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelPwl<T: Element = f64> {
    inner: T::Engine,
    threads: usize,
}

impl<T: Element> ParallelPwl<T> {
    /// Wraps `inner`, sizing the pool to the machine's available
    /// parallelism. The precision follows from the engine.
    pub fn new<E>(inner: E) -> Self
    where
        E: CompiledEngine<Elem = T>,
        T: Element<Engine = E>,
    {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(inner, threads)
    }

    /// Wraps `inner` with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads<E>(inner: E, threads: usize) -> Self
    where
        E: CompiledEngine<Elem = T>,
        T: Element<Engine = E>,
    {
        assert!(threads > 0, "need at least one thread");
        Self { inner, threads }
    }

    /// The wrapped serial engine.
    pub fn engine(&self) -> &T::Engine {
        &self.inner
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Scalar evaluation on the wrapped engine.
    pub fn eval_one(&self, x: T) -> T {
        T::eval_one(&self.inner, x)
    }

    /// Threaded batch evaluation; serial below the crossover.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn eval_into(&self, xs: &[T], out: &mut [T]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        let n = xs.len();
        if self.threads == 1 || n < PARALLEL_MIN_ELEMENTS {
            return T::eval_into(&self.inner, xs, out);
        }
        let workers = self.threads.min(n);
        let per = n.div_ceil(workers);
        std::thread::scope(|scope| {
            for (xc, oc) in xs.chunks(per).zip(out.chunks_mut(per)) {
                let engine = &self.inner;
                scope.spawn(move || T::eval_into(engine, xc, oc));
            }
        });
    }

    /// Evaluates `xs` into a fresh `Vec`.
    pub fn eval_batch(&self, xs: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); xs.len()];
        self.eval_into(xs, &mut out);
        out
    }

    /// Evaluates `xs` in place, overwriting every input with its result
    /// — the serving tier's path for a flush of one job, which then
    /// hands the job's own buffer back. Each [`IN_PLACE_BLOCK`]
    /// of inputs is copied to a stack block and evaluated from there
    /// into the slice through the same SIMD kernels as
    /// [`Self::eval_into`], so results are bit-identical to it.
    ///
    /// Always serial on the calling thread, whatever the thread count:
    /// fanning one job out costs more in spawns and cross-core traffic
    /// than it saves, and the serving tier runs several of these at
    /// once on its own worker pool.
    pub fn eval_in_place(&self, xs: &mut [T]) {
        let mut block = [T::default(); IN_PLACE_BLOCK];
        for chunk in xs.chunks_mut(IN_PLACE_BLOCK) {
            let inputs = &mut block[..chunk.len()];
            inputs.copy_from_slice(chunk);
            T::eval_into(&self.inner, inputs, chunk);
        }
    }

    /// The threaded counterpart of [`CompiledPwl::eval_scatter_into`]:
    /// evaluates the packed input and scatters results into the
    /// non-contiguous output slices, fanning work out over threads for
    /// large flushes. The output list is split into contiguous *runs* of
    /// roughly equal element counts at job boundaries (a single job is
    /// never split across threads), so each thread runs the serial
    /// scatter kernel on an independent `(input subrange, output run)`
    /// pair — results are identical to the serial path regardless of
    /// thread count. The last run evaluates on the calling thread, so a
    /// flush that yields one run (a single large job) spawns nothing.
    ///
    /// # Panics
    ///
    /// Panics if the output lengths do not sum to `xs.len()`.
    pub fn eval_scatter_into(&self, xs: &[T], outs: &mut [&mut [T]]) {
        let total: usize = outs.iter().map(|o| o.len()).sum();
        assert_eq!(xs.len(), total, "output slices must partition the input");
        if self.threads == 1 || total < PARALLEL_MIN_ELEMENTS {
            return scatter_into::<T>(&self.inner, xs, outs);
        }
        let per = total.div_ceil(self.threads);
        std::thread::scope(|scope| {
            let mut rest = outs;
            let mut off = 0usize;
            let mut runs_left = self.threads;
            while !rest.is_empty() {
                // Greedily take whole jobs up to ~`per` elements; an
                // oversized job becomes a run of its own. The final
                // allowed run absorbs everything left, so no more than
                // `threads` runs (and threads) are ever created.
                let mut take_elems = 0usize;
                let mut k = 0usize;
                if runs_left == 1 {
                    k = rest.len();
                    take_elems = total - off;
                } else {
                    while k < rest.len() && (k == 0 || take_elems + rest[k].len() <= per) {
                        take_elems += rest[k].len();
                        k += 1;
                    }
                }
                runs_left -= 1;
                let run;
                (run, rest) = rest.split_at_mut(k);
                let xc = &xs[off..off + take_elems];
                off += take_elems;
                let engine = &self.inner;
                if rest.is_empty() {
                    scatter_into::<T>(engine, xc, run);
                } else {
                    scope.spawn(move || scatter_into::<T>(engine, xc, run));
                }
            }
        });
    }
}

impl PwlEvaluator for ParallelPwl {
    fn eval_one(&self, x: f64) -> f64 {
        ParallelPwl::eval_one(self, x)
    }

    fn eval_into(&self, xs: &[f64], out: &mut [f64]) {
        ParallelPwl::eval_into(self, xs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::splitter_tests;

    fn sample_pwl() -> PwlFunction {
        PwlFunction::new(
            vec![-2.0, -1.0, 0.5, 2.0],
            vec![0.3, -0.7, 1.1, 0.9],
            0.25,
            -0.5,
        )
        .unwrap()
    }

    fn dense_grid(a: f64, b: f64, m: usize) -> Vec<f64> {
        (0..m)
            .map(|k| a + (b - a) * k as f64 / (m - 1) as f64)
            .collect()
    }

    #[test]
    fn shapes_and_accessors() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        assert_eq!(c.num_breakpoints(), 4);
        assert_eq!(c.num_segments(), 5);
        assert_eq!(c.breakpoints(), pwl.breakpoints());
        assert_eq!(c.slopes().len(), 5);
        assert_eq!(c.slopes()[0], pwl.left_slope());
        assert_eq!(c.slopes()[4], pwl.right_slope());
    }

    #[test]
    fn segment_index_matches_region_mapping() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        let table = CoeffTable::from_pwl(&pwl);
        for x in dense_grid(-5.0, 5.0, 2001) {
            let want = table.region_to_address(pwl.region(x));
            assert_eq!(c.segment_index(x), want, "at {x}");
        }
        // Exactly on every breakpoint too.
        for &p in pwl.breakpoints() {
            let want = table.region_to_address(pwl.region(p));
            assert_eq!(c.segment_index(p), want, "on breakpoint {p}");
        }
    }

    #[test]
    fn eval_is_bit_identical_to_scalar() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        for x in dense_grid(-10.0, 10.0, 4001) {
            assert_eq!(
                c.eval_one(x).to_bits(),
                pwl.eval(x).to_bits(),
                "mismatch at {x}"
            );
        }
    }

    #[test]
    fn deep_table_uses_search_path_and_stays_exact() {
        // 33 breakpoints → 34 segments → bucket-indexed lookup path.
        let p: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 6.0).collect();
        let v: Vec<f64> = p.iter().map(|x| x.sin()).collect();
        let pwl = PwlFunction::new(p, v, 0.1, -0.2).unwrap();
        let c = CompiledPwl::from_pwl(&pwl);
        for x in dense_grid(-8.0, 8.0, 4001) {
            assert_eq!(c.eval_one(x).to_bits(), pwl.eval(x).to_bits(), "at {x}");
        }
    }

    #[test]
    fn batch_and_parallel_match_scalar() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        let par = ParallelPwl::with_threads(c.clone(), 4);
        let xs = dense_grid(-6.0, 6.0, 50_000);
        let batch = c.eval_batch(&xs);
        let parallel = par.eval_batch(&xs);
        for ((&x, &yb), &yp) in xs.iter().zip(&batch).zip(&parallel) {
            assert_eq!(yb.to_bits(), pwl.eval(x).to_bits());
            assert_eq!(yp.to_bits(), yb.to_bits());
        }
    }

    #[test]
    fn nan_propagates_through_all_paths() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        assert!(c.eval_one(f64::NAN).is_nan());
        let mut out = [0.0; 3];
        c.eval_into(&[0.0, f64::NAN, 1.0], &mut out);
        assert!(!out[0].is_nan() && out[1].is_nan() && !out[2].is_nan());
    }

    #[test]
    fn refill_is_indistinguishable_from_fresh_compile() {
        // Recompile across shapes (shallow → deep → shallow): the refilled
        // engine must compare equal to a fresh compile and evaluate
        // bit-identically, regardless of what it previously held.
        let shallow = sample_pwl();
        let deep = {
            let p: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 6.0).collect();
            let v: Vec<f64> = p.iter().map(|x| x.sin()).collect();
            PwlFunction::new(p, v, 0.1, -0.2).unwrap()
        };
        let mut engine = CompiledPwl::from_pwl(&shallow);
        for target in [&deep, &shallow, &deep] {
            engine.refill_from_pwl(target);
            assert_eq!(engine, CompiledPwl::from_pwl(target));
            for x in dense_grid(-8.0, 8.0, 1001) {
                assert_eq!(engine.eval_one(x).to_bits(), target.eval(x).to_bits());
            }
        }
    }

    #[test]
    fn coeff_table_roundtrip_is_exact() {
        let pwl = sample_pwl();
        let direct = CoeffTable::from_pwl(&pwl);
        let via_engine = CompiledPwl::from_pwl(&pwl).to_coeff_table();
        assert_eq!(direct, via_engine);
    }

    #[test]
    fn segments_into_agrees_with_eval_at_segment() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        let xs = dense_grid(-4.0, 4.0, 513);
        let mut segs = vec![0u32; xs.len()];
        c.segments_into(&xs, &mut segs);
        for (&x, &s) in xs.iter().zip(&segs) {
            assert_eq!(
                c.eval_at_segment(x, s as usize).to_bits(),
                pwl.eval(x).to_bits()
            );
        }
    }

    #[test]
    fn degenerate_two_breakpoint_function() {
        let pwl = PwlFunction::new(vec![0.0, 1.0], vec![0.0, 2.0], -1.0, 3.0).unwrap();
        let c = CompiledPwl::from_pwl(&pwl);
        assert_eq!(c.num_segments(), 3);
        for x in dense_grid(-3.0, 4.0, 1001) {
            assert_eq!(c.eval_one(x).to_bits(), pwl.eval(x).to_bits(), "at {x}");
        }
    }

    #[test]
    fn scatter_matches_contiguous_eval() {
        let pwl = sample_pwl();
        let c = CompiledPwl::from_pwl(&pwl);
        let xs = dense_grid(-6.0, 6.0, 10_000);
        let want = c.eval_batch(&xs);
        // Irregular job sizes, including empty jobs at the edges and in
        // the middle.
        let sizes = [0usize, 7, 1, 0, 4096, 513, 0, 31, 5352, 0];
        assert_eq!(sizes.iter().sum::<usize>(), xs.len());
        let mut bufs: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let mut views: Vec<&mut [f64]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        c.eval_scatter_into(&xs, &mut views);
        let flat: Vec<f64> = bufs.concat();
        for (i, (&w, &got)) in want.iter().zip(&flat).enumerate() {
            assert_eq!(got.to_bits(), w.to_bits(), "scatter mismatch at {i}");
        }
        // The threaded front-end produces the same bits above and below
        // its parallel threshold.
        let par = ParallelPwl::with_threads(c, 4);
        let mut bufs2: Vec<Vec<f64>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let mut views2: Vec<&mut [f64]> = bufs2.iter_mut().map(|b| b.as_mut_slice()).collect();
        par.eval_scatter_into(&xs, &mut views2);
        assert_eq!(bufs, bufs2);
    }

    #[test]
    fn scatter_parallel_splits_at_job_boundaries() {
        splitter_tests::splits_at_job_boundaries::<f64>();
    }

    #[test]
    fn scatter_parallel_caps_runs_at_thread_count() {
        splitter_tests::caps_runs_at_thread_count::<f64>();
    }

    #[test]
    fn scatter_accepts_empty_input_and_outputs() {
        splitter_tests::accepts_empty_input_and_outputs::<f64>();
    }

    #[test]
    #[should_panic(expected = "partition the input")]
    fn scatter_rejects_mismatched_totals() {
        let c = CompiledPwl::from_pwl(&sample_pwl());
        let mut buf = [0.0; 2];
        let mut views = [buf.as_mut_slice()];
        c.eval_scatter_into(&[0.0; 3], &mut views);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn eval_into_rejects_mismatched_lengths() {
        let c = CompiledPwl::from_pwl(&sample_pwl());
        let mut out = [0.0; 2];
        c.eval_into(&[0.0; 3], &mut out);
    }
}
