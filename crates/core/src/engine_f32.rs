//! The single-precision batch-evaluation engine: [`CompiledPwlF32`] and
//! [`ParallelPwlF32`].
//!
//! The f64 engine ([`crate::engine::CompiledPwl`]) is the bit-exact
//! reference pipeline; this module is its f32 mirror, built for the
//! traffic the paper actually targets — DNN inference tensors that live
//! in sub-f64 formats end to end. Same structure-of-arrays layout, same
//! adaptive uniform-bucket index, same three-pass lane kernels, but
//! every table entry and every arithmetic operation is f32: twice the
//! lanes per vector ([`crate::simd::F32x8`] instead of
//! [`crate::simd::F64x4`]) and half the table bandwidth (a 32-byte
//! `BucketLineF32` where the f64 path reads a 64-byte line).
//!
//! # Construction and the measured index
//!
//! A [`CompiledPwlF32`] is compiled from a [`PwlFunction`] or converted
//! from an existing [`CompiledPwl`]; both produce identical tables (the
//! compiled engine stores exactly the f64 anchors/slopes `from_pwl`
//! recomputes, rounded once to f32). The bucket index diverges from the
//! f64 construction in one respect: instead of seeding each bucket one
//! early and arguing a one-bucket margin absorbs float rounding — an
//! argument that gets uncomfortably tight in f32 for narrow ranges at
//! large offsets — the f32 index classifies every breakpoint with the
//! *eval-time* bucket mapping itself (the same `(x − lo) · inv_w`
//! clamp-and-truncate the kernels run, in f32). The bucket map is
//! monotone in `x`, so per-bucket seeds and the window are exact by
//! measurement and no rounding-margin argument is needed at all.
//!
//! # Correctness contract
//!
//! * **Bit-identity within f32**: [`CompiledPwlF32::eval_one`] is the
//!   scalar f32 reference, and every batch path — the PR-1-style scalar
//!   kernels ([`CompiledPwlF32::eval_into_ref`]), the portable lane
//!   kernels, their AVX2 recompiles, the AVX-512 linear-scan kernel and
//!   the scatter/segment entry points — returns the same bits for every
//!   input, including NaN (which propagates) and ±∞.
//! * **Accuracy vs f64**: the f32 output tracks the scalar f64 reference
//!   within a small per-function ULP-at-base-1 budget (table rounding
//!   plus three f32 roundings on the anchored multiply-add); the
//!   budgets for all twelve registry functions are declared and locked
//!   down in `tests/simd_parity.rs`.
//!
//! # SIMD lane kernels
//!
//! Shallow tables (≤ 8 segments) use the eight-wide branchless linear
//! scan; deep tables with a two-comparison window use the bucket path,
//! whose one scalar step per element is a single aligned 32-byte
//! `BucketLineF32` read — the comparison breakpoint, the seed, and
//! both candidate coefficient triples fused in half the cache traffic
//! of the f64 line. On x86-64 the lane bodies are recompiled under
//! `#[target_feature(enable = "avx2")]`, and machines with AVX-512F run
//! dedicated sixteen-wide kernels for both shapes — linear scan and
//! bucket lines — whose table reads are hardware gathers. All paths are
//! runtime-selected and bit-identical.
//!
//! # Examples
//!
//! ```
//! use flexsfu_core::{CompiledPwlF32, PwlFunction};
//!
//! let pwl = PwlFunction::new(vec![-1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0], 0.0, 0.0)?;
//! let engine = CompiledPwlF32::from_pwl(&pwl);
//! let xs: [f32; 4] = [-2.0, -0.5, 0.25, 3.0];
//! let ys = engine.eval_batch(&xs);
//! assert_eq!(ys[1], 0.5);
//! # Ok::<(), flexsfu_core::PwlError>(())
//! ```

use crate::element::scatter_into;
use crate::engine::CompiledPwl;
use crate::pwl::PwlFunction;
use crate::simd::{F32x8, F32_LANES};

/// Functions with at most this many segments use the linear-scan lookup.
const LINEAR_SCAN_MAX_SEGMENTS: usize = 8;

/// Batch evaluation proceeds in chunks of this many elements to keep the
/// working set cache-resident.
const CHUNK: usize = 4096;

/// Elements per block in the SIMD lane kernels; 32 elements is 4
/// [`F32x8`] groups per pass.
const LANE_BLOCK: usize = 32;

/// Windows longer than this fall back to `partition_point`.
const WINDOW_MAX: usize = 16;

/// Half a cache line of per-bucket lookup state for the f32 bucket
/// kernels: `[bp(seed), seed as f32, aₓ(seed), a_y(seed), m(seed),
/// aₓ(seed+1), a_y(seed+1), m(seed+1)]`.
///
/// The layout proof mirrors the f64 [`CompiledPwl`] `window ≤ 2`
/// argument exactly: a two-slot window means every input mapping to the
/// bucket counts either `seed` or `seed + 1` breakpoints below it, so
/// **one** comparison against `bp(seed)` resolves the segment and both
/// candidate coefficient triples ride along in the same 32-byte line —
/// half the cache traffic of the 64-byte f64 [`BucketLine`]. The seed is
/// stored as an exact f32 (construction guarantees `n < 2²⁴`, else the
/// line table is not built and lookup routes to the search fallback).
///
/// [`BucketLine`]: crate::engine::CompiledPwl
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
struct BucketLineF32([f32; 8]);

/// The eval-time bucket of `x`: the same saturating
/// clamp-and-truncate every kernel performs, shared with construction
/// so the measured index is exact by definition. NaN and negatives land
/// in bucket 0, +∞/overflow in the last bucket.
#[inline(always)]
fn bucket_of(x: f32, lo: f32, inv_w: f32, hi_bucket: usize) -> usize {
    (((x - lo) * inv_w) as usize).min(hi_bucket)
}

/// A PWL function compiled to f32 structure-of-arrays form for fast
/// single-precision batch evaluation.
///
/// Segment indices follow the same table order as [`CompiledPwl`]: `0`
/// is the left outer segment, `1..n-1` the inner segments, `n` the right
/// outer segment.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPwlF32 {
    /// Sorted breakpoints (`n`), rounded once from the f64 table.
    /// (f64→f32 rounding is monotone, so sortedness survives; collapsed
    /// near-equal breakpoints merely produce zero-width segments the
    /// comparison logic never selects.)
    breakpoints: Vec<f32>,
    /// Breakpoints with `window` copies of `+∞` appended.
    bps_padded: Vec<f32>,
    /// Per-segment anchor abscissa (`n + 1`, table order).
    anchor_x: Vec<f32>,
    /// Per-segment anchor ordinate (`n + 1`).
    anchor_y: Vec<f32>,
    /// Per-segment slope (`n + 1`): the f64 engine's exact quotient,
    /// rounded once — not an f32 re-division.
    slope: Vec<f32>,
    /// The same three per-segment values packed `[aₓ, a_y, m]`.
    seg_packed: Vec<[f32; 3]>,
    /// `window_pairs[s] = [bp(s), bp(s+1)]` with `+∞` past the end.
    window_pairs: Vec<[f32; 2]>,
    /// Per-bucket fused lookup, built only for `window ≤ 2` tables.
    bucket_line: Vec<BucketLineF32>,
    /// Left edge of the bucket grid (`p₀`).
    bucket_lo: f32,
    /// Buckets per unit of input, or `0.0` on a degenerate span.
    bucket_inv_w: f32,
    /// Per-bucket seed: the *measured* count of breakpoints whose
    /// eval-time bucket precedes this one — a true lower bound on
    /// `count(x)` for every `x` mapping here, by monotonicity of the
    /// bucket map.
    bucket_seed: Vec<u32>,
    /// Window length: from any bucket's seed, scanning this many padded
    /// breakpoints reaches every count an input in that bucket can have.
    window: usize,
    /// Construction scratch kept for zero-allocation refills.
    edge_scratch: Vec<u32>,
}

impl CompiledPwlF32 {
    /// Compiles `pwl` into f32 SoA form: anchors and slopes are the f64
    /// engine's exact values (the slope is the same f64 quotient the
    /// scalar path computes) rounded once to f32.
    pub fn from_pwl(pwl: &PwlFunction) -> Self {
        let mut engine = Self::empty();
        engine.refill_from_pwl(pwl);
        engine
    }

    /// Converts an already-compiled f64 engine. Produces a table
    /// identical to [`CompiledPwlF32::from_pwl`] on the source function
    /// — the compiled engine stores exactly the f64 values `from_pwl`
    /// would recompute.
    pub fn from_compiled(c: &CompiledPwl) -> Self {
        let mut engine = Self::empty();
        engine.refill_from_compiled(c);
        engine
    }

    fn empty() -> Self {
        Self {
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
        }
    }

    /// Recompiles `pwl` into this engine **in place**, reusing every
    /// internal allocation whose capacity still suffices — the f32
    /// counterpart of [`CompiledPwl::refill_from_pwl`], so
    /// `GradWorkspace`-style warm reuse stays allocation-free in single
    /// precision too. The result is indistinguishable from a fresh
    /// [`CompiledPwlF32::from_pwl`].
    pub fn refill_from_pwl(&mut self, pwl: &PwlFunction) {
        let p = pwl.breakpoints();
        let v = pwl.values();
        let n = p.len();
        self.refill_inner(p, |s| {
            if s == 0 {
                [p[0], v[0], pwl.left_slope()]
            } else if s < n {
                // The exact f64 quotient the scalar reference computes.
                [p[s - 1], v[s - 1], (v[s] - v[s - 1]) / (p[s] - p[s - 1])]
            } else {
                [p[n - 1], v[n - 1], pwl.right_slope()]
            }
        });
    }

    /// In-place conversion from a compiled f64 engine; see
    /// [`CompiledPwlF32::refill_from_pwl`] for the reuse contract.
    pub fn refill_from_compiled(&mut self, c: &CompiledPwl) {
        let (ax, ay, m) = c.anchor_parts();
        self.refill_inner(c.breakpoints(), |s| [ax[s], ay[s], m[s]]);
    }

    /// Shared (re)fill: `seg(s)` yields the f64 `(aₓ, a_y, m)` of table
    /// segment `s`; everything is rounded once to f32 and the measured
    /// bucket index is rebuilt against the f32 tables.
    fn refill_inner(&mut self, p64: &[f64], mut seg: impl FnMut(usize) -> [f64; 3]) {
        let n = p64.len();

        self.anchor_x.clear();
        self.anchor_y.clear();
        self.slope.clear();
        self.anchor_x.reserve(n + 1);
        self.anchor_y.reserve(n + 1);
        self.slope.reserve(n + 1);
        for s in 0..=n {
            let [ax, ay, m] = seg(s);
            self.anchor_x.push(ax as f32);
            self.anchor_y.push(ay as f32);
            self.slope.push(m as f32);
        }

        self.breakpoints.clear();
        self.breakpoints.extend(p64.iter().map(|&b| b as f32));
        // Detach the breakpoint vec so the index build can read it while
        // other fields are rewritten; reattached below (no allocation).
        let p = std::mem::take(&mut self.breakpoints);

        // Grid sizing, in the f32 domain the kernels run in: ~4 bucket
        // widths per smallest gap (power of two, capped). Sizing is only
        // a guess — seeds and window are *measured* below, so a capped
        // or degenerate grid loses the fast path, never correctness.
        let (lo, hi) = (p[0], p[n - 1]);
        let span = hi - lo;
        let min_gap = p
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f32::INFINITY, f32::min);
        let wanted = if min_gap > 0.0 && (4.0 * span / min_gap).is_finite() {
            (4.0 * span / min_gap).ceil() as usize
        } else {
            usize::MAX
        };
        let buckets = wanted
            .clamp(4 * n, 1 << 14)
            .next_power_of_two()
            .min(1 << 14);
        let inv_w = if span.is_finite() && span > 0.0 && (buckets as f32 / span).is_finite() {
            buckets as f32 / span
        } else {
            0.0
        };

        // Measured index: classify every breakpoint with the eval-time
        // bucket map itself (monotone in x), in one walk — then
        // `edge_counts[b]` is the exact count of breakpoints whose
        // bucket precedes `b`. For any x mapping to bucket b,
        // monotonicity gives edge_counts[b] ≤ count(x) ≤
        // edge_counts[b+1], so seeds and the window need no rounding
        // margin at all.
        let mut edge_counts = std::mem::take(&mut self.edge_scratch);
        edge_counts.clear();
        edge_counts.reserve(buckets + 1);
        let mut idx = 0usize;
        for b in 0..buckets {
            while idx < n && bucket_of(p[idx], lo, inv_w, buckets - 1) < b {
                idx += 1;
            }
            edge_counts.push(idx as u32);
        }
        edge_counts.push(n as u32);

        self.bucket_seed.clear();
        self.bucket_seed.extend(edge_counts[..buckets].iter());
        // Scanning `window` padded breakpoints from the seed reaches
        // every attainable count; the +1 keeps the f64 convention that
        // `window ≤ 2` means "count is seed or seed + 1" — the
        // one-comparison BucketLineF32 precondition.
        let window = (0..buckets)
            .map(|b| edge_counts[b + 1] - edge_counts[b])
            .max()
            .unwrap_or(n as u32) as usize
            + 1;
        self.edge_scratch = edge_counts;

        self.bps_padded.clear();
        self.bps_padded.extend_from_slice(&p);
        self.bps_padded.resize(n + window.max(2), f32::INFINITY);
        let bps_padded = &self.bps_padded;

        self.window_pairs.clear();
        self.window_pairs
            .extend((0..=n).map(|s| [bps_padded[s], bps_padded[s + 1]]));

        // Fused per-bucket lines, only when the one-comparison window
        // suffices and the seed is exactly representable in f32.
        self.bucket_line.clear();
        if window <= 2 && n < (1 << 24) {
            let (anchor_x, anchor_y, slope) = (&self.anchor_x, &self.anchor_y, &self.slope);
            self.bucket_line.extend(self.bucket_seed.iter().map(|&s| {
                let s = s as usize;
                let s1 = (s + 1).min(n);
                BucketLineF32([
                    bps_padded[s],
                    s as f32,
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

        self.breakpoints = p;
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

    /// The sorted f32 breakpoints.
    pub fn breakpoints(&self) -> &[f32] {
        &self.breakpoints
    }

    /// Per-segment slopes in table order.
    pub fn slopes(&self) -> &[f32] {
        &self.slope
    }

    /// Number of breakpoints strictly below `x`, via the measured bucket
    /// index (or `partition_point` for pathologically clustered tables).
    #[inline]
    fn count_below(&self, x: f32) -> usize {
        if self.window > WINDOW_MAX {
            return self.breakpoints.partition_point(|&p| p < x);
        }
        let b = bucket_of(
            x,
            self.bucket_lo,
            self.bucket_inv_w,
            self.bucket_seed.len() - 1,
        );
        let seed = self.bucket_seed[b] as usize;
        let mut c = seed;
        for j in 0..self.window {
            c += usize::from(self.bps_padded[seed + j] < x);
        }
        c
    }

    /// The table-order segment index of `x`, with the same boundary
    /// conventions as the f64 engine (`x ≤ p₀` → 0, `x ≥ p_{n-1}` → n).
    /// NaN maps to segment 0; the evaluation paths screen NaN out.
    #[inline]
    pub fn segment_index(&self, x: f32) -> usize {
        let n = self.breakpoints.len();
        let c = if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
            let mut c = 0usize;
            for &b in &self.breakpoints {
                c += usize::from(b < x);
            }
            c
        } else {
            self.count_below(x)
        };
        if x >= self.breakpoints[n - 1] {
            n
        } else {
            c
        }
    }

    /// Evaluates one point — the scalar f32 reference every batch path
    /// is bit-identical to. NaN propagates.
    #[inline]
    pub fn eval_one(&self, x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        let s = self.segment_index(x);
        self.slope[s] * (x - self.anchor_x[s]) + self.anchor_y[s]
    }

    /// Writes the table-order segment index of every sample into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn segments_into(&self, xs: &[f32], out: &mut [u32]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.segment_index(x) as u32;
        }
    }

    /// Evaluates the segment `s` assigned to `x`.
    #[inline]
    pub fn eval_at_segment(&self, x: f32, s: usize) -> f32 {
        self.slope[s] * (x - self.anchor_x[s]) + self.anchor_y[s]
    }
}

impl CompiledPwlF32 {
    /// The bucket kernels need both the two-slot window *and* the fused
    /// line table (absent for `n ≥ 2²⁴`); all three batch routers share
    /// this predicate so every path takes the same kernel.
    #[inline]
    fn use_bucket2(&self) -> bool {
        self.window <= 2 && !self.bucket_line.is_empty()
    }

    /// Reference batch kernel for shallow tables: branchless linear
    /// count, one element at a time — the f32 `batch` baseline and the
    /// lane kernels' remainder path.
    fn eval_chunk_linear_ref(&self, xs: &[f32], out: &mut [f32]) {
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            if x.is_nan() {
                *o = f32::NAN;
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
    /// `window ≤ 2` kernel — the f32 mirror of the f64 fast path, with
    /// the same safety contract (clamped bucket coordinate, seeds ≤ n,
    /// two-comparison window exactness by the measured index).
    #[inline(always)]
    fn fast_segment_index(&self, hi_bucket_f: f32, n: usize, last: f32, x: f32) -> usize {
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

    /// Reference batch kernel for deep tables with `window ≤ 2`,
    /// unrolled 16-wide so neighbouring elements' dependent loads
    /// overlap — the f32 `batch` baseline for deep tables.
    fn eval_chunk_bucket2_ref(&self, xs: &[f32], out: &mut [f32]) {
        debug_assert!(self.use_bucket2());
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        let hi_bucket_f = (self.bucket_seed.len() - 1) as f32;
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
                oc[k] = if x.is_nan() { f32::NAN } else { y };
            }
        }
        for (&x, o) in xi.remainder().iter().zip(oi.into_remainder()) {
            let s = self.fast_segment_index(hi_bucket_f, n, last, x);
            let [ax, ay, m] = self.seg_packed[s];
            *o = if x.is_nan() {
                f32::NAN
            } else {
                m * (x - ax) + ay
            };
        }
    }

    /// Fallback batch kernel (long windows): per-element `count_below`.
    fn eval_chunk_search(&self, xs: &[f32], out: &mut [f32]) {
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            if x.is_nan() {
                *o = f32::NAN;
                continue;
            }
            let c = self.count_below(x);
            let s = c + usize::from(x >= last) * (n - c);
            let [ax, ay, m] = self.seg_packed[s];
            *o = m * (x - ax) + ay;
        }
    }

    /// Shared vector tail of both lane kernels: scalar coefficient
    /// gather (pass 2), then the anchored multiply-add and NaN screen
    /// eight lanes wide (pass 3).
    #[inline(always)]
    fn eval_block_from_segments<const SEGS: bool>(
        &self,
        xc: &[f32; LANE_BLOCK],
        s_arr: &[f32; LANE_BLOCK],
        oc: &mut [f32; LANE_BLOCK],
        segs: &mut [u32],
    ) {
        let nan = F32x8::splat(f32::NAN);
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
            if SEGS {
                segs[i] = s as u32;
            }
        }
        for g in 0..LANE_BLOCK / F32_LANES {
            let at = g * F32_LANES;
            let xv = F32x8::from_slice(&xc[at..]);
            let y = F32x8::from_slice(&m[at..]) * (xv - F32x8::from_slice(&ax[at..]))
                + F32x8::from_slice(&ay[at..]);
            xv.is_nan().select(nan, y).write_to(&mut oc[at..]);
        }
    }

    /// SIMD lane kernel for shallow tables: the branchless count runs
    /// eight elements wide (every breakpoint broadcast against a whole
    /// [`F32x8`]), structured as distributed passes over
    /// [`LANE_BLOCK`]-element blocks exactly like the f64 kernel. Counts
    /// stay exact in f32 lanes — the linear path only runs for ≤ 8
    /// segments.
    #[inline(always)]
    fn eval_chunk_linear_lanes<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        let n = self.breakpoints.len();
        let last = F32x8::splat(self.breakpoints[n - 1]);
        let nf = F32x8::splat(n as f32);
        let mut xi = xs.chunks_exact(LANE_BLOCK);
        let mut oi = out.chunks_exact_mut(LANE_BLOCK);
        let mut base = 0usize;
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            let xc: &[f32; LANE_BLOCK] = xc.try_into().unwrap();
            let oc: &mut [f32; LANE_BLOCK] = oc.try_into().unwrap();
            // Pass 1 (vector): lane-parallel branchless count, right-edge
            // select. NaN lanes count 0 and land on segment 0 exactly
            // like the scalar path; the final NaN screen replaces them.
            let mut s_arr = [0.0; LANE_BLOCK];
            for g in 0..LANE_BLOCK / F32_LANES {
                let at = g * F32_LANES;
                let xv = F32x8::from_slice(&xc[at..]);
                let mut cnt = F32x8::splat(0.0);
                for &b in &self.breakpoints {
                    cnt = cnt + F32x8::splat(b).lt(xv).ones();
                }
                xv.ge(last).select(nf, cnt).write_to(&mut s_arr[at..]);
            }
            let seg_slice: &mut [u32] = if SEGS { &mut segs[base..] } else { &mut [] };
            self.eval_block_from_segments::<SEGS>(xc, &s_arr, oc, seg_slice);
            base += LANE_BLOCK;
        }
        if SEGS {
            self.eval_segments_remainder(&xs[base..], &mut out[base..], &mut segs[base..]);
        } else {
            self.eval_chunk_linear_ref(xi.remainder(), oi.into_remainder());
        }
    }

    /// SIMD lane kernel for deep tables with `window ≤ 2`: bucket map,
    /// clamp and anchored multiply-add run eight lanes wide; the one
    /// scalar step per element is the aligned 32-byte `BucketLineF32`
    /// load — one comparison picks between the two candidate triples in
    /// the line, a conditional move retargets the right outer segment.
    #[inline(always)]
    fn eval_chunk_bucket2_lanes<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        debug_assert!(self.use_bucket2());
        let n = self.breakpoints.len();
        let last = self.breakpoints[n - 1];
        let lo = F32x8::splat(self.bucket_lo);
        let inv_w = F32x8::splat(self.bucket_inv_w);
        let hi_bucket = F32x8::splat((self.bucket_seed.len() - 1) as f32);
        let zero = F32x8::splat(0.0);
        let nan = F32x8::splat(f32::NAN);
        let right = [self.anchor_x[n], self.anchor_y[n], self.slope[n]];
        let mut xi = xs.chunks_exact(LANE_BLOCK);
        let mut oi = out.chunks_exact_mut(LANE_BLOCK);
        let mut base = 0usize;
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            let xc: &[f32; LANE_BLOCK] = xc.try_into().unwrap();
            let oc: &mut [f32; LANE_BLOCK] = oc.try_into().unwrap();
            // Pass 1 (vector): clamped bucket coordinate; NaN fails
            // `t ≥ 0` and lands in bucket 0 like the scalar cast.
            let mut t_arr = [0.0; LANE_BLOCK];
            for g in 0..LANE_BLOCK / F32_LANES {
                let at = g * F32_LANES;
                let xv = F32x8::from_slice(&xc[at..]);
                let t = (xv - lo) * inv_w;
                let t = t.ge(zero).select(t, zero);
                let t = t.le(hi_bucket).select(t, hi_bucket);
                t.write_to(&mut t_arr[at..]);
            }
            // Pass 2 (scalar): resolve each element's segment from its
            // 32-byte bucket line.
            let mut ax = [0.0; LANE_BLOCK];
            let mut ay = [0.0; LANE_BLOCK];
            let mut m = [0.0; LANE_BLOCK];
            for i in 0..LANE_BLOCK {
                let x = xc[i];
                // SAFETY: t_arr is clamped to [0, bucket_line.len() − 1]
                // and NaN-free by pass 1.
                let b = unsafe { t_arr[i].to_int_unchecked::<usize>() };
                let line = unsafe { &self.bucket_line.get_unchecked(b).0 };
                // count = seed + (bp(seed) < x); see BucketLineF32.
                let k = usize::from(line[0] < x);
                // SAFETY: 2 + 3k is 2 or 5; both triples are in the line.
                let cand = unsafe { line.get_unchecked(2 + 3 * k..) };
                let cand: &[f32] = if x >= last { &right } else { cand };
                ax[i] = cand[0];
                ay[i] = cand[1];
                m[i] = cand[2];
                if SEGS {
                    // SAFETY: line[1] is the seed, an exact small f32.
                    let seed = unsafe { line[1].to_int_unchecked::<usize>() };
                    let seg = if x >= last { n } else { seed + k };
                    segs[base + i] = seg as u32;
                }
            }
            // Pass 3 (vector): anchored multiply-add + NaN screen.
            for g in 0..LANE_BLOCK / F32_LANES {
                let at = g * F32_LANES;
                let xv = F32x8::from_slice(&xc[at..]);
                let y = F32x8::from_slice(&m[at..]) * (xv - F32x8::from_slice(&ax[at..]))
                    + F32x8::from_slice(&ay[at..]);
                xv.is_nan().select(nan, y).write_to(&mut oc[at..]);
            }
            base += LANE_BLOCK;
        }
        if SEGS {
            self.eval_segments_remainder(&xs[base..], &mut out[base..], &mut segs[base..]);
        } else {
            self.eval_chunk_bucket2_ref(xi.remainder(), oi.into_remainder());
        }
    }

    /// Scalar tail for the combined value + segment-index kernels.
    fn eval_segments_remainder(&self, xs: &[f32], out: &mut [f32], segs: &mut [u32]) {
        for ((&x, o), sg) in xs.iter().zip(out.iter_mut()).zip(segs.iter_mut()) {
            let s = self.segment_index(x);
            *sg = s as u32;
            *o = if x.is_nan() {
                f32::NAN
            } else {
                self.eval_at_segment(x, s)
            };
        }
    }

    /// Runtime-dispatched linear kernel: the AVX-512 sixteen-wide
    /// gather kernel where the CPU has it — the wider-lane step the
    /// `simd` module has pointed at since PR 2 — otherwise the portable
    /// lane body, recompiled under AVX2 when available.
    fn eval_chunk_linear_simd<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was verified at runtime.
                return unsafe { self.eval_chunk_linear_avx512::<SEGS>(xs, out, segs) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was verified at runtime.
                return unsafe { self.eval_chunk_linear_avx2::<SEGS>(xs, out, segs) };
            }
        }
        self.eval_chunk_linear_lanes::<SEGS>(xs, out, segs);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn eval_chunk_linear_avx2<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        self.eval_chunk_linear_lanes::<SEGS>(xs, out, segs);
    }

    /// Runtime-dispatched bucket kernel: the AVX-512 sixteen-wide gather
    /// kernel where the CPU has it, otherwise the portable lane body,
    /// recompiled under AVX2 when available.
    fn eval_chunk_bucket2_simd<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was verified at runtime.
                return unsafe { self.eval_chunk_bucket2_avx512::<SEGS>(xs, out, segs) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was verified at runtime.
                return unsafe { self.eval_chunk_bucket2_avx2::<SEGS>(xs, out, segs) };
            }
        }
        self.eval_chunk_bucket2_lanes::<SEGS>(xs, out, segs);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn eval_chunk_bucket2_avx2<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        self.eval_chunk_bucket2_lanes::<SEGS>(xs, out, segs);
    }

    /// AVX-512 bucket kernel: sixteen lanes per iteration, fully in
    /// registers — the bucket map, clamp, one-comparison count and
    /// anchored multiply-add are packed f32 arithmetic, and every table
    /// read is a hardware gather *into the 32-byte
    /// `BucketLineF32`* the lane's bucket already owns. Where the f64
    /// kernel gathers its three coefficients from the SoA columns (three
    /// more potentially cold lines per lane), the fused f32 line lets
    /// the resolved triple come from the line itself: the adjacent
    /// `[aₓ, a_y]` pair is pulled as a single 64-bit gather and the
    /// slope as one 32-bit gather, so a lane costs three gathered loads
    /// (breakpoint, pair, slope) instead of five — the half-width layout
    /// is what buys the f32-over-f64 speedup on deep tables, not just
    /// lane count. Performs exactly the same IEEE f32 operations as the
    /// lane kernel in the same order (no FMA contraction), and the line
    /// triples hold the same bits as the SoA columns they were fused
    /// from, so results stay bit-identical.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn eval_chunk_bucket2_avx512<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        use core::arch::x86_64::*;
        debug_assert!(self.use_bucket2());
        const W: usize = 16;
        let n = self.breakpoints.len();
        let lo = _mm512_set1_ps(self.bucket_lo);
        let inv_w = _mm512_set1_ps(self.bucket_inv_w);
        let hi_bucket = _mm512_set1_ps((self.bucket_seed.len() - 1) as f32);
        let zero = _mm512_setzero_ps();
        let one = _mm512_set1_ps(1.0);
        let two = _mm512_set1_epi32(2);
        let three = _mm512_set1_epi32(3);
        let nf = _mm512_set1_ps(n as f32);
        let last = _mm512_set1_ps(self.breakpoints[n - 1]);
        let nan = _mm512_set1_ps(f32::NAN);
        let right_ax = _mm512_set1_ps(self.anchor_x[n]);
        let right_ay = _mm512_set1_ps(self.anchor_y[n]);
        let right_m = _mm512_set1_ps(self.slope[n]);
        let lines = self.bucket_line.as_ptr() as *const f32;
        let mut xi = xs.chunks_exact(W);
        let mut oi = out.chunks_exact_mut(W);
        let mut base = 0usize;
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            // SAFETY: xc has exactly W elements.
            let xv = _mm512_loadu_ps(xc.as_ptr());
            // Bucket coordinate, clamped; NaN fails `t ≥ 0` → bucket 0,
            // mirroring the scalar path's saturating cast.
            let t = _mm512_mul_ps(_mm512_sub_ps(xv, lo), inv_w);
            let t = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(t, zero, _CMP_GE_OQ), zero, t);
            // min is NaN-safe here: t is NaN-free after the blend.
            let t = _mm512_min_ps(t, hi_bucket);
            // SAFETY: t is clamped to [0, buckets − 1]; the truncating
            // convert and the scaled gathers below stay in the line table.
            let bi = _mm512_cvttps_epi32(t);
            let bi8 = _mm512_slli_epi32(bi, 3); // line stride: 8 f32
            let blo = _mm512_i32gather_ps::<4>(bi8, lines);
            // candidate = line[2 + 3k ..], k = (bp(seed) < x); see
            // BucketLineF32 — one comparison resolves the triple.
            let kmask = _mm512_cmp_ps_mask(blo, xv, _CMP_LT_OQ);
            let idx = _mm512_add_epi32(bi8, two);
            let idx = _mm512_mask_add_epi32(idx, kmask, idx, three);
            // [aₓ, a_y] sit adjacent in the line: one 64-bit gather per
            // lane fetches both (8 lanes per gather, two gathers for the
            // block), then a truncate / shift-truncate splits the pair.
            let idx_lo = _mm512_extracti64x4_epi64::<0>(idx);
            let idx_hi = _mm512_extracti64x4_epi64::<1>(idx);
            let pair_lo = _mm512_i32gather_epi64::<4>(idx_lo, lines as *const i64);
            let pair_hi = _mm512_i32gather_epi64::<4>(idx_hi, lines as *const i64);
            let ax = _mm512_castsi512_ps(_mm512_inserti64x4::<1>(
                _mm512_castsi256_si512(_mm512_cvtepi64_epi32(pair_lo)),
                _mm512_cvtepi64_epi32(pair_hi),
            ));
            let ay = _mm512_castsi512_ps(_mm512_inserti64x4::<1>(
                _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(pair_lo))),
                _mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(pair_hi)),
            ));
            let m = _mm512_i32gather_ps::<4>(_mm512_add_epi32(idx, two), lines);
            // Right-edge lanes take the outer segment's triple — the
            // same conditional move the lane kernel applies per element.
            let ge = _mm512_cmp_ps_mask(xv, last, _CMP_GE_OQ);
            let ax = _mm512_mask_blend_ps(ge, ax, right_ax);
            let ay = _mm512_mask_blend_ps(ge, ay, right_ay);
            let m = _mm512_mask_blend_ps(ge, m, right_m);
            // m · (x − aₓ) + a_y with separate mul and add — bit-identical
            // to the lane kernel; then the NaN screen.
            let y = _mm512_add_ps(_mm512_mul_ps(m, _mm512_sub_ps(xv, ax)), ay);
            let y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(xv, xv, _CMP_UNORD_Q), y, nan);
            _mm512_storeu_ps(oc.as_mut_ptr(), y);
            if SEGS {
                // Segment index = seed + k (n at the right edge); the
                // seed slot holds it as an exact f32 for n < 2²⁴, so the
                // count arithmetic is exact. Gathered only in this
                // variant — the value path never touches the seed.
                let seed =
                    _mm512_i32gather_ps::<4>(_mm512_add_epi32(bi8, _mm512_set1_epi32(1)), lines);
                let c = _mm512_add_ps(seed, _mm512_maskz_mov_ps(kmask, one));
                let s = _mm512_mask_blend_ps(ge, c, nf);
                let si = _mm512_cvttps_epi32(s);
                // SAFETY: segs is as long as xs; si holds 16 i32 segment
                // indices whose bits are the u32 values we store.
                _mm512_storeu_si512(segs.as_mut_ptr().add(base) as *mut __m512i, si);
            }
            base += W;
        }
        if SEGS {
            self.eval_segments_remainder(&xs[base..], &mut out[base..], &mut segs[base..]);
        } else {
            self.eval_chunk_bucket2_ref(xi.remainder(), oi.into_remainder());
        }
    }

    /// AVX-512 linear-scan kernel: sixteen lanes per iteration, fully in
    /// registers — every breakpoint is broadcast against a whole 512-bit
    /// vector for the branchless count, and the three SoA coefficient
    /// reads are hardware gathers. Performs exactly the same IEEE f32
    /// operations as the lane kernel in the same order (no FMA
    /// contraction), so results stay bit-identical.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn eval_chunk_linear_avx512<const SEGS: bool>(
        &self,
        xs: &[f32],
        out: &mut [f32],
        segs: &mut [u32],
    ) {
        use core::arch::x86_64::*;
        const W: usize = 16;
        let n = self.breakpoints.len();
        let one = _mm512_set1_ps(1.0);
        let nf = _mm512_set1_ps(n as f32);
        let last = _mm512_set1_ps(self.breakpoints[n - 1]);
        let nan = _mm512_set1_ps(f32::NAN);
        let mut xi = xs.chunks_exact(W);
        let mut oi = out.chunks_exact_mut(W);
        let mut base = 0usize;
        for (xc, oc) in (&mut xi).zip(&mut oi) {
            // SAFETY: xc has exactly W elements.
            let xv = _mm512_loadu_ps(xc.as_ptr());
            // Branchless count of breakpoints < x; NaN lanes count 0 and
            // fail the ≥ test, landing on segment 0 like the scalar path.
            let mut cnt = _mm512_setzero_ps();
            for &b in &self.breakpoints {
                let lt = _mm512_cmp_ps_mask(_mm512_set1_ps(b), xv, _CMP_LT_OQ);
                cnt = _mm512_add_ps(cnt, _mm512_maskz_mov_ps(lt, one));
            }
            let s = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(xv, last, _CMP_GE_OQ), cnt, nf);
            // SAFETY: every lane of s is a segment index ≤ n ≤ 8; the
            // three SoA columns have n + 1 entries.
            let si = _mm512_cvttps_epi32(s);
            let ax = _mm512_i32gather_ps::<4>(si, self.anchor_x.as_ptr());
            let ay = _mm512_i32gather_ps::<4>(si, self.anchor_y.as_ptr());
            let m = _mm512_i32gather_ps::<4>(si, self.slope.as_ptr());
            // m · (x − aₓ) + a_y with separate mul and add, then the NaN
            // screen — bit-identical to the lane kernel.
            let y = _mm512_add_ps(_mm512_mul_ps(m, _mm512_sub_ps(xv, ax)), ay);
            let y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(xv, xv, _CMP_UNORD_Q), y, nan);
            _mm512_storeu_ps(oc.as_mut_ptr(), y);
            if SEGS {
                // SAFETY: segs is as long as xs; si holds 16 i32 segment
                // indices whose bits are the u32 values we store.
                _mm512_storeu_si512(segs.as_mut_ptr().add(base) as *mut __m512i, si);
            }
            base += W;
        }
        if SEGS {
            self.eval_segments_remainder(&xs[base..], &mut out[base..], &mut segs[base..]);
        } else {
            self.eval_chunk_linear_ref(xi.remainder(), oi.into_remainder());
        }
    }

    fn eval_chunk(&self, xs: &[f32], out: &mut [f32]) {
        if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
            self.eval_chunk_linear_simd::<false>(xs, out, &mut []);
        } else if self.use_bucket2() {
            self.eval_chunk_bucket2_simd::<false>(xs, out, &mut []);
        } else {
            self.eval_chunk_search(xs, out);
        }
    }

    /// The pre-SIMD batch path: instruction-level-parallel scalar
    /// kernels, kept callable as the measured `batch-f32` baseline in
    /// `compiled_vs_scalar` and as the lane kernels' tail. Bit-identical
    /// to [`CompiledPwlF32::eval_into`] and [`CompiledPwlF32::eval_one`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn eval_into_ref(&self, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
                self.eval_chunk_linear_ref(xc, oc);
            } else if self.use_bucket2() {
                self.eval_chunk_bucket2_ref(xc, oc);
            } else {
                self.eval_chunk_search(xc, oc);
            }
        }
    }

    /// Evaluates `xs` into `out` through the runtime-dispatched SIMD
    /// kernels — the f32 mirror of [`crate::PwlEvaluator::eval_into`].
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn eval_into(&self, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            self.eval_chunk(xc, oc);
        }
    }

    /// Evaluates `xs` into a fresh `Vec`.
    pub fn eval_batch(&self, xs: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; xs.len()];
        self.eval_into(xs, &mut out);
        out
    }

    /// Evaluates the packed input and scatters results into the
    /// non-contiguous output slices, in order — the f32 mirror of
    /// [`CompiledPwl::eval_scatter_into`], and the serving front-end's
    /// f32 flush entry point. Bit-identical to evaluating the packed
    /// buffer contiguously.
    ///
    /// # Panics
    ///
    /// Panics if the output lengths do not sum to `xs.len()`.
    pub fn eval_scatter_into(&self, xs: &[f32], outs: &mut [&mut [f32]]) {
        scatter_into::<f32>(self, xs, outs);
    }

    /// Evaluates every sample *and* records its table-order segment
    /// index in one widened sweep — the f32 mirror of
    /// [`CompiledPwl::eval_and_segments_into`]. Values are bit-identical
    /// to [`CompiledPwlF32::eval_into`]; NaN samples report segment 0
    /// and evaluate to NaN.
    ///
    /// # Panics
    ///
    /// Panics if `xs`, `out` and `segs` differ in length.
    pub fn eval_and_segments_into(&self, xs: &[f32], out: &mut [f32], segs: &mut [u32]) {
        assert_eq!(xs.len(), out.len(), "input/output length mismatch");
        assert_eq!(xs.len(), segs.len(), "input/segment length mismatch");
        for ((xc, oc), sc) in xs
            .chunks(CHUNK)
            .zip(out.chunks_mut(CHUNK))
            .zip(segs.chunks_mut(CHUNK))
        {
            if self.num_segments() <= LINEAR_SCAN_MAX_SEGMENTS {
                self.eval_chunk_linear_simd::<true>(xc, oc, sc);
            } else if self.use_bucket2() {
                self.eval_chunk_bucket2_simd::<true>(xc, oc, sc);
            } else {
                self.eval_segments_remainder(xc, oc, sc);
            }
        }
    }
}

/// The threaded f32 engine: [`crate::ParallelPwl`] over a
/// [`CompiledPwlF32`], with the same serial crossover and job-boundary
/// run splitting as the f64 fan-out.
pub type ParallelPwlF32 = crate::ParallelPwl<f32>;

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

    fn deep_pwl() -> PwlFunction {
        let p: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 6.0).collect();
        let v: Vec<f64> = p.iter().map(|x| x.sin()).collect();
        PwlFunction::new(p, v, 0.1, -0.2).unwrap()
    }

    fn dense_grid(a: f32, b: f32, m: usize) -> Vec<f32> {
        (0..m)
            .map(|k| a + (b - a) * k as f32 / (m - 1) as f32)
            .collect()
    }

    #[test]
    fn shapes_and_accessors() {
        let pwl = sample_pwl();
        let c = CompiledPwlF32::from_pwl(&pwl);
        assert_eq!(c.num_breakpoints(), 4);
        assert_eq!(c.num_segments(), 5);
        assert_eq!(c.breakpoints(), &[-2.0f32, -1.0, 0.5, 2.0]);
        assert_eq!(c.slopes()[0], pwl.left_slope() as f32);
        assert_eq!(c.slopes()[4], pwl.right_slope() as f32);
    }

    #[test]
    fn from_compiled_is_identical_to_from_pwl() {
        for pwl in [sample_pwl(), deep_pwl()] {
            let direct = CompiledPwlF32::from_pwl(&pwl);
            let via_f64 = CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(&pwl));
            assert_eq!(direct, via_f64);
        }
    }

    #[test]
    fn batch_paths_are_bit_identical_to_eval_one() {
        for pwl in [sample_pwl(), deep_pwl()] {
            let c = CompiledPwlF32::from_pwl(&pwl);
            let xs = dense_grid(-10.0, 10.0, 4001);
            let simd = c.eval_batch(&xs);
            let mut reference = vec![0.0f32; xs.len()];
            c.eval_into_ref(&xs, &mut reference);
            for ((&x, &ys), &yr) in xs.iter().zip(&simd).zip(&reference) {
                assert_eq!(ys.to_bits(), c.eval_one(x).to_bits(), "simd at {x}");
                assert_eq!(yr.to_bits(), ys.to_bits(), "ref at {x}");
            }
        }
    }

    #[test]
    fn tracks_f64_reference_closely() {
        // Not bit-equal to f64 (by design), but within a few f32 ulps at
        // these magnitudes; the per-function budgets live in simd_parity.
        let pwl = deep_pwl();
        let c = CompiledPwlF32::from_pwl(&pwl);
        for x in dense_grid(-8.0, 8.0, 2001) {
            let want = pwl.eval(x as f64);
            let got = c.eval_one(x) as f64;
            assert!((got - want).abs() <= 1e-5, "at {x}: {got} vs {want}");
        }
    }

    #[test]
    fn offset_range_stays_exact() {
        // A narrow range at a large offset: in f32 the bucket-edge
        // rounding here defeats a fixed one-bucket margin, which is why
        // the index is measured against the eval-time bucket map.
        let p: Vec<f64> = (0..33).map(|i| 100.0 + i as f64 * (0.05 / 32.0)).collect();
        let v: Vec<f64> = p.iter().map(|x| (x - 100.0).cos()).collect();
        let pwl = PwlFunction::new(p, v, 0.3, -0.3).unwrap();
        let c = CompiledPwlF32::from_pwl(&pwl);
        let mut xs = dense_grid(99.99, 100.06, 4001);
        for &b in c.breakpoints() {
            xs.extend([
                b,
                f32::from_bits(b.to_bits() - 1),
                f32::from_bits(b.to_bits() + 1),
            ]);
        }
        let batch = c.eval_batch(&xs);
        for (&x, &y) in xs.iter().zip(&batch) {
            assert_eq!(y.to_bits(), c.eval_one(x).to_bits(), "at {x}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let c = CompiledPwlF32::from_pwl(&deep_pwl());
        let par = ParallelPwlF32::with_threads(c.clone(), 4);
        let xs = dense_grid(-6.0, 6.0, 50_000);
        let batch = c.eval_batch(&xs);
        let parallel = par.eval_batch(&xs);
        for (i, (&yb, &yp)) in batch.iter().zip(&parallel).enumerate() {
            assert_eq!(yp.to_bits(), yb.to_bits(), "at {i}");
        }
    }

    #[test]
    fn nan_propagates_through_all_paths() {
        let c = CompiledPwlF32::from_pwl(&sample_pwl());
        assert!(c.eval_one(f32::NAN).is_nan());
        let mut out = [0.0f32; 3];
        c.eval_into(&[0.0, f32::NAN, 1.0], &mut out);
        assert!(!out[0].is_nan() && out[1].is_nan() && !out[2].is_nan());
    }

    #[test]
    fn refill_is_indistinguishable_from_fresh_compile() {
        let shallow = sample_pwl();
        let deep = deep_pwl();
        let mut engine = CompiledPwlF32::from_pwl(&shallow);
        for target in [&deep, &shallow, &deep] {
            engine.refill_from_pwl(target);
            assert_eq!(engine, CompiledPwlF32::from_pwl(target));
            let compiled = CompiledPwl::from_pwl(target);
            engine.refill_from_compiled(&compiled);
            assert_eq!(engine, CompiledPwlF32::from_pwl(target));
            let xs = dense_grid(-8.0, 8.0, 1001);
            let fresh = CompiledPwlF32::from_pwl(target);
            for &x in &xs {
                assert_eq!(engine.eval_one(x).to_bits(), fresh.eval_one(x).to_bits());
            }
        }
    }

    #[test]
    fn segments_agree_with_eval_at_segment() {
        for pwl in [sample_pwl(), deep_pwl()] {
            let c = CompiledPwlF32::from_pwl(&pwl);
            let xs = dense_grid(-4.0, 4.0, 513);
            let mut segs = vec![0u32; xs.len()];
            c.segments_into(&xs, &mut segs);
            let mut out = vec![0.0f32; xs.len()];
            let mut segs2 = vec![0u32; xs.len()];
            c.eval_and_segments_into(&xs, &mut out, &mut segs2);
            assert_eq!(segs, segs2);
            for ((&x, &s), &y) in xs.iter().zip(&segs).zip(&out) {
                assert_eq!(y.to_bits(), c.eval_at_segment(x, s as usize).to_bits());
                assert_eq!(y.to_bits(), c.eval_one(x).to_bits());
            }
        }
    }

    #[test]
    fn degenerate_two_breakpoint_function() {
        let pwl = PwlFunction::new(vec![0.0, 1.0], vec![0.0, 2.0], -1.0, 3.0).unwrap();
        let c = CompiledPwlF32::from_pwl(&pwl);
        assert_eq!(c.num_segments(), 3);
        for x in dense_grid(-3.0, 4.0, 1001) {
            let want = pwl.eval(x as f64) as f32;
            // The table is exact in f32 here, so even f64 agreement is
            // bitwise after rounding.
            assert_eq!(c.eval_one(x).to_bits(), want.to_bits(), "at {x}");
        }
    }

    #[test]
    fn scatter_matches_contiguous_eval() {
        let c = CompiledPwlF32::from_pwl(&sample_pwl());
        let xs = dense_grid(-6.0, 6.0, 10_000);
        let want = c.eval_batch(&xs);
        let sizes = [0usize, 7, 1, 0, 4096, 513, 0, 31, 5352, 0];
        assert_eq!(sizes.iter().sum::<usize>(), xs.len());
        let mut bufs: Vec<Vec<f32>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let mut views: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        c.eval_scatter_into(&xs, &mut views);
        let flat: Vec<f32> = bufs.concat();
        for (i, (&w, &got)) in want.iter().zip(&flat).enumerate() {
            assert_eq!(got.to_bits(), w.to_bits(), "scatter mismatch at {i}");
        }
        let par = ParallelPwlF32::with_threads(c, 4);
        let mut bufs2: Vec<Vec<f32>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let mut views2: Vec<&mut [f32]> = bufs2.iter_mut().map(|b| b.as_mut_slice()).collect();
        par.eval_scatter_into(&xs, &mut views2);
        assert_eq!(bufs, bufs2);
    }

    #[test]
    fn scatter_parallel_splits_at_job_boundaries() {
        splitter_tests::splits_at_job_boundaries::<f32>();
    }

    #[test]
    fn scatter_parallel_caps_runs_at_thread_count() {
        splitter_tests::caps_runs_at_thread_count::<f32>();
    }

    #[test]
    fn scatter_accepts_empty_input_and_outputs() {
        splitter_tests::accepts_empty_input_and_outputs::<f32>();
    }

    #[test]
    #[should_panic(expected = "partition the input")]
    fn scatter_rejects_mismatched_totals() {
        let c = CompiledPwlF32::from_pwl(&sample_pwl());
        let mut buf = [0.0f32; 2];
        let mut views = [buf.as_mut_slice()];
        c.eval_scatter_into(&[0.0; 3], &mut views);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn eval_into_rejects_mismatched_lengths() {
        let c = CompiledPwlF32::from_pwl(&sample_pwl());
        let mut out = [0.0f32; 2];
        c.eval_into(&[0.0; 3], &mut out);
    }
}
