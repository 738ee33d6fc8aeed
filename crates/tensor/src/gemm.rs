//! Cache-blocked, register-tiled GEMM with packed operand panels and fused
//! epilogues — the compute core of the inference hot path.
//!
//! # Why this module exists
//!
//! The naive kernels in [`crate::ops`] compute each output element with a
//! single-accumulator dot product. That loop carries a dependency on the
//! accumulator, so the CPU retires at best one add per float-add latency —
//! a few percent of machine peak — and every `Linear` layer then makes two
//! *more* full sweeps over its output for bias and activation. This module
//! restructures the same arithmetic into the classic BLIS-style hierarchy:
//!
//! * **register tile** ([`MR`] × [`NR`]): the micro-kernel keeps an
//!   `MR × NR` accumulator block in registers and sweeps the shared `k`
//!   dimension once. The `MR * NR` accumulator chains are independent, so
//!   the autovectorizer turns the inner loop into wide mul/add (or FMA,
//!   where the target contracts) with enough instruction-level parallelism
//!   to hide the floating-point latency;
//! * **panel packing** ([`PackedB`] / [`PackedA`]): the `B` operand is
//!   repacked into `NR`-wide column panels laid out contiguously in the
//!   `k` direction, so every micro-kernel step loads one cache line
//!   instead of gathering a strided column. Inference weights never
//!   change, so layers pack **once at model load** and steady-state
//!   forwards never repack;
//! * **cache blocking** ([`KC`]): the `k` dimension is walked in `KC`-deep
//!   slabs so the active `B` panel stays L1-resident for large problems;
//! * **fused epilogue** ([`Epilogue`]): β/bias/activation are applied to
//!   each output tile while it is still register/L1-hot, deleting the
//!   separate full-tensor bias and activation sweeps.
//!
//! # Determinism
//!
//! Every output element is accumulated in **fixed ascending-`k` order**
//! with one accumulator chain per element, exactly like the naive
//! reference kernel (`acc = acc + a*b`, no `mul_add`). Tiling only changes
//! *which elements* are computed together, never the order of additions
//! within an element, and `KC` slabs resume the same chain (partials are
//! stored and reloaded exactly — f32/f64 round-trips are lossless). The
//! result is therefore **bit-identical** across:
//!
//! * thread counts (parallelism splits rows/samples, never the `k` sum),
//! * blocking parameters (`KC`, stripe sizes — see
//!   [`matmul_transb_packed_into_kc`]),
//! * packed vs. unpacked operands, fused vs. unfused epilogues, and
//! * the batch size a row happens to be computed under — the invariant
//!   the runtime's dynamic batching relies on.
//!
//! # Blocking parameters
//!
//! | const | value | role |
//! |-------|-------|------|
//! | [`MR`]  | 8   | rows per register tile (accumulator block height) |
//! | [`NR`]  | 16  | columns per register tile and per packed panel |
//! | [`KC`]  | 256 | k-depth per cache slab (`NR*KC` B-panel ≤ 16 KiB f32) |
//!
//! [`par_rows_per_block`] is the one shared heuristic that converts these
//! into parallel task sizes for every kernel in the crate.

use crate::scalar::Scalar;
use crate::tensor::Tensor;
use crate::{Result, TensorError};
use std::cell::RefCell;

/// Rows per register tile: height of the accumulator block held in
/// registers by the micro-kernel.
pub const MR: usize = 8;

/// Columns per register tile **and** width of one packed `B` panel. The
/// micro-kernel's unit of SIMD work is an `NR`-wide row.
pub const NR: usize = 16;

/// `k`-depth of one cache slab. One `B` panel slab is `NR * KC` elements
/// (16 KiB at f32), sized to stay L1-resident while a C stripe is swept.
pub const KC: usize = 256;

// ---------------------------------------------------------------------------
// Parallel blocking heuristic (shared by matmul / conv / gemm)
// ---------------------------------------------------------------------------

/// Parallelism threshold: below this many multiply-adds a kernel runs
/// inline on the calling thread — dispatch overhead would dominate.
///
/// Measured basis (re-tuned against the work-stealing pool on the
/// `bench_json` shapes): one pool dispatch costs on the order of a few
/// microseconds (publish + wake + barrier), and the micro-kernel sustains
/// a few multiply-adds per cycle, so ~32 Ki multiply-adds (≈ 10 µs of
/// work) is the break-even point below which the dispatch itself would be
/// a measurable fraction of the kernel.
pub const PAR_FLOPS_MIN: usize = 1 << 15;

/// Multiply-adds targeted per parallel task. Tasks much smaller than this
/// pay per-claim overhead (an atomic compare-exchange each); much larger
/// ones defeat stealing — a straggler's whole task is indivisible, so the
/// tail latency is one task. `PAR_FLOPS_MIN * 8` ≈ 262 Ki multiply-adds
/// keeps the MLP bench layer (`m=1024, n=128, k=128` → 16 rows/task, 64
/// tasks) fine-grained enough that 8 participants each claim ~8 tasks and
/// the steal path can level any imbalance.
pub const PAR_TASK_FLOPS: usize = PAR_FLOPS_MIN * 8;

/// Lower bound on tasks per participant when a problem is row-abundant:
/// with at least this many claimable tasks per thread, the work-stealing
/// cursor can rebalance a straggler without the tail dominating. 4 keeps
/// per-claim overhead under a percent at [`PAR_TASK_FLOPS`] task sizes.
pub const PAR_TASKS_PER_THREAD: usize = 4;

/// The one block-size heuristic shared by every row-parallel kernel
/// (GEMM stripes, the legacy matmul family, convolution sample blocks):
/// how many of the `m` output rows of an `[m, n]` result (each costing
/// `n * k` multiply-adds) one parallel task should own. Always in `1..=m`.
///
/// Two forces: the *flops* term targets [`PAR_TASK_FLOPS`] multiply-adds
/// per task (dispatch amortization), and the *balance* term caps a task
/// at `m / (threads * PAR_TASKS_PER_THREAD)` rows so that even
/// flops-light, row-heavy problems split into enough tasks for every
/// participant of the current pool to claim several. The thread count
/// only moves *where stripe boundaries fall*, never how any output
/// element accumulates its `k`-sum, so results stay bitwise identical
/// across pool sizes (pinned by `gemm_determinism`).
///
/// Keeping matmul, conv and GEMM on this single function means their task
/// granularities cannot drift apart as the constants are tuned.
pub fn par_rows_per_block(m: usize, n: usize, k: usize) -> usize {
    let flops_rows = (PAR_TASK_FLOPS / (n * k).max(1)).max(1);
    let threads = hpacml_par::current_parallelism();
    let balance_rows = m.div_ceil(threads * PAR_TASKS_PER_THREAD).max(MR);
    flops_rows.min(balance_rows).clamp(1, m.max(1))
}

/// Is an `[m, n] = [m, k] · [k, n]` problem big enough to leave the
/// calling thread? (Single-row problems never are: rows are the parallel
/// axis.)
pub fn par_worthwhile(m: usize, n: usize, k: usize) -> bool {
    m > 1 && m * n * k >= PAR_FLOPS_MIN
}

/// The shared "cores in use" heuristic: does an outer parallel loop over
/// `outer` independent items already saturate the current pool? When it
/// does, inner kernels should run inline (sample-level parallelism wins);
/// when it does not — small batches on a wide pool — the forward path
/// drops to intra-GEMM row parallelism instead. A pure function of the
/// item count and the pool width, so whether a sample was computed inside
/// a big batch or alone never changes which math runs on its data.
pub fn outer_saturates(outer: usize) -> bool {
    outer >= hpacml_par::current_parallelism()
}

// ---------------------------------------------------------------------------
// Epilogue
// ---------------------------------------------------------------------------

/// Activation functions the epilogue can fuse. The formulas are exactly
/// the ones the `nn` activation layers use, so a fused
/// `Linear→activation` pair is bit-identical to the unfused stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// `max(v, 0)`
    Relu,
    /// `tanh(v)` via [`Scalar::tanh_activation`] (vectorizable rational
    /// approximation for `f32`; see [`crate::scalar::fast_tanh_f32`])
    Tanh,
    /// `1 / (1 + e^-v)`
    Sigmoid,
}

impl Act {
    /// Apply the activation to one value.
    #[inline(always)]
    pub fn apply<T: Scalar>(self, v: T) -> T {
        match self {
            Act::Relu => v.maximum(T::ZERO),
            Act::Tanh => v.tanh_activation(),
            Act::Sigmoid => T::ONE / (T::ONE + (-v).exp()),
        }
    }
}

/// Which axis a fused bias broadcasts along.
#[derive(Debug, Clone, Copy)]
pub enum Bias<'a, T> {
    /// No bias term.
    None,
    /// `c[i, j] += bias[j]` — one bias per output column (Linear layers,
    /// where columns are output features).
    Col(&'a [T]),
    /// `c[i, j] += bias[i]` — one bias per output row (convolution GEMM,
    /// where rows are filters).
    Row(&'a [T]),
}

/// Fused epilogue: what happens to each output tile after its `k`-sum
/// finishes, while it is still register-hot. Order is always
/// `acc → (+bias) → activation`, matching the unfused layer stack
/// (`matmul` then `add_bias_rows` then activation map) bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a, T> {
    pub bias: Bias<'a, T>,
    pub act: Option<Act>,
}

impl<'a, T> Epilogue<'a, T> {
    /// Plain overwrite: `c = a·b`.
    pub fn none() -> Self {
        Epilogue {
            bias: Bias::None,
            act: None,
        }
    }

    /// `c = a·b + bias[col]`.
    pub fn col_bias(bias: &'a [T]) -> Self {
        Epilogue {
            bias: Bias::Col(bias),
            act: None,
        }
    }

    /// `c = a·b + bias[row]`.
    pub fn row_bias(bias: &'a [T]) -> Self {
        Epilogue {
            bias: Bias::Row(bias),
            act: None,
        }
    }

    /// Append an optional activation to whatever this epilogue does.
    pub fn with_act(mut self, act: Option<Act>) -> Self {
        self.act = act;
        self
    }
}

// ---------------------------------------------------------------------------
// Packed operands
// ---------------------------------------------------------------------------

/// The `B` operand of `C[m,n] = A[m,k] · B[k,n]`, repacked into `NR`-wide
/// column panels: panel `p` holds columns `p*NR .. p*NR+NR` laid out
/// `k`-major (`data[(p*k + kk)*NR + j]`), zero-padded past column `n`.
/// Each micro-kernel step then loads one contiguous `NR`-vector.
///
/// Inference weights are immutable, so `Linear` layers build one of these
/// **once at model load** and every forward pass reuses it.
#[derive(Debug, Clone, Default)]
pub struct PackedB<T: Scalar> {
    k: usize,
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> PackedB<T> {
    pub fn new() -> Self {
        PackedB {
            k: 0,
            n: 0,
            data: Vec::new(),
        }
    }

    /// Logical dims of the packed matrix: `[k, n]`.
    pub fn k(&self) -> usize {
        self.k
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of `NR`-wide panels (last one possibly zero-padded).
    pub fn panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// Elements a pack of `[k, n]` needs — for workspace pre-sizing.
    pub fn packed_elems(k: usize, n: usize) -> usize {
        n.div_ceil(NR) * k * NR
    }

    fn prepare(&mut self, k: usize, n: usize) {
        self.k = k;
        self.n = n;
        let need = Self::packed_elems(k, n);
        // Grow-only, in place: steady-state repacks are allocation-free.
        if self.data.len() < need {
            self.data.resize(need, T::ZERO);
        }
    }

    /// Pack from row-major `[k, n]` storage (columns of `B` as stored).
    pub fn pack_cols_into(&mut self, b: &[T], k: usize, n: usize) {
        assert_eq!(b.len(), k * n, "PackedB::pack_cols_into: bad B length");
        self.prepare(k, n);
        for p in 0..self.panels() {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let panel = &mut self.data[p * k * NR..(p + 1) * k * NR];
            for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
                let src = &b[kk * n + j0..kk * n + j0 + w];
                row[..w].copy_from_slice(src);
                for v in &mut row[w..] {
                    *v = T::ZERO;
                }
            }
        }
    }

    /// Pack from row-major `[n, k]` storage — the `Bᵀ` ("transb") layout
    /// `Linear` weights use (`w[out, in]`, logical `B = wᵀ`).
    pub fn pack_rows_into(&mut self, bt: &[T], n: usize, k: usize) {
        assert_eq!(bt.len(), n * k, "PackedB::pack_rows_into: bad B length");
        self.prepare(k, n);
        for p in 0..self.panels() {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let panel = &mut self.data[p * k * NR..(p + 1) * k * NR];
            for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = if j < w {
                        bt[(j0 + j) * k + kk]
                    } else {
                        T::ZERO
                    };
                }
            }
        }
    }

    /// Pack a rank-2 tensor stored in transb layout `[n, k]`.
    pub fn from_transb(t: &Tensor<T>) -> Result<Self> {
        if t.rank() != 2 {
            return Err(TensorError::DimMismatch(format!(
                "PackedB::from_transb: expected rank 2, got {:?}",
                t.dims()
            )));
        }
        let (n, k) = (t.dims()[0], t.dims()[1]);
        let mut p = PackedB::new();
        p.pack_rows_into(t.data(), n, k);
        Ok(p)
    }

    /// One panel's `k`-major data (`k * NR` elements), offset to slab `k0`.
    #[inline]
    fn panel_slab(&self, p: usize, k0: usize) -> &[T] {
        &self.data[p * self.k * NR + k0 * NR..(p + 1) * self.k * NR]
    }
}

/// The `A` operand, repacked by `MR`-row blocks: full blocks are stored
/// `k`-major interleaved (`data[(blk*k + kk)*MR + i]`) so the micro-kernel
/// reads its `MR` broadcast values from one cache line; the `m % MR`
/// remainder rows are appended row-major and processed by the single-row
/// kernel. `Conv2d` weights (`[filters, c*kh*kw]`) pre-pack into this at
/// model load.
#[derive(Debug, Clone, Default)]
pub struct PackedA<T: Scalar> {
    m: usize,
    k: usize,
    blocks: usize,
    data: Vec<T>,
}

impl<T: Scalar> PackedA<T> {
    pub fn new() -> Self {
        PackedA {
            m: 0,
            k: 0,
            blocks: 0,
            data: Vec::new(),
        }
    }

    pub fn m(&self) -> usize {
        self.m
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Pack from row-major `[m, k]` storage.
    pub fn pack_rows_into(&mut self, a: &[T], m: usize, k: usize) {
        assert_eq!(a.len(), m * k, "PackedA::pack_rows_into: bad A length");
        self.m = m;
        self.k = k;
        self.blocks = m / MR;
        if self.data.len() < m * k {
            self.data.resize(m * k, T::ZERO);
        }
        for blk in 0..self.blocks {
            let dst = &mut self.data[blk * k * MR..(blk + 1) * k * MR];
            for (kk, row) in dst.chunks_exact_mut(MR).enumerate() {
                for (i, v) in row.iter_mut().enumerate() {
                    *v = a[(blk * MR + i) * k + kk];
                }
            }
        }
        // Remainder rows verbatim.
        let rem0 = self.blocks * MR;
        self.data[rem0 * k..m * k].copy_from_slice(&a[rem0 * k..]);
    }

    /// Pack a row-major `[m, k]` tensor view (any rank collapsed by caller).
    pub fn from_rows(data: &[T], m: usize, k: usize) -> Self {
        let mut p = PackedA::new();
        p.pack_rows_into(data, m, k);
        p
    }

    #[inline]
    fn block_slab(&self, blk: usize, k0: usize) -> &[T] {
        &self.data[blk * self.k * MR + k0 * MR..(blk + 1) * self.k * MR]
    }

    /// The row-major remainder region from `row` to the end (`row` must be
    /// past the packed blocks) — multi-row remainder tiles read across
    /// consecutive rows with stride `k`.
    #[inline]
    fn rem_rows(&self, row: usize) -> &[T] {
        debug_assert!(row >= self.blocks * MR && row < self.m);
        &self.data[row * self.k..self.m * self.k]
    }
}

// ---------------------------------------------------------------------------
// Operand sources
// ---------------------------------------------------------------------------

/// Where the `A` operand comes from.
#[derive(Clone, Copy)]
pub enum ASource<'a, T: Scalar> {
    /// Row-major `[m, k]` slice, read in place (no packing sweep).
    Rows(&'a [T]),
    /// Pre-packed `MR`-row blocks (see [`PackedA`]).
    Packed(&'a PackedA<T>),
}

/// Where the `B` operand comes from.
#[derive(Clone, Copy)]
pub enum BSource<'a, T: Scalar> {
    /// Row-major `[k, n]` slice, read in place. Panel loads are contiguous
    /// here too (a `B` row *is* `n` consecutive columns); the ragged last
    /// panel falls back to a per-column scalar loop.
    Cols(&'a [T]),
    /// Pre-packed `NR`-wide zero-padded panels (see [`PackedB`]).
    Packed(&'a PackedB<T>),
    /// The column matrix of a stride-1 convolution, read straight out of
    /// the padded input planes instead of being built (see
    /// [`PaddedPlanes`]).
    Conv(PaddedPlanes<'a, T>),
}

/// One sample's input planes, zero-padded once, viewed as the
/// `[c*kh*kw, oh*ow]` `B` operand of a stride-1 convolution — the matrix
/// im2col would write, never materialized.
///
/// `data[(ch * hp + y) * wp + x]` is input pixel `(ch, y - ph, x - pw)`,
/// or zero on the padding ring, followed by at least [`NR`] slack
/// elements. Tap `kk = (ch * kh + ki) * kw + kj` at output pixel
/// `(oy, ox)` then sits at `data[oy * wp + ox + tap(kk)]`, with
/// `tap(kk) = ch * hp * wp + ki * wp + kj`, so one panel — `NR`
/// consecutive `ox` of one output row — is `NR` contiguous elements per
/// tap. Panels never cross an output row: the last one of a row computes
/// its `NR - cols` spare lanes from whatever follows (the next row, or the
/// slack) and the store drops them. The values the kept lanes read are
/// exactly the ones im2col copies, zeros included, so the route is
/// bit-identical to im2col + [`BSource::Cols`].
#[derive(Clone, Copy)]
pub struct PaddedPlanes<'a, T> {
    data: &'a [T],
    channels: usize,
    hp: usize,
    wp: usize,
    kernel: (usize, usize),
}

impl<'a, T: Scalar> PaddedPlanes<'a, T> {
    /// View `data` (laid out as in the type docs) as the `B` operand of a
    /// `kernel`-sized stride-1 convolution. Panics if `data` is shorter than
    /// `channels * hp * wp + NR` or the kernel does not fit the planes.
    pub fn new(
        data: &'a [T],
        channels: usize,
        hp: usize,
        wp: usize,
        kernel: (usize, usize),
    ) -> Self {
        assert!(
            data.len() >= channels * hp * wp + NR,
            "PaddedPlanes: buffer lacks the planes or the NR slack"
        );
        assert!(
            (1..=hp).contains(&kernel.0) && (1..=wp).contains(&kernel.1),
            "PaddedPlanes: kernel {kernel:?} does not fit {hp}x{wp} planes"
        );
        PaddedPlanes {
            data,
            channels,
            hp,
            wp,
            kernel,
        }
    }

    /// Output extent `(oh, ow)`: the `B` operand has `oh * ow` columns.
    pub fn out_hw(&self) -> (usize, usize) {
        (self.hp + 1 - self.kernel.0, self.wp + 1 - self.kernel.1)
    }

    /// Taps per output pixel, `c * kh * kw`: the `B` operand's `k`.
    pub fn taps(&self) -> usize {
        self.channels * self.kernel.0 * self.kernel.1
    }

    /// Offset of tap `kk` from its output pixel's position in `data`.
    #[inline]
    fn tap(&self, kk: usize) -> usize {
        let (kh, kw) = self.kernel;
        let (ch, ki, kj) = (kk / (kh * kw), kk / kw % kh, kk % kw);
        (ch * self.hp + ki) * self.wp + kj
    }
}

// ---------------------------------------------------------------------------
// Micro-kernel
// ---------------------------------------------------------------------------

/// How the micro-kernel reads its `B` slab: `row(kk)` returns the `NR`
/// lanes `B[k0 + kk, j0 .. j0 + NR]` of the panel being computed. Every
/// operand layout is one implementation of this, so one kernel body serves
/// them all: packed panels and row-major `B` (a fixed row stride), the
/// zero-copy convolution (a tap offset per row) and the quantized panels
/// of [`crate::quant`] (decoded as they load).
pub(crate) trait BRows<T>: Copy {
    fn row(&self, kk: usize) -> [T; NR];
}

/// `B` rows at a fixed stride: row `kk` is `b[kk * ld ..][.. NR]`.
#[derive(Clone, Copy)]
struct Strided<'a, T> {
    b: &'a [T],
    ld: usize,
}

impl<T: Scalar> BRows<T> for Strided<'_, T> {
    #[inline(always)]
    fn row(&self, kk: usize) -> [T; NR] {
        lanes(&self.b[kk * self.ld..])
    }
}

/// `B` rows at per-row offsets: row `kk` is `b[taps[kk] ..][.. NR]`.
#[derive(Clone, Copy)]
struct Tapped<'a, T> {
    b: &'a [T],
    taps: &'a [usize],
}

impl<T: Scalar> BRows<T> for Tapped<'_, T> {
    #[inline(always)]
    fn row(&self, kk: usize) -> [T; NR] {
        lanes(&self.b[self.taps[kk]..])
    }
}

/// The first `NR` elements of `s` as a register row.
#[inline(always)]
pub(crate) fn lanes<T: Copy>(s: &[T]) -> [T; NR] {
    let row: &[T; NR] = s[..NR].try_into().expect("slice of NR lanes");
    *row
}

/// One `M`-row block of the `A` operand, positioned at its slab start.
#[derive(Clone, Copy)]
pub(crate) enum ABlock<'a, T> {
    /// An `MR`-interleaved [`PackedA`] block: `A[row0+i, k0+kk]` is
    /// `a[kk * MR + i]`.
    Packed(&'a [T]),
    /// Row-major rows `ld` apart: `A[row0+i, k0+kk]` is `a[i * ld + kk]`.
    Rows(&'a [T], usize),
}

impl<T: Copy> ABlock<'_, T> {
    /// `A[row0+i, k0+kk]`.
    #[inline]
    fn at(&self, i: usize, kk: usize) -> T {
        match *self {
            ABlock::Packed(a) => a[kk * MR + i],
            ABlock::Rows(a, ld) => a[i * ld + kk],
        }
    }
}

/// One `k`-step of one tile row: `acc[j] += av * b[j]` on all `NR` lanes.
/// Always inlined, so after the kernel's row loop unrolls every tile row
/// is its own register-resident accumulator.
#[inline(always)]
fn row_update<T: Scalar>(acc: &mut [T; NR], av: T, b: &[T; NR]) {
    for (v, bj) in acc.iter_mut().zip(b) {
        // One chain per element; mul+add (not mul_add) so targets without
        // FMA autovectorize instead of calling libm, and the sum matches
        // the naive reference bit for bit.
        *v += av * *bj;
    }
}

/// The register-tiled micro-kernel: `M × NR` accumulator tile over a
/// `klen`-deep slab.
///
/// * `a` is the tile's `M` rows of `A` (see [`ABlock`]), cut up front into
///   `klen` packed columns or `M` rows of `klen` so that the loop carries
///   no bounds checks on `A`.
/// * `b.row(kk)` is `B[k0+kk, j0..j0+NR]` (see [`BRows`]).
/// * `accumulate` resumes a previous slab's partials from `c`;
///   `finish` applies the epilogue (only on the last slab).
///
/// Every `acc[i][j]` is one add-chain in ascending `kk` — the determinism
/// contract of the module.
///
/// Codegen: the whole tile has to stay in registers through the `k`-loop.
/// What gets there is the shape of [`k_loop`] — one named accumulator per
/// tile row, each updated by the always-inlined `NR`-lane [`row_update`],
/// with `c` read and written only outside the loop and only through whole
/// rows ([`load_row`]/[`store_row`]), never indexed by the run-time
/// `cols`. Indexing the tile by a run-time value forces it into memory, and
/// the loop then adds into the stack on every step; a loop over the tile's
/// rows (`zip`, `array::from_fn`, `iter_mut`) lets LLVM vectorize across
/// the row axis with gathers and scatters instead, at a tenth of the
/// speed. To check a build, disassemble the `micro_tile` instances
/// (`objdump -d --no-show-raw-insn -C` on a test or bench binary): the
/// `k`-loop must hold no `(%rsp)` operand and no `vgather`/`vscatter`.
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // keep the hot loop a small, standalone optimization unit
pub(crate) fn micro_tile<T: Scalar, B: BRows<T>, const M: usize>(
    a: ABlock<'_, T>,
    b: B,
    klen: usize,
    c: &mut [T],
    ldc: usize,
    cols: usize,
    accumulate: bool,
    finish: Option<(&Epilogue<'_, T>, usize, usize)>,
) {
    let mut acc = [[T::ZERO; NR]; M];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate() {
            *row = load_row(&c[i * ldc..], cols);
        }
    }
    let mut acc = match a {
        ABlock::Packed(a) => {
            let cols = &a.as_chunks::<MR>().0[..klen];
            k_loop(acc, |i, kk| cols[kk][i], b, klen)
        }
        ABlock::Rows(a, ld) => {
            let rows: [&[T]; M] = std::array::from_fn(|i| &a[i * ld..][..klen]);
            k_loop(acc, |i, kk| rows[i][kk], b, klen)
        }
    };
    if let Some((epi, row0, col0)) = finish {
        finish_tile::<T, M>(&mut acc, epi, row0, col0, cols);
    }
    for (i, row) in acc.iter().enumerate() {
        store_row(&mut c[i * ldc..], row, cols);
    }
}

/// The `k`-loop of [`micro_tile`] on a tile of its own, taken and
/// returned by value, with one named accumulator per tile row: nothing
/// indexes these at run time, and no loop runs over the row axis for the
/// vectorizer to turn into gathers, so each row stays a register-resident
/// `NR`-lane vector. `a_at(i, kk)` is `A[row0+i, k0+kk]`.
#[inline(always)]
fn k_loop<T: Scalar, B: BRows<T>, const M: usize>(
    acc: [[T; NR]; M],
    a_at: impl Fn(usize, usize) -> T,
    b: B,
    klen: usize,
) -> [[T; NR]; M] {
    macro_rules! rows {
        ($($r:ident $i:literal),+) => {{
            let [$(mut $r),+] = retile(acc);
            for kk in 0..klen {
                let brow = b.row(kk);
                $(row_update(&mut $r, a_at($i, kk), &brow);)+
            }
            retile([$($r),+])
        }};
    }
    const { assert!(MR == 8, "one arm per tile height") };
    match M {
        8 => rows!(r0 0, r1 1, r2 2, r3 3, r4 4, r5 5, r6 6, r7 7),
        4 => rows!(r0 0, r1 1, r2 2, r3 3),
        2 => rows!(r0 0, r1 1),
        1 => rows!(r0 0),
        _ => unreachable!("tile heights are 8, 4, 2 and 1"),
    }
}

/// An `[U; P]` as an `[U; Q]` when `P == Q`: lets [`k_loop`] name the
/// rows of a tile whose height is a const parameter.
#[inline(always)]
fn retile<U: Copy, const P: usize, const Q: usize>(x: [U; P]) -> [U; Q] {
    x[..].try_into().expect("equal tile heights")
}

/// The first `cols` elements of `src` as a register row (spare lanes 0).
#[inline(always)]
fn load_row<T: Scalar>(src: &[T], cols: usize) -> [T; NR] {
    if cols == NR {
        return lanes(src);
    }
    let mut row = [T::ZERO; NR];
    row[..cols].copy_from_slice(&src[..cols]);
    row
}

/// Store the first `cols` lanes of `row` into `dst`.
#[inline(always)]
fn store_row<T: Scalar>(dst: &mut [T], row: &[T; NR], cols: usize) {
    if cols == NR {
        dst[..NR].copy_from_slice(row);
    } else {
        let row = *row;
        dst[..cols].copy_from_slice(&row[..cols]);
    }
}

/// Apply the fused epilogue to one register tile — part of the one
/// micro-kernel every precision runs, so bias/activation are the *same*
/// float expression after every `k`-sum.
///
/// Branch-free full-width passes over the register tile: the
/// bias/activation selectors are matched once per row, never per element,
/// so each pass vectorizes like the k-loop. Padding lanes past `cols`
/// compute garbage and are clipped by the caller's store.
#[inline(always)]
fn finish_tile<T: Scalar, const M: usize>(
    acc: &mut [[T; NR]; M],
    epi: &Epilogue<'_, T>,
    row0: usize,
    col0: usize,
    cols: usize,
) {
    let col_bias = match epi.bias {
        Bias::Col(bias) => load_row(&bias[col0..], cols),
        _ => [T::ZERO; NR],
    };
    for (i, arow) in acc.iter_mut().enumerate() {
        match epi.bias {
            Bias::None => {}
            Bias::Col(_) => {
                for (v, b) in arow.iter_mut().zip(&col_bias) {
                    *v += *b;
                }
            }
            Bias::Row(bias) => {
                let rb = bias[row0 + i];
                for v in arow.iter_mut() {
                    *v += rb;
                }
            }
        }
        match epi.act {
            None => {}
            Some(Act::Relu) => {
                for v in arow.iter_mut() {
                    *v = v.maximum(T::ZERO);
                }
            }
            Some(Act::Tanh) => {
                for v in arow.iter_mut() {
                    *v = v.tanh_activation();
                }
            }
            Some(Act::Sigmoid) => {
                for v in arow.iter_mut() {
                    *v = T::ONE / (T::ONE + (-*v).exp());
                }
            }
        }
    }
}

/// Scalar fallback for the ragged last panel of an unpacked `B`: one
/// ascending-`k` chain per element, bit-identical to [`micro_tile`].
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn tail_cols<T: Scalar>(
    aval: impl Fn(usize, usize) -> T, // (i, kk) -> A[row0+i, k0+kk]
    rows: usize,
    b: &[T], // B slab base: b[kk * n + j] = B[k0+kk, j]
    n: usize,
    jr: std::ops::Range<usize>,
    klen: usize,
    c: &mut [T],
    ldc: usize,
    accumulate: bool,
    finish: Option<(&Epilogue<'_, T>, usize)>, // (epi, row0); col index is j itself
) {
    for i in 0..rows {
        for j in jr.clone() {
            let mut acc = if accumulate { c[i * ldc + j] } else { T::ZERO };
            for kk in 0..klen {
                acc += aval(i, kk) * b[kk * n + j];
            }
            if let Some((epi, row0)) = finish {
                acc = match epi.bias {
                    Bias::None => acc,
                    Bias::Col(bias) => acc + bias[j],
                    Bias::Row(bias) => acc + bias[row0 + i],
                };
                if let Some(act) = epi.act {
                    acc = act.apply(acc);
                }
            }
            c[i * ldc + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Macro-kernel / driver
// ---------------------------------------------------------------------------

/// `C[m, n] = epilogue(A · B)` over raw slices, parallelized over row
/// stripes with the default [`KC`] slab depth. See [`gemm_into_kc`].
pub fn gemm_into<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: ASource<'_, T>,
    b: BSource<'_, T>,
    epi: Epilogue<'_, T>,
    c: &mut [T],
) {
    gemm_into_kc(m, n, k, a, b, epi, c, KC)
}

/// [`gemm_into`] with an explicit cache-slab depth — the tuning/testing
/// hook behind the determinism guarantee ("results do not depend on
/// `kc`"). `c` must be a row-major `[m, n]` slice; every element is
/// overwritten. Panics on operand/size mismatches (callers validate
/// shapes; the tensor-level wrappers return errors instead). A
/// [`BSource::Conv`] operand walks slabs of at most [`KC`] taps, whatever
/// `kc` asks for: its tap offsets are tabled per slab on the stack.
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into_kc<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: ASource<'_, T>,
    b: BSource<'_, T>,
    epi: Epilogue<'_, T>,
    c: &mut [T],
    kc: usize,
) {
    match a {
        ASource::Rows(ad) => assert_eq!(ad.len(), m * k, "gemm: bad A length"),
        ASource::Packed(pa) => {
            assert_eq!((pa.m(), pa.k()), (m, k), "gemm: PackedA dims mismatch")
        }
    }
    let kc = match b {
        BSource::Cols(bd) => {
            assert_eq!(bd.len(), k * n, "gemm: bad B length");
            kc
        }
        BSource::Packed(pb) => {
            assert_eq!((pb.k(), pb.n()), (k, n), "gemm: PackedB dims mismatch");
            kc
        }
        BSource::Conv(pp) => {
            let (oh, ow) = pp.out_hw();
            assert_eq!(
                (pp.taps(), oh * ow),
                (k, n),
                "gemm: PaddedPlanes dims mismatch"
            );
            kc.min(KC)
        }
    };
    run_stripes(m, n, k, a, b, &epi, c, kc);
}

/// A `B` operand the macro-kernel can drive: it sweeps the `NR`-wide
/// column panels of one `M`-row block of `C` over one `k` slab. Row
/// stripes, slabs and the 8/4/2/1 row-block step-down live in
/// [`run_stripes`], shared by every operand — f32 sources here, quantized
/// panels in [`crate::quant`].
pub(crate) trait Panels<T: Scalar>: Copy + Sync {
    /// `c` holds the block's `M` rows (`ldc == n`); `a` is the block's
    /// `A` at slab start.
    // allow: GEMM kernel plumbing — see micro_tile.
    #[allow(clippy::too_many_arguments)]
    fn sweep<const M: usize>(
        &self,
        a: ABlock<'_, T>,
        n: usize,
        k0: usize,
        klen: usize,
        c: &mut [T],
        row0: usize,
        accumulate: bool,
        epi: Option<&Epilogue<'_, T>>,
    );
}

impl<T: Scalar> Panels<T> for BSource<'_, T> {
    fn sweep<const M: usize>(
        &self,
        a: ABlock<'_, T>,
        n: usize,
        k0: usize,
        klen: usize,
        c: &mut [T],
        row0: usize,
        accumulate: bool,
        epi: Option<&Epilogue<'_, T>>,
    ) {
        match *self {
            BSource::Packed(pb) => {
                for p in 0..pb.panels() {
                    let j0 = p * NR;
                    micro_tile::<T, _, M>(
                        a,
                        Strided {
                            b: pb.panel_slab(p, k0),
                            ld: NR,
                        },
                        klen,
                        &mut c[j0..],
                        n,
                        NR.min(n - j0),
                        accumulate,
                        epi.map(|e| (e, row0, j0)),
                    );
                }
            }
            BSource::Cols(bd) => {
                let slab = &bd[k0 * n..];
                let full = n / NR;
                for p in 0..full {
                    let j0 = p * NR;
                    micro_tile::<T, _, M>(
                        a,
                        Strided {
                            b: &slab[j0..],
                            ld: n,
                        },
                        klen,
                        &mut c[j0..],
                        n,
                        NR,
                        accumulate,
                        epi.map(|e| (e, row0, j0)),
                    );
                }
                if full * NR < n {
                    tail_cols(
                        |i, kk| a.at(i, kk),
                        M,
                        slab,
                        n,
                        full * NR..n,
                        klen,
                        c,
                        n,
                        accumulate,
                        epi.map(|e| (e, row0)),
                    );
                }
            }
            BSource::Conv(pp) => {
                // `gemm_into_kc` caps conv slabs at KC taps.
                let mut taps = [0usize; KC];
                let taps = &mut taps[..klen];
                for (kk, t) in taps.iter_mut().enumerate() {
                    *t = pp.tap(k0 + kk);
                }
                let (oh, ow) = pp.out_hw();
                for oy in 0..oh {
                    for ox0 in (0..ow).step_by(NR) {
                        let j0 = oy * ow + ox0;
                        micro_tile::<T, _, M>(
                            a,
                            Tapped {
                                b: &pp.data[oy * pp.wp + ox0..],
                                taps,
                            },
                            klen,
                            &mut c[j0..],
                            n,
                            NR.min(ow - ox0),
                            accumulate,
                            epi.map(|e| (e, row0, j0)),
                        );
                    }
                }
            }
        }
    }
}

/// Run the macro-kernel over all of `C`: row stripes are the parallel
/// axis, aligned to `MR` so every stripe starts on a register-tile
/// boundary.
// allow: GEMM kernel plumbing — see micro_tile.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stripes<T: Scalar, B: Panels<T>>(
    m: usize,
    n: usize,
    k: usize,
    a: ASource<'_, T>,
    b: B,
    epi: &Epilogue<'_, T>,
    c: &mut [T],
    kc: usize,
) {
    assert_eq!(c.len(), m * n, "gemm: bad C length");
    match epi.bias {
        Bias::None => {}
        Bias::Col(bias) => assert_eq!(bias.len(), n, "gemm: col bias length"),
        Bias::Row(bias) => assert_eq!(bias.len(), m, "gemm: row bias length"),
    }
    if m == 0 || n == 0 {
        return;
    }
    let kc = kc.max(1);
    if par_worthwhile(m, n, k) {
        let rows = par_rows_per_block(m, n, k).div_ceil(MR) * MR;
        hpacml_par::par_chunks_mut(c, rows * n, |start, stripe| {
            stripe_body(start / n, stripe, n, k, a, b, epi, kc);
        });
    } else {
        stripe_body(0, c, n, k, a, b, epi, kc);
    }
}

/// Compute one C row-stripe (`row0 ..` covering `stripe.len() / n` rows),
/// walking `k` in `kc`-deep slabs; `b` sweeps the column panels.
// allow: GEMM kernel plumbing — dims, panel slices and strides stay
// individual scalars so they live in registers through the tile loops.
#[allow(clippy::too_many_arguments)]
fn stripe_body<T: Scalar, B: Panels<T>>(
    row0: usize,
    stripe: &mut [T],
    n: usize,
    k: usize,
    a: ASource<'_, T>,
    b: B,
    epi: &Epilogue<'_, T>,
    kc: usize,
) {
    let rows = stripe.len() / n;
    let slabs = k.div_ceil(kc).max(1); // k == 0 still runs one epilogue pass
    for slab in 0..slabs {
        let k0 = slab * kc;
        let klen = kc.min(k - k0);
        let accumulate = slab > 0;
        let epi = (slab + 1 == slabs).then_some(epi);

        let mut r = 0;
        // Full MR-row register tiles. Stripes start MR-aligned by
        // construction, so `row0 + r` is always a block boundary here.
        while rows - r >= MR {
            let row = row0 + r;
            let ab = match a {
                ASource::Rows(ad) => ABlock::Rows(&ad[row * k + k0..], k),
                ASource::Packed(pa) => {
                    // `row + MR <= m` here, and PackedA blocks cover the
                    // first `m - m % MR` rows, so this block is always in
                    // the packed region.
                    debug_assert!(row / MR < pa.blocks);
                    ABlock::Packed(pa.block_slab(row / MR, k0))
                }
            };
            let c = &mut stripe[r * n..(r + MR) * n];
            b.sweep::<MR>(ab, n, k0, klen, c, row, accumulate, epi);
            r += MR;
        }
        // Remainder rows (< MR): step down through 4/2/1-row tiles so even
        // small-m problems (e.g. a 4-filter convolution) keep several
        // independent accumulator chains in flight. Per-row arithmetic is
        // identical at every tile height, so the decomposition never
        // changes results.
        while r < rows {
            let row = row0 + r;
            let ab = match a {
                ASource::Rows(ad) => ABlock::Rows(&ad[row * k + k0..], k),
                ASource::Packed(pa) => ABlock::Rows(&pa.rem_rows(row)[k0..], pa.k),
            };
            let left = rows - r;
            let step = if left >= 4 {
                4
            } else if left >= 2 {
                2
            } else {
                1
            };
            let c = &mut stripe[r * n..(r + step) * n];
            match step {
                4 => b.sweep::<4>(ab, n, k0, klen, c, row, accumulate, epi),
                2 => b.sweep::<2>(ab, n, k0, klen, c, row, accumulate, epi),
                _ => b.sweep::<1>(ab, n, k0, klen, c, row, accumulate, epi),
            }
            r += step;
        }
    }
}

// ---------------------------------------------------------------------------
// Tensor-level entry points
// ---------------------------------------------------------------------------

/// `C[m, n] = epilogue(A[m, k] · Bᵀ)` against a pre-packed `B` — the
/// steady-state `Linear` layer kernel: weights packed once at model load,
/// bias and activation fused into the output tiles. `c` is resized in
/// place (allocation-free once it has capacity).
pub fn matmul_transb_packed_into<T: Scalar>(
    a: &Tensor<T>,
    bp: &PackedB<T>,
    epi: Epilogue<'_, T>,
    c: &mut Tensor<T>,
) -> Result<()> {
    matmul_transb_packed_into_kc(a, bp, epi, c, KC)
}

/// [`matmul_transb_packed_into`] with an explicit cache-slab depth (the
/// documented determinism/tuning hook).
pub fn matmul_transb_packed_into_kc<T: Scalar>(
    a: &Tensor<T>,
    bp: &PackedB<T>,
    epi: Epilogue<'_, T>,
    c: &mut Tensor<T>,
    kc: usize,
) -> Result<()> {
    if a.rank() != 2 {
        return Err(TensorError::DimMismatch(format!(
            "matmul_transb_packed: lhs expected rank 2, got {:?}",
            a.dims()
        )));
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    if k != bp.k() {
        return Err(TensorError::DimMismatch(format!(
            "matmul_transb_packed: lhs is [{m}, {k}], packed rhs is [{}, {}]",
            bp.n(),
            bp.k()
        )));
    }
    let n = bp.n();
    c.resize(&[m, n]);
    gemm_into_kc(
        m,
        n,
        k,
        ASource::Rows(a.data()),
        BSource::Packed(bp),
        epi,
        c.data_mut(),
        kc,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-thread pack and conv-staging scratch
// ---------------------------------------------------------------------------

/// Reusable per-thread staging buffers for kernels whose operands are not
/// pre-packed: a [`PackedA`] for on-the-fly weight packing on the batch-1
/// conv route, a [`PackedB`] for on-the-fly weight packing (training-time
/// and uncompiled-model `Linear` forwards) and the convolution's input
/// staging `col` — padded input planes for a stride-1 GEMM-route conv
/// ([`PaddedPlanes`]), im2col columns otherwise. One instance lives per thread (see
/// [`WithScratch`]), so parallel kernels never contend on — or repack —
/// another thread's panels. Grow-only, so steady-state use is
/// allocation-free.
#[derive(Default)]
pub struct GemmScratch<T: Scalar> {
    pub packed_a: PackedA<T>,
    pub packed_b: PackedB<T>,
    pub col: Vec<T>,
}

impl<T: Scalar> GemmScratch<T> {
    /// Pre-size the buffers (elements) so even a first use allocates
    /// nothing. Grow-only.
    pub fn reserve(&mut self, a_elems: usize, b_elems: usize, col_elems: usize) {
        if self.packed_a.data.len() < a_elems {
            self.packed_a.data.resize(a_elems, T::ZERO);
        }
        if self.packed_b.data.len() < b_elems {
            self.packed_b.data.resize(b_elems, T::ZERO);
        }
        if self.col.len() < col_elems {
            self.col.resize(col_elems, T::ZERO);
        }
    }
}

/// Access to this thread's [`GemmScratch`]. Implemented for the concrete
/// scalar types (thread-locals cannot be generic); kernels that need
/// scratch bound `T: Scalar + WithScratch`.
pub trait WithScratch: Scalar {
    fn with_gemm_scratch<R>(f: impl FnOnce(&mut GemmScratch<Self>) -> R) -> R;
}

macro_rules! impl_with_scratch {
    ($t:ty, $tls:ident) => {
        thread_local! {
            static $tls: RefCell<GemmScratch<$t>> = RefCell::new(GemmScratch::default());
        }
        impl WithScratch for $t {
            fn with_gemm_scratch<R>(f: impl FnOnce(&mut GemmScratch<Self>) -> R) -> R {
                $tls.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut s) => f(&mut s),
                    // Reentrant use (a kernel invoked from inside another
                    // kernel's scratch scope): fall back to a fresh scratch
                    // rather than panicking on the RefCell.
                    Err(_) => f(&mut GemmScratch::default()),
                })
            }
        }
    };
}

impl_with_scratch!(f32, GEMM_SCRATCH_F32);
impl_with_scratch!(f64, GEMM_SCRATCH_F64);

/// Pre-size the calling thread's [`GemmScratch`] — the workspace-reserve
/// hook sessions use so their first forward pass is already allocation-free.
/// Sessions broadcast this across the pool (`hpacml_par::broadcast`) so
/// every worker's per-thread scratch is warm before the first dispatch.
pub fn reserve_scratch<T: WithScratch>(a_elems: usize, b_elems: usize, col_elems: usize) {
    T::with_gemm_scratch(|s| s.reserve(a_elems, b_elems, col_elems));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive reference: one accumulator per element, ascending k —
    /// the order contract the tiled kernel must reproduce bit for bit.
    fn reference(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        bt: &[f32], // [n, k] transb layout
        epi: &Epilogue<'_, f32>,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * bt[j * k + kk];
                }
                acc = match epi.bias {
                    Bias::None => acc,
                    Bias::Col(b) => acc + b[j],
                    Bias::Row(b) => acc + b[i],
                };
                if let Some(act) = epi.act {
                    acc = act.apply(acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn lcg(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    #[test]
    fn packed_gemm_bitwise_matches_reference_over_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 30),
            (3, 4, 5),
            (8, 16, 16),
            (9, 3, 17),
            (17, 9, 23),
            (64, 33, 48),
            (70, 64, 64),
        ] {
            let a = Tensor::from_vec(lcg(m as u64 * 31 + 1, m * k), [m, k]).unwrap();
            let bt = Tensor::from_vec(lcg(n as u64 * 17 + 2, n * k), [n, k]).unwrap();
            let bias_c = lcg(99, n);
            let bp = PackedB::from_transb(&bt).unwrap();
            for (name, epi) in [
                ("none", Epilogue::none()),
                ("bias", Epilogue::col_bias(&bias_c)),
                (
                    "bias+relu",
                    Epilogue::col_bias(&bias_c).with_act(Some(Act::Relu)),
                ),
                (
                    "bias+tanh",
                    Epilogue::col_bias(&bias_c).with_act(Some(Act::Tanh)),
                ),
                (
                    "bias+sigmoid",
                    Epilogue::col_bias(&bias_c).with_act(Some(Act::Sigmoid)),
                ),
            ] {
                let mut c = Tensor::zeros([0usize; 2]);
                matmul_transb_packed_into(&a, &bp, epi, &mut c).unwrap();
                let want = reference(m, n, k, a.data(), bt.data(), &epi);
                assert_eq!(c.data(), &want[..], "({m},{k},{n}) epilogue {name}");
            }
        }
    }

    #[test]
    fn kc_slabs_do_not_change_results() {
        let (m, k, n) = (13usize, 37usize, 29usize);
        let a = Tensor::from_vec(lcg(5, m * k), [m, k]).unwrap();
        let bt = Tensor::from_vec(lcg(6, n * k), [n, k]).unwrap();
        let bp = PackedB::from_transb(&bt).unwrap();
        let bias = lcg(7, n);
        let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Tanh));
        let mut base = Tensor::zeros([0usize; 2]);
        matmul_transb_packed_into_kc(&a, &bp, epi, &mut base, 1).unwrap();
        for kc in [2usize, 3, 8, 16, 64, 4096] {
            let mut c = Tensor::zeros([0usize; 2]);
            matmul_transb_packed_into_kc(&a, &bp, epi, &mut c, kc).unwrap();
            assert_eq!(c.data(), base.data(), "kc={kc}");
        }
    }

    #[test]
    fn unpacked_cols_b_matches_packed() {
        // Conv-style: B given row-major [k, n] with a ragged tail panel.
        let (m, k, n) = (5usize, 12usize, 37usize);
        let a = lcg(11, m * k);
        let b_cols = lcg(12, k * n);
        let bias_r = lcg(13, m);
        let mut pb = PackedB::new();
        pb.pack_cols_into(&b_cols, k, n);
        let epi = Epilogue::row_bias(&bias_r).with_act(Some(Act::Relu));
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm_into(
            m,
            n,
            k,
            ASource::Rows(&a),
            BSource::Cols(&b_cols),
            epi,
            &mut c1,
        );
        gemm_into(
            m,
            n,
            k,
            ASource::Rows(&a),
            BSource::Packed(&pb),
            epi,
            &mut c2,
        );
        assert_eq!(c1, c2);
    }

    #[test]
    fn packed_a_matches_rows_a() {
        for &(m, k, n) in &[(4usize, 36usize, 50usize), (19, 8, 33), (8, 5, 16)] {
            let a = lcg(21, m * k);
            let b_cols = lcg(22, k * n);
            let pa = PackedA::from_rows(&a, m, k);
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            let epi = Epilogue::none().with_act(Some(Act::Sigmoid));
            gemm_into(
                m,
                n,
                k,
                ASource::Rows(&a),
                BSource::Cols(&b_cols),
                epi,
                &mut c1,
            );
            gemm_into(
                m,
                n,
                k,
                ASource::Packed(&pa),
                BSource::Cols(&b_cols),
                epi,
                &mut c2,
            );
            assert_eq!(c1, c2, "({m},{k},{n})");
        }
    }

    #[test]
    fn k_zero_is_pure_epilogue() {
        let bias = vec![1.5f32, -2.0];
        let mut c = vec![9.0f32; 2 * 2];
        gemm_into(
            2,
            2,
            0,
            ASource::Rows(&[]),
            BSource::Cols(&[]),
            Epilogue::col_bias(&bias).with_act(Some(Act::Relu)),
            &mut c,
        );
        assert_eq!(c, vec![1.5, 0.0, 1.5, 0.0]);
    }

    #[test]
    fn block_heuristic_is_sane() {
        assert_eq!(par_rows_per_block(0, 10, 10), 1);
        // Invariants over a grid of shapes: always in 1..=m, and monotone
        // non-increasing in the per-row cost n*k.
        for &m in &[1usize, 7, 8, 64, 1024, 100_000] {
            let mut prev = usize::MAX;
            for &nk in &[1usize, 16, 128, 1024, 16_384, 262_144, 1 << 24] {
                let rows = par_rows_per_block(m, nk, 1);
                assert!((1..=m.max(1)).contains(&rows), "m={m} nk={nk} rows={rows}");
                assert!(rows <= prev, "m={m}: rows must not grow with n*k");
                prev = rows;
            }
        }
        // Bigger per-row cost => fewer (or equal) rows per task.
        assert!(par_rows_per_block(1024, 512, 512) <= par_rows_per_block(1024, 16, 16));
        // Row-heavy, flops-light problems still split into at least one
        // task per participant so the stealing cursor has work to level.
        let threads = hpacml_par::current_parallelism();
        let rows = par_rows_per_block(100_000, 4, 4);
        assert!(100_000usize.div_ceil(rows) >= threads);
        assert!(!par_worthwhile(1, 4096, 4096));
        assert!(par_worthwhile(64, 64, 64));
        // Saturation heuristic is a pure threshold at the pool width.
        assert!(!outer_saturates(threads - 1) || threads == 1);
        assert!(outer_saturates(threads));
        assert!(outer_saturates(threads + 5));
    }

    #[test]
    fn scratch_reserve_grows_once() {
        reserve_scratch::<f32>(512, 1024, 2048);
        f32::with_gemm_scratch(|s| {
            assert!(s.packed_a.data.len() >= 512);
            assert!(s.packed_b.data.len() >= 1024);
            assert!(s.col.len() >= 2048);
        });
    }
}
