//! The tile driver shared by the `f32` and INT8 pattern executors.
//!
//! [`patdnn_tensor::kernels::pattern_tile`] owns the register tile and
//! the staged-image layout; this module owns what is specific to FKW
//! storage: resolving every stored kernel's tap offsets once at executor
//! build (`TilePlan::new`), grouping storage rows into tile *jobs*
//! (`TilePlan::jobs_for`), and the loop nest that walks a job's tiles
//! over the output plane (`TilePlan::run_jobs`). An unpruned layer is the
//! case where every row stores every kernel (`TilePlan::dense`): one
//! offset table, four filters to every tile, run by
//! [`crate::dense::DenseTileConv`].
//!
//! # How the exec config maps onto the loops
//!
//! - [`OptLevel::ReorderLre`]: every job is one filter (kernel-level
//!   LRE: the tile's accumulators never leave registers while the
//!   filter's kernels are walked in FKW pattern-run order).
//! - [`OptLevel::Full`]: `unroll_oc`, clamped down to 1, 2 or 4, is the
//!   most filters one tile may carry. Adjacent FKR-ordered rows whose
//!   stored kernels coincide — same patterns on the same input channels
//!   — share one job, so each loaded input vector feeds all of them
//!   (filter-level LRE). Rows whose kernels differ keep the one-filter
//!   tile: a shared tile gives each filter a smaller share of the eight
//!   accumulators, which only pays when the loads it saves are real.
//!   With `blocked` set and a staged image larger than L1, the job loop
//!   is blocked `tile_oc` jobs × `tile_hw` output rows (rounded up to
//!   the tallest tile, 8, and clamped down to the rows of all input
//!   channels that L1 holds) so a block of input rows is reused across
//!   the block's filters before the walk moves down the image.
//!   [`EffectiveTuning`] is that clamping, shared with the tuner.
//! - `permute` and `unroll_w` select nothing here: an output-stationary
//!   tile fixes the order to filter → tile → kernel, and its width comes
//!   from the plane (see [`TileShape::for_plane`]).
//!
//! Whatever the grouping, tile shape or blocking, every output element
//! sees the same arithmetic in the same order — its filter's kernels in
//! storage order, each kernel's taps in pattern order — so batching,
//! threading and `unroll_oc` never change a result bit.

use std::ops::Range;
use std::sync::Mutex;

use patdnn_compiler::fkw::FkwLayer;
use patdnn_compiler::quant::QuantFkwLayer;
use patdnn_compiler::tune::space::TuningConfig;
use patdnn_core::pattern::Pattern;
use patdnn_tensor::kernels::{
    PatternTile, StagedLayout, TapOffsets, TileEpilogue, TileOut, TileShape, MAX_TILE_FILTERS,
};
use patdnn_tensor::Conv2dGeometry;

use crate::pattern_exec::OptLevel;

/// The level-1 cache budget: staged images larger than this are worth
/// blocking, down to blocks that fit it.
pub const L1_BYTES: usize = 32 * 1024;

/// The tallest tile ([`TileShape::for_plane`] on an 8-wide plane);
/// spatial blocks are whole multiples of it so every shape tiles them.
const MAX_TILE_ROWS: usize = 8;

/// Staged images start on a cache line: with 64-byte rows (8-wide `f32`
/// planes, 16-wide INT8 planes) no tile load then straddles two lines,
/// which is worth up to 1.6× on those layers over an unlucky heap
/// address.
const ALIGN_BYTES: usize = 64;

/// A pool of reusable scratch buffers: concurrent callers each check out
/// their own, so `run_into(&self)` stays freely shareable and a warm
/// executor allocates nothing.
///
/// The pools are process-wide, one per element type, shared by every
/// pattern executor: a buffer grows to the largest layer it has served
/// and serves them all in turn, so scratch memory is the largest staged
/// image times the number of concurrent callers — not the sum over all
/// layers of all loaded models. Sharing is sound because nothing relies
/// on a buffer's previous contents: staging writes every element a valid
/// output reads, halo included.
pub(crate) struct ScratchPool<T> {
    // lock: rt-tile-scratch
    pool: Mutex<Vec<Vec<T>>>,
}

/// Staged `f32` images (see [`TilePlan::with_staged`]).
static STAGED_F32: ScratchPool<f32> = ScratchPool::new();
/// Staged (or, at the checked levels, plain quantized) `i16` images.
pub(crate) static STAGED_I16: ScratchPool<i16> = ScratchPool::new();
/// `i32` accumulation planes of the INT8 checked body.
pub(crate) static ACC_I32: ScratchPool<i32> = ScratchPool::new();

impl<T: Clone + Default> ScratchPool<T> {
    const fn new() -> Self {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Checks out a buffer whose [`aligned`] window holds at least `len`
    /// elements, growing (default-filled) only one that is too small —
    /// which stops happening once every buffer has met the largest
    /// layer.
    pub(crate) fn take(&self, len: usize) -> Vec<T> {
        let mut buf = self
            .pool
            .lock()
            .expect("tile scratch pool")
            .pop()
            .unwrap_or_default();
        let padded = len + ALIGN_BYTES / std::mem::size_of::<T>();
        if buf.len() < padded {
            buf.resize(padded, T::default());
        }
        buf
    }

    /// Returns a buffer to the pool.
    pub(crate) fn give(&self, buf: Vec<T>) {
        self.pool.lock().expect("tile scratch pool").push(buf);
    }
}

/// The cache-line-aligned `len`-element window of a buffer from
/// [`ScratchPool::take`].
pub(crate) fn aligned<T>(buf: &mut [T], len: usize) -> &mut [T] {
    let shift = buf.as_ptr().align_offset(ALIGN_BYTES);
    &mut buf[shift..shift + len]
}

/// What the tiled levels make of a [`TuningConfig`] on one layer, after
/// clamping: the executors build their loops from it and the serving
/// tuner prices configurations with it, so the two cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectiveTuning {
    /// Most filters one tile may carry: `unroll_oc` clamped down to 1,
    /// 2 or 4 at [`OptLevel::Full`], 1 below it.
    pub max_filters: usize,
    /// `(jobs, output rows)` per block of the loop nest, or `None` when
    /// the nest is not blocked: below `Full`, with `blocked` unset, or
    /// when the staged image fits L1. The rows are `tile_hw` rounded up
    /// to the tallest tile (8), then clamped down to what L1 holds of
    /// all input channels (but never below one tallest tile).
    pub block: Option<(usize, usize)>,
}

impl EffectiveTuning {
    /// The clamped configuration for `geo` (`int8` selects the `i16`
    /// staged image of the quantized executor).
    pub fn new(geo: &Conv2dGeometry, level: OptLevel, tuning: &TuningConfig, int8: bool) -> Self {
        let (min_vecs, elem) = if int8 { (2, 2) } else { (1, 4) };
        let layout = StagedLayout::new(geo, min_vecs);
        let max_filters = match (level, tuning.unroll_oc) {
            (OptLevel::Full, 4..) => 4,
            (OptLevel::Full, 2..) => 2,
            _ => 1,
        };
        let overflows = layout.len() * elem > L1_BYTES;
        let block = (level == OptLevel::Full && tuning.blocked && overflows).then(|| {
            let mut rows = tuning.tile_hw.next_multiple_of(MAX_TILE_ROWS);
            while rows > MAX_TILE_ROWS && layout.block_len(rows) * elem > L1_BYTES {
                rows -= MAX_TILE_ROWS;
            }
            (tuning.tile_oc.max(1), rows)
        });
        EffectiveTuning { max_filters, block }
    }
}

/// The index arrays of an FKW layer, whichever precision its weights
/// have: the tile driver only ever needs these.
pub(crate) struct FkwIndex<'a> {
    out_c: usize,
    patterns: &'a [Pattern],
    offsets: &'a [u32],
    reorder: &'a [u16],
    index: &'a [u16],
    stride: &'a [u16],
}

impl<'a> From<&'a FkwLayer> for FkwIndex<'a> {
    fn from(fkw: &'a FkwLayer) -> Self {
        FkwIndex {
            out_c: fkw.out_c,
            patterns: &fkw.patterns,
            offsets: &fkw.offsets,
            reorder: &fkw.reorder,
            index: &fkw.index,
            stride: &fkw.stride,
        }
    }
}

impl<'a> From<&'a QuantFkwLayer> for FkwIndex<'a> {
    fn from(q: &'a QuantFkwLayer) -> Self {
        FkwIndex {
            out_c: q.out_c,
            patterns: &q.patterns,
            offsets: &q.offsets,
            reorder: &q.reorder,
            index: &q.index,
            stride: &q.stride,
        }
    }
}

/// Filters that no storage row of `reorder` writes. A compiled layer
/// stores every filter, but the plan verifier does not insist on it, so
/// the executors give such planes their bias instead of leaving them
/// unwritten.
pub(crate) fn unstored_filters(out_c: usize, reorder: &[u16]) -> Vec<usize> {
    let mut stored = vec![false; out_c];
    for &f in reorder {
        stored[f as usize] = true;
    }
    (0..out_c).filter(|&f| !stored[f]).collect()
}

/// One tile's filters: up to [`MAX_TILE_FILTERS`] storage rows whose
/// stored kernels coincide, walked together.
#[derive(Debug, Clone)]
pub(crate) struct TileJob {
    pub(crate) shape: TileShape,
    /// The kernels to walk (the first row's; the others' are identical
    /// in offsets and differ only in weights).
    steps: Range<usize>,
    /// Per filter slot, the index of its first weight.
    w_starts: [usize; MAX_TILE_FILTERS],
    /// Per filter slot, the original filter (for bias and scale).
    pub(crate) filters: [usize; MAX_TILE_FILTERS],
    /// Per filter slot, the plane of the output buffer it writes.
    dst: [usize; MAX_TILE_FILTERS],
}

/// Everything the tiled levels resolve once per executor.
pub(crate) struct TilePlan {
    pub(crate) layout: StagedLayout,
    offs: TapOffsets,
    /// Tap offsets per kernel in `offs` (even for INT8).
    entries: usize,
    min_vecs: usize,
    max_filters: usize,
    /// Per storage row, its kernels in `offs` and the index of its first
    /// weight in the executor's weight array. FKW rows store their own
    /// kernels back to back; every row of a dense layer walks the one
    /// table of all input channels.
    row_steps: Vec<Range<usize>>,
    row_weights: Vec<usize>,
    reorder: Vec<usize>,
    /// Jobs per block and output rows per block of the loop nest.
    block: (usize, usize),
    out_hw: (usize, usize),
}

impl TilePlan {
    /// Resolves the tap offsets of every stored kernel of `fkw` against
    /// the staged layout of `geo`.
    ///
    /// `pair_taps` selects the INT8 arrangement: an `i16` image whose
    /// tiles are at least two vectors wide, taps walked in pairs (an odd
    /// count is padded by repeating the last offset; its weight partner
    /// is zero, see [`patdnn_tensor::kernels::pack_tap_pairs_i8`]).
    pub(crate) fn new<'a>(
        geo: &Conv2dGeometry,
        fkw: impl Into<FkwIndex<'a>>,
        level: OptLevel,
        tuning: &TuningConfig,
        pair_taps: bool,
    ) -> Self {
        let fkw = fkw.into();
        let min_vecs = if pair_taps { 2 } else { 1 };
        let layout = StagedLayout::new(geo, min_vecs);
        let taps: Vec<Vec<(usize, usize)>> = fkw.patterns.iter().map(Pattern::positions).collect();
        let np = fkw.patterns.len();
        let stored = taps.first().map_or(0, Vec::len);
        let entries = if pair_taps {
            stored.next_multiple_of(2)
        } else {
            stored
        };
        let mut offs = TapOffsets::new();
        for row in 0..fkw.out_c {
            let base = fkw.offsets[row] as usize;
            for (p, taps) in taps.iter().enumerate() {
                let lo = base + fkw.stride[row * (np + 1) + p] as usize;
                let hi = base + fkw.stride[row * (np + 1) + p + 1] as usize;
                for k in lo..hi {
                    debug_assert_eq!(offs.as_slice().len(), k * entries, "kernels in order");
                    let ic = fkw.index[k] as usize;
                    for &(kh, kw) in taps {
                        offs.push(layout.tap_offset(ic, kh, kw));
                    }
                    if entries > stored {
                        let &(kh, kw) = taps.last().expect("stored kernels have taps");
                        offs.push(layout.tap_offset(ic, kh, kw));
                    }
                }
            }
        }
        let EffectiveTuning { max_filters, block } =
            EffectiveTuning::new(geo, level, tuning, pair_taps);
        let weights_per_kernel = if pair_taps { entries / 2 } else { entries };
        let row_steps: Vec<Range<usize>> = fkw
            .offsets
            .windows(2)
            .map(|w| w[0] as usize..w[1] as usize)
            .collect();
        TilePlan {
            layout,
            offs,
            entries,
            min_vecs,
            max_filters,
            row_weights: row_steps
                .iter()
                .map(|steps| steps.start * weights_per_kernel)
                .collect(),
            row_steps,
            reorder: fkw.reorder.iter().map(|&f| f as usize).collect(),
            block: block.unwrap_or((usize::MAX, usize::MAX)),
            out_hw: (geo.out_h, geo.out_w),
        }
    }

    /// The plan of an unpruned `f32` layer over OIHW weights: the
    /// all-kernels-present case. Every filter holds every kernel, so one
    /// table of `in_c` steps × `kernel_h · kernel_w` taps serves all of
    /// them, any four adjacent filters share a tile (the packed GEMM's
    /// 4 × 16 register block, addressed through the staged image instead
    /// of a patch matrix), and filter `f`'s weights are row `f` of the
    /// weight tensor as it stands. The job loop is not blocked: blocking
    /// it measured within noise of not on every layer from 16 @ 32×32 to
    /// 128 @ 8×8 (a tile re-reads two of its three input rows from L1
    /// whatever the order).
    pub(crate) fn dense(geo: &Conv2dGeometry) -> Self {
        let layout = StagedLayout::new(geo, 1);
        let mut offs = TapOffsets::new();
        for ic in 0..geo.in_channels {
            for kh in 0..geo.kernel_h {
                for kw in 0..geo.kernel_w {
                    offs.push(layout.tap_offset(ic, kh, kw));
                }
            }
        }
        let entries = geo.kernel_h * geo.kernel_w;
        TilePlan {
            layout,
            offs,
            entries,
            min_vecs: 1,
            max_filters: MAX_TILE_FILTERS,
            row_steps: vec![0..geo.in_channels; geo.out_channels],
            row_weights: (0..geo.out_channels)
                .map(|f| f * geo.in_channels * entries)
                .collect(),
            reorder: (0..geo.out_channels).collect(),
            block: (usize::MAX, usize::MAX),
            out_hw: (geo.out_h, geo.out_w),
        }
    }

    /// Runs `f` on one `f32` batch item staged under this plan's layout.
    /// The image comes from, and returns to, the shared scratch pool.
    pub(crate) fn with_staged<R>(&self, input: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
        let mut buf = STAGED_F32.take(self.layout.len());
        let staged = aligned(&mut buf, self.layout.len());
        self.layout.stage(input, staged, |x| x);
        let result = f(staged);
        STAGED_F32.give(buf);
        result
    }

    /// The serial schedule: every storage row, in order, writing its
    /// original filter's plane.
    pub(crate) fn serial_rows(&self) -> Vec<(usize, usize)> {
        self.reorder.iter().copied().enumerate().collect()
    }

    /// Offsets of the kernels of storage row `row`.
    fn row_offsets(&self, row: usize) -> &[u32] {
        let steps = &self.row_steps[row];
        &self.offs.as_slice()[steps.start * self.entries..steps.end * self.entries]
    }

    /// Groups `rows` — `(storage row, output plane it writes)`, in the
    /// order given — into jobs. Up to `max_filters` consecutive rows
    /// share a job when their stored kernels coincide; every other row
    /// is a job of its own.
    pub(crate) fn jobs_for(&self, rows: &[(usize, usize)]) -> Vec<TileJob> {
        let mut jobs = Vec::with_capacity(rows.len());
        let mut i = 0;
        while i < rows.len() {
            let first = self.row_offsets(rows[i].0);
            let mut filters = self.max_filters;
            while filters > 1
                && !(i + filters <= rows.len()
                    && !first.is_empty()
                    && rows[i + 1..i + filters]
                        .iter()
                        .all(|&(row, _)| self.row_offsets(row) == first))
            {
                filters /= 2;
            }
            let mut job = TileJob {
                shape: TileShape::for_plane(self.out_hw.1, filters, self.min_vecs),
                steps: self.row_steps[rows[i].0].clone(),
                w_starts: [0; MAX_TILE_FILTERS],
                filters: [0; MAX_TILE_FILTERS],
                dst: [0; MAX_TILE_FILTERS],
            };
            for (slot, &(row, dst)) in rows[i..i + filters].iter().enumerate() {
                job.w_starts[slot] = self.row_weights[row];
                job.filters[slot] = self.reorder[row];
                job.dst[slot] = dst;
            }
            jobs.push(job);
            i += filters;
        }
        jobs
    }

    /// Runs `jobs` over one staged item, writing each filter's plane of
    /// `out` exactly once. `epilogue(job)` supplies the per-slot scale
    /// and bias; `tile` is the dispatched micro-kernel.
    pub(crate) fn run_jobs<X, W>(
        &self,
        jobs: &[TileJob],
        staged: &[X],
        weights: &[W],
        out: &mut [f32],
        epilogue: impl Fn(&TileJob) -> TileEpilogue,
        tile: impl Fn(&PatternTile<'_, X, W>, &TileEpilogue, &mut TileOut<'_>),
    ) {
        let (out_h, out_w) = self.out_hw;
        let (block_jobs, block_rows) = self.block;
        for jobs in jobs.chunks(block_jobs.min(jobs.len()).max(1)) {
            for y_lo in (0..out_h).step_by(block_rows.min(out_h)) {
                let y_hi = y_lo.saturating_add(block_rows).min(out_h);
                for job in jobs {
                    let epi = epilogue(job);
                    let mut call = PatternTile {
                        shape: job.shape,
                        entries: self.entries,
                        offs: &self.offs,
                        steps: job.steps.clone(),
                        weights,
                        w_starts: job.w_starts,
                        staged,
                        base: 0,
                        row_stride: self.layout.tile_row_stride(),
                    };
                    let mut to = TileOut {
                        planes: &mut *out,
                        dst: job.dst,
                        origin: (0, 0),
                        plane: self.out_hw,
                    };
                    for y0 in (y_lo..y_hi).step_by(job.shape.rows()) {
                        for x0 in (0..out_w).step_by(job.shape.cols()) {
                            call.base = self.layout.tile_base(y0, x0);
                            to.origin = (y0, x0);
                            tile(&call, &epi, &mut to);
                        }
                    }
                }
            }
        }
    }
}
