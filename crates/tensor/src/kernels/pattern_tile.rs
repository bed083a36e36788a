//! The output-stationary register tile of the pattern executors.
//!
//! A *tile* is eight accumulator vectors of eight output columns each
//! (half of AVX2's sixteen YMM registers; the other half holds the
//! broadcast weight, loaded inputs and address arithmetic). The tile
//! stays in registers while the driver walks every stored kernel of a
//! filter — one weight broadcast per tap, one unaligned input load per
//! multiply-accumulate — and is written out **once**, with the bias and
//! the fused ReLU applied on the way. Nothing is read back: compare the
//! span-accumulate this replaces, which loaded and stored the output
//! plane once per tap per kernel.
//!
//! Three pieces make that loop branch-free:
//!
//! - [`StagedLayout`] — the input of one batch item is copied once into
//!   a zero-haloed scratch image (`pad` rows and columns of zeros
//!   written with it, row stride rounded up to the vector width,
//!   stride-`s` layers split into `s` column phases so the tile always
//!   walks unit-stride columns). Border taps read the halo instead of
//!   branching.
//! - [`TapOffsets`] — per stored kernel, the offset of each of its taps
//!   inside the staged image, resolved when the executor is built.
//! - [`TileShape`] — how the eight vectors are arranged: `filters` ×
//!   `rows` × `vecs`, chosen from the plane width alone.
//!
//! # The soundness invariant
//!
//! The AVX2 bodies load through raw pointers without per-load bounds
//! checks. Every load of a tile call is at
//! `base + off + r·row_stride + v·8 .. + 8` with `off ≤ offs.max()`,
//! `r < rows`, `v < vecs`, so one comparison per call —
//! `base + offs.max() + shape.extent(row_stride) ≤ staged.len()` —
//! covers all of them; `offs.max()` can be trusted because
//! [`TapOffsets`] keeps it private and only ever raises it.
//! [`StagedLayout::len`] sizes the allocation so that the comparison
//! holds for every tile the layout's own `tile_base` can produce, fringe
//! tiles included: lanes past the plane's right or bottom edge read the
//! halo, the next row, the next plane or the tail slack — all inside
//! the allocation — and their results are dropped when the tile is stored ([`TileOut`]).
//! The portable bodies run the same traversal over `[f32; 8]` /
//! `[i32; 8]` lane arrays with ordinary slice indexing, which is what
//! Miri interprets.
//!
//! # INT8
//!
//! The INT8 tile reads an `i16` staged image (activations quantized
//! straight into it) and weights pre-packed as `(w_e, w_e+1)` `i16`
//! pairs in one `i32`. For a pair of taps it loads sixteen columns at
//! each tap's offset, interleaves them with `unpack{lo,hi}_epi16` so
//! every 32-bit lane holds `(x_e[c], x_e+1[c])`, and `madd_epi16`
//! against the broadcast weight pair retires both taps in one
//! instruction. `|x|, |w| ≤ 127`, so a pair sum is below `2¹⁵` and the
//! `i32` accumulation is exact and order-independent — both variants,
//! and any tile shape, produce identical accumulators. The unpack works
//! per 128-bit lane, so a vector pair holds columns `0‥3, 8‥11` and
//! `4‥7, 12‥15`; the epilogue's `permute2x128` restores column order
//! before the unfused `acc as f32 * scale + bias`.

use std::ops::Range;

use crate::conv::Conv2dGeometry;

/// Accumulator vectors in one tile.
pub const TILE_VECS: usize = 8;
/// Output columns per accumulator vector.
pub const TILE_LANES: usize = 8;
/// Values one tile call produces.
const TILE_LEN: usize = TILE_VECS * TILE_LANES;
/// Most filters one tile can carry.
pub const MAX_TILE_FILTERS: usize = 4;

/// How a tile's eight vectors are arranged: `filters` filters, each with
/// `rows` output rows of `vecs` vectors. The product is always
/// [`TILE_VECS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileShape {
    filters: usize,
    rows: usize,
    vecs: usize,
}

impl TileShape {
    /// A `filters` × `rows` × `vecs` tile.
    ///
    /// # Panics
    ///
    /// Panics unless the product is [`TILE_VECS`] and `filters` is at
    /// most [`MAX_TILE_FILTERS`].
    pub fn new(filters: usize, rows: usize, vecs: usize) -> Self {
        assert!(
            filters * rows * vecs == TILE_VECS && filters <= MAX_TILE_FILTERS,
            "a pattern tile is {TILE_VECS} vectors over at most {MAX_TILE_FILTERS} filters, \
             got {filters}x{rows}x{vecs}"
        );
        TileShape {
            filters,
            rows,
            vecs,
        }
    }

    /// The shape for planes `out_w` columns wide with `filters` filters
    /// per tile: as many vectors per row as the width needs (a power of
    /// two, at least `min_vecs`, at most the filter's share of the
    /// tile), the rest of the share as rows. One filter gets 8 rows × 1
    /// vector on 8-wide planes, 4 × 2 on 16-wide, 2 × 4 on 32-wide and
    /// 1 × 8 beyond; wider planes are covered in column blocks.
    /// `min_vecs` is 1 for `f32` and 2 for INT8 (whose vectors come in
    /// pairs).
    ///
    /// # Panics
    ///
    /// Panics if `filters` is not 1, 2 or 4.
    pub fn for_plane(out_w: usize, filters: usize, min_vecs: usize) -> Self {
        assert!(
            matches!(filters, 1 | 2 | 4),
            "a tile carries 1, 2 or 4 filters, got {filters}"
        );
        let share = TILE_VECS / filters;
        let vecs = out_w
            .div_ceil(TILE_LANES)
            .next_power_of_two()
            .clamp(min_vecs, share);
        TileShape::new(filters, share / vecs, vecs)
    }

    /// Filters per tile.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Output rows per filter.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Vectors per output row.
    pub fn vecs(&self) -> usize {
        self.vecs
    }

    /// Output columns per tile.
    pub fn cols(&self) -> usize {
        self.vecs * TILE_LANES
    }

    /// Elements from a tile's first load address to one past its last,
    /// for one tap: `(rows − 1)` row strides plus one row of vectors.
    pub fn extent(&self, row_stride: usize) -> usize {
        (self.rows - 1) * row_stride + self.cols()
    }
}

/// Per-kernel tap offsets into a staged image, with their maximum.
///
/// The maximum is what lets a tile call bound every load with one
/// comparison; it is private and only ever grows, so safe code cannot
/// make it understate an offset it holds.
#[derive(Debug, Clone, Default)]
pub struct TapOffsets {
    offs: Vec<u32>,
    max: u32,
}

impl TapOffsets {
    /// An empty table.
    pub fn new() -> Self {
        TapOffsets::default()
    }

    /// Appends one tap offset.
    ///
    /// # Panics
    ///
    /// Panics if the offset does not fit 32 bits.
    pub fn push(&mut self, off: usize) {
        let off = u32::try_from(off).expect("staged image offsets fit 32 bits");
        self.max = self.max.max(off);
        self.offs.push(off);
    }

    /// All offsets, in push order.
    pub fn as_slice(&self) -> &[u32] {
        &self.offs
    }

    /// The largest offset pushed so far (0 when empty).
    pub fn max(&self) -> usize {
        self.max as usize
    }
}

/// Where the input of one batch item lives while the tile walks it.
///
/// Per input channel a *plane* of `in_h + 2·pad` rows; per row `stride`
/// column-phase segments of `seg` elements each (`seg` is the padded
/// phase width rounded up to one 32-byte vector load); padded column `j` sits in
/// segment `j % stride` at index `j / stride`. With stride 1 that is
/// the padded row itself. Output `(y, x)` of tap `(kh, kw)` then reads
/// `tap_offset(ic, kh, kw) + tile_base(y, x)` — unit stride in `x`,
/// `tile_row_stride()` in `y` — for every stride.
///
/// **Invariant:** after [`stage`], every element a *valid* output reads
/// is either an input value or a zero of the halo — `stage` writes both
/// on every call, so one scratch buffer can serve layers of different
/// layouts in turn. Everything else (the rounding at the end of a row,
/// rows and phases no tap reaches, the tail slack) is read only by lanes
/// whose results are dropped and may hold stale values; it is still
/// initialized memory inside the allocation, which `len()` sizes to
/// keep the last fringe tile's over-read in bounds.
///
/// [`stage`]: StagedLayout::stage
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedLayout {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    kernel_h: usize,
    kernel_w: usize,
    stride: usize,
    pad: usize,
    seg: usize,
    row: usize,
    plane: usize,
    len: usize,
}

impl StagedLayout {
    /// The layout for `geo`. `min_vecs` is the tile family's narrowest
    /// row (1 for `f32`, 2 for INT8); the tail slack covers every shape
    /// [`TileShape::for_plane`] returns for this plane width.
    pub fn new(geo: &Conv2dGeometry, min_vecs: usize) -> Self {
        let stride = geo.stride;
        // One 32-byte vector load covers `min_vecs` vectors' worth of
        // elements (8 `f32`, 16 `i16`): rows are whole vectors.
        let seg = (geo.in_w + 2 * geo.pad)
            .div_ceil(stride)
            .next_multiple_of(TILE_LANES * min_vecs);
        let row = stride * seg;
        let plane = (geo.in_h + 2 * geo.pad) * row;
        let mut layout = StagedLayout {
            in_c: geo.in_channels,
            in_h: geo.in_h,
            in_w: geo.in_w,
            kernel_h: geo.kernel_h,
            kernel_w: geo.kernel_w,
            stride,
            pad: geo.pad,
            seg,
            row,
            plane,
            len: geo.in_channels * plane,
        };
        let max_tap = (0..geo.kernel_w)
            .map(|kw| layout.tap_offset(geo.in_channels - 1, geo.kernel_h - 1, kw))
            .max()
            .expect("kernels are at least 1 wide");
        for filters in [1, 2, 4] {
            let shape = TileShape::for_plane(geo.out_w, filters, min_vecs);
            let last_y = (geo.out_h - 1) / shape.rows() * shape.rows();
            let last_x = (geo.out_w - 1) / shape.cols() * shape.cols();
            let end =
                max_tap + layout.tile_base(last_y, last_x) + shape.extent(layout.tile_row_stride());
            layout.len = layout.len.max(end);
        }
        layout
    }

    /// Elements the staged allocation must hold.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the layout holds nothing (never: geometries are
    /// non-empty).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of tap `(kh, kw)` of input channel `ic` for output `(0, 0)`.
    pub fn tap_offset(&self, ic: usize, kh: usize, kw: usize) -> usize {
        ic * self.plane + kh * self.row + (kw % self.stride) * self.seg + kw / self.stride
    }

    /// Offset added to every tap for a tile whose first output is
    /// `(y0, x0)`.
    pub fn tile_base(&self, y0: usize, x0: usize) -> usize {
        y0 * self.tile_row_stride() + x0
    }

    /// Elements between the loads of vertically adjacent outputs.
    pub fn tile_row_stride(&self) -> usize {
        self.stride * self.row
    }

    /// Elements of all channels' staged rows that `out_rows` consecutive
    /// output rows read: the working set of one spatial block.
    pub fn block_len(&self, out_rows: usize) -> usize {
        self.in_c * ((out_rows - 1) * self.stride + self.kernel_h) * self.row
    }

    /// Stages one `[in_c, in_h, in_w]` item: writes every element a
    /// valid output reads — the interior, each value converted with
    /// `convert` (identity for `f32`, quantization for INT8), and the
    /// zero halo around it. Rows and column phases that no tap can
    /// reach (stride larger than the kernel) are skipped, and nothing
    /// past a row's padded width is touched.
    ///
    /// # Panics
    ///
    /// Panics if either buffer has the wrong length.
    pub fn stage<T: Copy + Default>(
        &self,
        input: &[f32],
        staged: &mut [T],
        convert: impl Fn(f32) -> T,
    ) {
        assert_eq!(
            input.len(),
            self.in_c * self.in_h * self.in_w,
            "input item length mismatch"
        );
        assert_eq!(staged.len(), self.len, "staged buffer length mismatch");
        let zero = T::default();
        let (padded_h, padded_w) = (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad);
        for ic in 0..self.in_c {
            let plane = &mut staged[ic * self.plane..][..self.plane];
            let rows = &input[ic * self.in_h * self.in_w..][..self.in_h * self.in_w];
            if self.stride == 1 {
                // The hot case, one pass in address order: the halo rows
                // above (and the first row's left halo), then per row its
                // values and one run of zeros — its right halo, the
                // rounding, and the next row's left halo — and whatever
                // is left of the halo rows below.
                let gap = self.row - self.in_w;
                let first = self.pad * self.row + self.pad;
                plane[..first].fill(zero);
                for (i, src) in rows.chunks_exact(self.in_w).enumerate() {
                    let (dst, tail) = plane[first + i * self.row..].split_at_mut(self.in_w);
                    for (d, &x) in dst.iter_mut().zip(src) {
                        *d = convert(x);
                    }
                    let gap = gap.min(tail.len());
                    zero_short(&mut tail[..gap], zero);
                }
                let below = (first + self.in_h * self.row).min(self.plane);
                plane[below..].fill(zero);
                continue;
            }
            let phase_w = padded_w.div_ceil(self.stride);
            for prow in 0..padded_h {
                if prow % self.stride >= self.kernel_h {
                    continue;
                }
                let dst = &mut plane[prow * self.row..][..self.row];
                let Some(i) = prow.checked_sub(self.pad).filter(|&i| i < self.in_h) else {
                    dst.fill(zero); // a halo row
                    continue;
                };
                let src = &rows[i * self.in_w..][..self.in_w];
                for phase in 0..self.stride.min(self.kernel_w) {
                    // First padded column of this phase at or after the
                    // left halo, and how many input columns follow it.
                    let j0 =
                        self.pad + (phase + self.stride - self.pad % self.stride) % self.stride;
                    let n = (self.pad + self.in_w)
                        .saturating_sub(j0)
                        .div_ceil(self.stride);
                    let seg = &mut dst[phase * self.seg..][..phase_w];
                    let first = (j0 / self.stride).min(phase_w);
                    seg[..first].fill(zero);
                    seg[first + n..].fill(zero);
                    if n > 0 {
                        let strided = src[j0 - self.pad..].iter().step_by(self.stride);
                        for (d, &x) in seg[first..first + n].iter_mut().zip(strided) {
                            *d = convert(x);
                        }
                    }
                }
            }
        }
    }
}

/// Zero-fills a short run in fixed eight-element stores: a `fill` of a
/// run this short compiles to a `memset` call that costs more than the
/// row copy beside it.
#[inline]
fn zero_short<T: Copy>(run: &mut [T], zero: T) {
    let mut eights = run.chunks_exact_mut(8);
    for eight in &mut eights {
        eight.copy_from_slice(&[zero; 8]);
    }
    for d in eights.into_remainder() {
        *d = zero;
    }
}

/// One tile call: which steps to walk, over which staged image, where.
///
/// A *step* is one stored kernel: `entries` tap offsets (from
/// [`TapOffsets`], indexed `step · entries + e`) and, per filter of the
/// tile, that filter's weights for the kernel (`weights`, indexed
/// `w_starts[filter] + (step − steps.start) · weights_per_step + i`).
/// With one filter per tile the steps are simply the filter's kernels;
/// with several, the filters share every step's offsets — they hold
/// kernels of the same patterns on the same input channels — and each
/// loaded input vector is reused across them.
///
/// For `f32` a step has `entries` weights; for INT8 `entries` must be
/// even (odd tap counts are padded with a zero-weight tap) and a step
/// has `entries / 2` packed pairs.
#[derive(Debug, Clone)]
pub struct PatternTile<'a, X, W> {
    /// Arrangement of the eight vectors.
    pub shape: TileShape,
    /// Tap offsets per step.
    pub entries: usize,
    /// The layer's tap-offset table.
    pub offs: &'a TapOffsets,
    /// Steps to walk.
    pub steps: Range<usize>,
    /// The layer's weights.
    pub weights: &'a [W],
    /// Per filter of the tile, the index of its first step's weights.
    pub w_starts: [usize; MAX_TILE_FILTERS],
    /// The staged image.
    pub staged: &'a [X],
    /// Offset of the tile's first output (see
    /// [`StagedLayout::tile_base`]).
    pub base: usize,
    /// Elements between vertically adjacent outputs.
    pub row_stride: usize,
}

impl<'a, X, W> PatternTile<'a, X, W> {
    /// Checks everything the bodies rely on and returns the offsets of
    /// the steps to walk.
    ///
    /// # Panics
    ///
    /// Panics if the step range, a filter's weight range or the tile's
    /// furthest load falls outside its buffer.
    fn checked_offsets(&self, weights_per_step: usize) -> &'a [u32] {
        let offs =
            &self.offs.as_slice()[self.steps.start * self.entries..self.steps.end * self.entries];
        let per_filter = self.steps.len() * weights_per_step;
        for &start in &self.w_starts[..self.shape.filters] {
            assert!(
                start + per_filter <= self.weights.len(),
                "tile weights out of range"
            );
        }
        // The soundness invariant of the module docs: one comparison
        // bounds every load of the call.
        assert!(
            self.base + self.offs.max() + self.shape.extent(self.row_stride) <= self.staged.len(),
            "tile reads past the staged image"
        );
        offs
    }
}

/// What happens to the accumulators on the way out: `f32` tiles store
/// `acc + bias`, INT8 tiles `acc as f32 * scale + bias`, either followed
/// by `max(0)` when `relu` is set. Indexed by the tile's filter slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileEpilogue {
    /// Dequantization scale per filter (INT8 only).
    pub scale: [f32; MAX_TILE_FILTERS],
    /// Bias per filter.
    pub bias: [f32; MAX_TILE_FILTERS],
    /// Clamp negatives to zero.
    pub relu: bool,
}

/// Where a tile's outputs go: the output buffer of one batch item (or
/// any buffer of whole `out_h × out_w` planes), which plane each filter
/// slot of the tile writes, and where in the plane the tile sits.
///
/// A tile that lies wholly inside the plane is stored straight from the
/// accumulator registers; a fringe tile goes through a stack tile and
/// only its valid rows and columns are copied (as `gemm_packed_f32`
/// handles its fringes).
#[derive(Debug)]
pub struct TileOut<'a> {
    /// The output buffer: whole row-major planes.
    pub planes: &'a mut [f32],
    /// Per filter slot, the index of the plane it writes.
    pub dst: [usize; MAX_TILE_FILTERS],
    /// `(y0, x0)`: the tile's first output row and column.
    pub origin: (usize, usize),
    /// `(out_h, out_w)`: the plane's size.
    pub plane: (usize, usize),
}

impl TileOut<'_> {
    /// Checks that every slot's plane lies inside the buffer and that
    /// the tile starts inside the plane; returns whether the whole tile
    /// does (the condition for storing straight from registers).
    ///
    /// # Panics
    ///
    /// Panics if a plane or the origin is out of range.
    fn checked_interior(&self, shape: TileShape) -> bool {
        let (out_h, out_w) = self.plane;
        let (y0, x0) = self.origin;
        assert!(y0 < out_h && x0 < out_w, "tile origin outside the plane");
        for &dst in &self.dst[..shape.filters] {
            assert!(
                (dst + 1) * out_h * out_w <= self.planes.len(),
                "tile output plane out of range"
            );
        }
        y0 + shape.rows <= out_h && x0 + shape.cols() <= out_w
    }

    /// Copies the valid rows and columns of a finished tile, laid out
    /// `[filter][row][vector][lane]`, into the filters' planes; whatever
    /// lies past the plane's right or bottom edge is dropped.
    fn store(&mut self, shape: TileShape, tile: &[f32; TILE_LEN]) {
        let (out_h, out_w) = self.plane;
        let (y0, x0) = self.origin;
        let per_filter = shape.rows * shape.vecs;
        let cols = shape.cols().min(out_w - x0);
        for slot in 0..shape.filters {
            let plane = &mut self.planes[self.dst[slot] * out_h * out_w..][..out_h * out_w];
            for r in 0..shape.rows.min(out_h - y0) {
                let src = &tile[(slot * per_filter + r * shape.vecs) * TILE_LANES..][..cols];
                plane[(y0 + r) * out_w + x0..][..cols].copy_from_slice(src);
            }
        }
    }
}

/// The portable `f32` tile: the reference traversal, bounds-checked.
pub(super) fn portable_f32(
    t: &PatternTile<'_, f32, f32>,
    epi: &TileEpilogue,
    out: &mut TileOut<'_>,
) {
    let offs = t.checked_offsets(t.entries);
    out.checked_interior(t.shape);
    let (filters, rows, vecs) = (t.shape.filters, t.shape.rows, t.shape.vecs);
    let per_filter = rows * vecs;
    let mut acc = [[0.0f32; TILE_LANES]; TILE_VECS];
    for (step, taps) in offs.chunks_exact(t.entries.max(1)).enumerate() {
        for (e, &off) in taps.iter().enumerate() {
            for r in 0..rows {
                for v in 0..vecs {
                    let at = t.base + off as usize + r * t.row_stride + v * TILE_LANES;
                    let x = &t.staged[at..at + TILE_LANES];
                    for s in 0..filters {
                        let w = t.weights[t.w_starts[s] + step * t.entries + e];
                        let a = &mut acc[s * per_filter + r * vecs + v];
                        for l in 0..TILE_LANES {
                            a[l] += w * x[l];
                        }
                    }
                }
            }
        }
    }
    let mut tile = [0.0f32; TILE_LEN];
    for (i, a) in acc.iter().enumerate() {
        let s = i / per_filter;
        for l in 0..TILE_LANES {
            let y = a[l] + epi.bias[s];
            tile[i * TILE_LANES + l] = if epi.relu { y.max(0.0) } else { y };
        }
    }
    out.store(t.shape, &tile);
}

/// The portable INT8 tile: exact `i32` accumulation, bounds-checked.
pub(super) fn portable_i8(
    t: &PatternTile<'_, i16, i32>,
    epi: &TileEpilogue,
    out: &mut TileOut<'_>,
) {
    assert!(t.entries.is_multiple_of(2), "INT8 tiles walk taps in pairs");
    let pairs = t.entries / 2;
    let offs = t.checked_offsets(pairs);
    out.checked_interior(t.shape);
    let (filters, rows, vecs) = (t.shape.filters, t.shape.rows, t.shape.vecs);
    assert!(
        vecs.is_multiple_of(2),
        "INT8 tile rows are whole vector pairs"
    );
    let per_filter = rows * vecs;
    let mut acc = [[0i32; TILE_LANES]; TILE_VECS];
    for (step, taps) in offs.chunks_exact(t.entries.max(1)).enumerate() {
        for (e, &off) in taps.iter().enumerate() {
            for r in 0..rows {
                for v in 0..vecs {
                    let at = t.base + off as usize + r * t.row_stride + v * TILE_LANES;
                    let x = &t.staged[at..at + TILE_LANES];
                    for s in 0..filters {
                        let pair = t.weights[t.w_starts[s] + step * pairs + e / 2];
                        let w = (pair >> (16 * (e % 2))) as i16 as i32;
                        let a = &mut acc[s * per_filter + r * vecs + v];
                        for l in 0..TILE_LANES {
                            a[l] += w * x[l] as i32;
                        }
                    }
                }
            }
        }
    }
    let mut tile = [0.0f32; TILE_LEN];
    for (i, a) in acc.iter().enumerate() {
        let s = i / per_filter;
        for l in 0..TILE_LANES {
            let y = a[l] as f32 * epi.scale[s] + epi.bias[s];
            tile[i * TILE_LANES + l] = if epi.relu { y.max(0.0) } else { y };
        }
    }
    out.store(t.shape, &tile);
}

/// Packs one kernel's INT8 taps as `(w_e, w_e+1)` `i16` pairs, one pair
/// per `i32` (low half first); an odd tap count gets a zero partner.
pub fn pack_tap_pairs_i8(taps: &[i8], out: &mut Vec<i32>) {
    for pair in taps.chunks(2) {
        let lo = pair[0] as i16 as u16 as u32;
        let hi = pair.get(1).map_or(0, |&w| w as i16 as u16 as u32);
        out.push((hi << 16 | lo) as i32);
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) mod avx2 {
    //! The intrinsic tile bodies, monomorphized per tile shape and tap
    //! count so the accumulators stay in registers and the tap loop
    //! unrolls. Unsafe to call; [`super::super::Avx2Kernel`] is the only
    //! caller and exists only when AVX2+FMA were detected.

    use super::{PatternTile, TileEpilogue, TileOut, TILE_LANES, TILE_LEN, TILE_VECS};
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// AVX2 and FMA must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_f32(
        t: &PatternTile<'_, f32, f32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        let offs = t.checked_offsets(t.entries);
        let interior = out.checked_interior(t.shape);
        // SAFETY (all arms): the two checks just established the
        // contract of `body_f32`.
        match (t.shape.filters, t.shape.rows, t.shape.vecs) {
            (1, 8, 1) => by_entries_f32::<1, 8, 1>(t, offs, interior, epi, out),
            (1, 4, 2) => by_entries_f32::<1, 4, 2>(t, offs, interior, epi, out),
            (1, 2, 4) => by_entries_f32::<1, 2, 4>(t, offs, interior, epi, out),
            (1, 1, 8) => by_entries_f32::<1, 1, 8>(t, offs, interior, epi, out),
            (2, 4, 1) => by_entries_f32::<2, 4, 1>(t, offs, interior, epi, out),
            (2, 2, 2) => by_entries_f32::<2, 2, 2>(t, offs, interior, epi, out),
            (2, 1, 4) => by_entries_f32::<2, 1, 4>(t, offs, interior, epi, out),
            (4, 2, 1) => by_entries_f32::<4, 2, 1>(t, offs, interior, epi, out),
            (4, 1, 2) => by_entries_f32::<4, 1, 2>(t, offs, interior, epi, out),
            shape => unreachable!("TileShape::new admits no {shape:?}"),
        }
    }

    /// # Safety
    ///
    /// As [`body_f32`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn by_entries_f32<const F: usize, const R: usize, const V: usize>(
        t: &PatternTile<'_, f32, f32>,
        offs: &[u32],
        interior: bool,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        match t.entries {
            1 => body_f32::<F, R, V, 1>(t, offs, interior, epi, out),
            4 => body_f32::<F, R, V, 4>(t, offs, interior, epi, out),
            9 => body_f32::<F, R, V, 9>(t, offs, interior, epi, out),
            _ => body_f32::<F, R, V, 0>(t, offs, interior, epi, out),
        }
    }

    /// `F` filters × `R` rows × `V` vectors, `E` taps per step (0: read
    /// the count from the tile).
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available, `offs` must be
    /// `t.checked_offsets(t.entries)`, `interior` must be
    /// `out.checked_interior(t.shape)` and `(F, R, V)` must be `t.shape`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn body_f32<const F: usize, const R: usize, const V: usize, const E: usize>(
        t: &PatternTile<'_, f32, f32>,
        offs: &[u32],
        interior: bool,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        let entries = if E == 0 { t.entries } else { E };
        let rs = t.row_stride;
        let x = t.staged.as_ptr().add(t.base);
        let mut w = [t.weights.as_ptr(); F];
        for s in 0..F {
            w[s] = w[s].add(t.w_starts[s]);
        }
        let mut acc = [_mm256_setzero_ps(); TILE_VECS];
        let mut o = offs.as_ptr();
        for _ in 0..t.steps.len() {
            for e in 0..entries {
                // In bounds for every (r, v) by the checked invariant.
                let p = x.add(*o.add(e) as usize);
                if F == 1 {
                    let wv = _mm256_broadcast_ss(&*w[0].add(e));
                    for r in 0..R {
                        for v in 0..V {
                            let xin = _mm256_loadu_ps(p.add(r * rs + v * TILE_LANES));
                            acc[r * V + v] = _mm256_fmadd_ps(wv, xin, acc[r * V + v]);
                        }
                    }
                } else {
                    // Filter-level reuse: load the inputs once, feed
                    // every filter of the tile from registers.
                    let mut xin = [_mm256_setzero_ps(); 4];
                    for r in 0..R {
                        for v in 0..V {
                            xin[r * V + v] = _mm256_loadu_ps(p.add(r * rs + v * TILE_LANES));
                        }
                    }
                    for s in 0..F {
                        let wv = _mm256_broadcast_ss(&*w[s].add(e));
                        for i in 0..R * V {
                            acc[s * R * V + i] = _mm256_fmadd_ps(wv, xin[i], acc[s * R * V + i]);
                        }
                    }
                }
            }
            o = o.add(entries);
            for s in 0..F {
                w[s] = w[s].add(entries);
            }
        }
        let zero = _mm256_setzero_ps();
        for s in 0..F {
            let bias = _mm256_set1_ps(epi.bias[s]);
            for i in 0..R * V {
                let mut y = _mm256_add_ps(acc[s * R * V + i], bias);
                if epi.relu {
                    y = _mm256_max_ps(y, zero);
                }
                acc[s * R * V + i] = y;
            }
        }
        store::<F, R, V>(&acc, interior, out);
    }

    /// Writes a finished tile: straight from the registers when it lies
    /// inside the plane, through a stack tile when it is a fringe.
    ///
    /// # Safety
    ///
    /// AVX must be available, `interior` must be
    /// `out.checked_interior(shape)` and `(F, R, V)` that shape.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store<const F: usize, const R: usize, const V: usize>(
        y: &[__m256; TILE_VECS],
        interior: bool,
        out: &mut TileOut<'_>,
    ) {
        if interior {
            let (out_h, out_w) = out.plane;
            let (y0, x0) = out.origin;
            for s in 0..F {
                // Inside the buffer: the plane is (checked), and so is
                // every row and vector of an interior tile.
                let plane = out.planes.as_mut_ptr().add(out.dst[s] * out_h * out_w);
                for r in 0..R {
                    for v in 0..V {
                        let at = (y0 + r) * out_w + x0 + v * TILE_LANES;
                        _mm256_storeu_ps(plane.add(at), y[(s * R + r) * V + v]);
                    }
                }
            }
        } else {
            let mut tile = [0.0f32; TILE_LEN];
            for i in 0..TILE_VECS {
                _mm256_storeu_ps(tile.as_mut_ptr().add(i * TILE_LANES), y[i]);
            }
            out.store(super::TileShape::new(F, R, V), &tile);
        }
    }

    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_i8(
        t: &PatternTile<'_, i16, i32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        assert!(t.entries.is_multiple_of(2), "INT8 tiles walk taps in pairs");
        let offs = t.checked_offsets(t.entries / 2);
        let interior = out.checked_interior(t.shape);
        // SAFETY (all arms): the two checks just established the
        // contract of `body_i8`.
        match (t.shape.filters, t.shape.rows, t.shape.vecs) {
            (1, 4, 2) => by_entries_i8::<1, 4, 1>(t, offs, interior, epi, out),
            (1, 2, 4) => by_entries_i8::<1, 2, 2>(t, offs, interior, epi, out),
            (1, 1, 8) => by_entries_i8::<1, 1, 4>(t, offs, interior, epi, out),
            (2, 2, 2) => by_entries_i8::<2, 2, 1>(t, offs, interior, epi, out),
            (2, 1, 4) => by_entries_i8::<2, 1, 2>(t, offs, interior, epi, out),
            (4, 1, 2) => by_entries_i8::<4, 1, 1>(t, offs, interior, epi, out),
            shape => panic!("INT8 tile rows are whole vector pairs, got {shape:?}"),
        }
    }

    /// # Safety
    ///
    /// As [`body_i8`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn by_entries_i8<const F: usize, const R: usize, const P: usize>(
        t: &PatternTile<'_, i16, i32>,
        offs: &[u32],
        interior: bool,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        match t.entries {
            2 => body_i8::<F, R, P, 1>(t, offs, interior, epi, out),
            4 => body_i8::<F, R, P, 2>(t, offs, interior, epi, out),
            10 => body_i8::<F, R, P, 5>(t, offs, interior, epi, out),
            _ => body_i8::<F, R, P, 0>(t, offs, interior, epi, out),
        }
    }

    /// `F` filters × `R` rows × `P` vector pairs, `TP` tap pairs per step
    /// (0: read the count from the tile).
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `t.entries` must be even, `offs` must be
    /// `t.checked_offsets(t.entries / 2)`, `interior` must be
    /// `out.checked_interior(t.shape)` and `(F, R, 2·P)` must be
    /// `t.shape`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn body_i8<const F: usize, const R: usize, const P: usize, const TP: usize>(
        t: &PatternTile<'_, i16, i32>,
        offs: &[u32],
        interior: bool,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        let pairs = if TP == 0 { t.entries / 2 } else { TP };
        let rs = t.row_stride;
        let x = t.staged.as_ptr().add(t.base);
        let mut w = [t.weights.as_ptr(); F];
        for s in 0..F {
            w[s] = w[s].add(t.w_starts[s]);
        }
        // Vector pair `i` of filter `s` is `acc[2·(s·R·P + i)]` (columns
        // 0‥3, 8‥11) and the one after it (columns 4‥7, 12‥15).
        let mut acc = [_mm256_setzero_si256(); TILE_VECS];
        let mut o = offs.as_ptr();
        for _ in 0..t.steps.len() {
            for tp in 0..pairs {
                // In bounds for every (r, p) by the checked invariant.
                let p0 = x.add(*o.add(2 * tp) as usize);
                let p1 = x.add(*o.add(2 * tp + 1) as usize);
                let mut lo = [_mm256_setzero_si256(); 4];
                let mut hi = [_mm256_setzero_si256(); 4];
                for r in 0..R {
                    for p in 0..P {
                        let at = r * rs + p * 2 * TILE_LANES;
                        let a = _mm256_loadu_si256(p0.add(at) as *const __m256i);
                        let b = _mm256_loadu_si256(p1.add(at) as *const __m256i);
                        lo[r * P + p] = _mm256_unpacklo_epi16(a, b);
                        hi[r * P + p] = _mm256_unpackhi_epi16(a, b);
                    }
                }
                for s in 0..F {
                    let wv = _mm256_set1_epi32(*w[s].add(tp));
                    for i in 0..R * P {
                        let k = 2 * (s * R * P + i);
                        acc[k] = _mm256_add_epi32(acc[k], _mm256_madd_epi16(lo[i], wv));
                        acc[k + 1] = _mm256_add_epi32(acc[k + 1], _mm256_madd_epi16(hi[i], wv));
                    }
                }
            }
            o = o.add(2 * pairs);
            for s in 0..F {
                w[s] = w[s].add(pairs);
            }
        }
        let zero = _mm256_setzero_ps();
        let mut ys = [zero; TILE_VECS];
        for s in 0..F {
            let scale = _mm256_set1_ps(epi.scale[s]);
            let bias = _mm256_set1_ps(epi.bias[s]);
            for i in 0..R * P {
                let k = 2 * (s * R * P + i);
                // Undo the per-lane interleave of the unpacks.
                let cols = [
                    _mm256_permute2x128_si256(acc[k], acc[k + 1], 0x20),
                    _mm256_permute2x128_si256(acc[k], acc[k + 1], 0x31),
                ];
                for (half, c) in cols.into_iter().enumerate() {
                    // Unfused multiply then add, as the portable body.
                    let mut y = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(c), scale), bias);
                    if epi.relu {
                        y = _mm256_max_ps(y, zero);
                    }
                    ys[k + half] = y;
                }
            }
        }
        match P {
            1 => store::<F, R, 2>(&ys, interior, out),
            2 => store::<F, R, 4>(&ys, interior, out),
            _ => store::<F, R, 8>(&ys, interior, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{available_variants, kernel_for, MicroKernel};
    use crate::rng::Rng;

    fn kernels() -> Vec<&'static dyn MicroKernel> {
        available_variants()
            .into_iter()
            .map(|v| kernel_for(v).expect("listed variants are available"))
            .collect()
    }

    /// The taps of a test kernel with `entries` entries: the single tap
    /// of a 1×1 kernel, a 4-entry pattern, or every tap of a 3×3.
    fn taps_for(entries: usize, rng: &mut Rng) -> (usize, Vec<(usize, usize)>) {
        match entries {
            1 => (1, vec![(0, 0)]),
            4 => {
                // Centre plus three distinct others, row-major.
                let mut others: Vec<usize> = (0..9).filter(|&i| i != 4).collect();
                for i in 0..3 {
                    let j = i + rng.below(others.len() - i);
                    others.swap(i, j);
                }
                let mut picked = vec![4, others[0], others[1], others[2]];
                picked.sort_unstable();
                (3, picked.into_iter().map(|i| (i / 3, i % 3)).collect())
            }
            9 => (3, (0..9).map(|i| (i / 3, i % 3)).collect()),
            other => unreachable!("test entries {other}"),
        }
    }

    /// One layer of the grid: geometry, the shared kernel list
    /// `(ic, taps)` and `filters` weight sets over it.
    struct Case {
        geo: Conv2dGeometry,
        kernels: Vec<(usize, Vec<(usize, usize)>)>,
        filters: usize,
    }

    impl Case {
        fn new(
            (out_h, out_w): (usize, usize),
            entries: usize,
            (stride, pad): (usize, usize),
            filters: usize,
            rng: &mut Rng,
        ) -> Option<Self> {
            let in_c = 3;
            let mut kernels = Vec::new();
            let mut k = 1;
            for ic in [0, 2, 1, 2] {
                let (kernel, taps) = taps_for(entries, rng);
                k = kernel;
                kernels.push((ic, taps));
            }
            let in_dim = |out: usize| ((out - 1) * stride + k).checked_sub(2 * pad);
            let (in_h, in_w) = (in_dim(out_h)?, in_dim(out_w)?);
            if in_h == 0 || in_w == 0 {
                return None;
            }
            let geo = Conv2dGeometry::new(filters, in_c, k, k, in_h, in_w, stride, pad);
            assert_eq!((geo.out_h, geo.out_w), (out_h, out_w));
            Some(Case {
                geo,
                kernels,
                filters,
            })
        }

        fn offsets(&self, layout: &StagedLayout, pad_even: bool) -> (TapOffsets, usize) {
            let mut offs = TapOffsets::new();
            let mut entries = 0;
            for (ic, taps) in &self.kernels {
                for &(kh, kw) in taps {
                    offs.push(layout.tap_offset(*ic, kh, kw));
                }
                entries = taps.len();
                if pad_even && taps.len() % 2 == 1 {
                    let &(kh, kw) = taps.last().expect("kernels have taps");
                    offs.push(layout.tap_offset(*ic, kh, kw));
                    entries += 1;
                }
            }
            (offs, entries)
        }

        /// Output `(f, y, x)` by the definition, over `value(ic, ih, iw)`
        /// and `weight(f, kernel, tap)`.
        fn naive<A: Copy + std::ops::AddAssign + std::ops::Mul<Output = A> + Default>(
            &self,
            value: impl Fn(usize, usize, usize) -> A,
            weight: impl Fn(usize, usize, usize) -> A,
        ) -> Vec<A> {
            let g = &self.geo;
            let mut out = vec![A::default(); self.filters * g.out_h * g.out_w];
            for f in 0..self.filters {
                for y in 0..g.out_h {
                    for x in 0..g.out_w {
                        let mut acc = A::default();
                        for (k, (ic, taps)) in self.kernels.iter().enumerate() {
                            for (e, &(kh, kw)) in taps.iter().enumerate() {
                                let ih = (y * g.stride + kh).checked_sub(g.pad);
                                let iw = (x * g.stride + kw).checked_sub(g.pad);
                                if let (Some(ih), Some(iw)) = (ih, iw) {
                                    if ih < g.in_h && iw < g.in_w {
                                        acc += weight(f, k, e) * value(*ic, ih, iw);
                                    }
                                }
                            }
                        }
                        out[(f * g.out_h + y) * g.out_w + x] = acc;
                    }
                }
            }
            out
        }
    }

    /// Walks every tile of the plane and gathers the filters' outputs.
    fn run_plane<X, W>(
        case: &Case,
        layout: &StagedLayout,
        min_vecs: usize,
        mut tile: PatternTile<'_, X, W>,
        weights_per_filter: usize,
        run: impl Fn(&PatternTile<'_, X, W>, &mut TileOut<'_>),
    ) -> Vec<f32> {
        let g = &case.geo;
        let shape = TileShape::for_plane(g.out_w, case.filters, min_vecs);
        tile.shape = shape;
        let mut dst = [0; MAX_TILE_FILTERS];
        for s in 0..case.filters {
            tile.w_starts[s] = s * weights_per_filter;
            dst[s] = s;
        }
        tile.row_stride = layout.tile_row_stride();
        // Exactly the planes: a store past a plane's edge is out of
        // bounds or lands in a value the comparison then catches.
        let mut planes = vec![f32::NAN; case.filters * g.out_h * g.out_w];
        for y0 in (0..g.out_h).step_by(shape.rows()) {
            for x0 in (0..g.out_w).step_by(shape.cols()) {
                tile.base = layout.tile_base(y0, x0);
                run(
                    &tile,
                    &mut TileOut {
                        planes: &mut planes,
                        dst,
                        origin: (y0, x0),
                        plane: (g.out_h, g.out_w),
                    },
                );
            }
        }
        planes
    }

    /// The grid the issue names; Miri interprets a thinner one.
    fn grid() -> Vec<((usize, usize), usize, (usize, usize), usize)> {
        let widths: &[usize] = if cfg!(miri) {
            &[1, 7, 9, 17, 33]
        } else {
            &[1, 5, 7, 8, 9, 11, 15, 16, 17, 31, 32, 33]
        };
        let heights: &[usize] = if cfg!(miri) {
            &[1, 3, 9]
        } else {
            &[1, 2, 3, 4, 5, 6, 7, 8, 9]
        };
        let mut cases = Vec::new();
        for &w in widths {
            for &h in heights {
                for entries in [1, 4, 9] {
                    for pad in [0, 1] {
                        // Stride 2 and the multi-filter tiles on a
                        // rotating subset, stride 1 × one filter on all.
                        cases.push(((h, w), entries, (1, pad), 1));
                        let filters = [2, 4][(w + h) % 2];
                        cases.push(((h, w), entries, (1 + (w + h + pad) % 2, pad), filters));
                        if (w + h) % 3 == 0 {
                            cases.push(((h, w), entries, (2, pad), 1));
                            cases.push(((h, w), entries, (3, pad), 1));
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn f32_tile_matches_naive_on_exactly_sized_staged_images() {
        let mut rng = Rng::seed_from(31);
        for (plane, entries, stride_pad, filters) in grid() {
            let Some(case) = Case::new(plane, entries, stride_pad, filters, &mut rng) else {
                continue;
            };
            let g = &case.geo;
            let layout = StagedLayout::new(g, 1);
            let input: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            // Exactly the documented size: any over-read is out of
            // bounds. Stale NaNs: a halo `stage` forgot poisons an output.
            let mut staged = vec![f32::NAN; layout.len()];
            layout.stage(&input, &mut staged, |x| x);
            let (offs, entries) = case.offsets(&layout, false);
            let per_filter = case.kernels.len() * entries;
            let weights: Vec<f32> = (0..filters * per_filter)
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            let bias = [0.25, -0.5, 0.75, -1.0];
            let want = case.naive(
                |ic, ih, iw| input[(ic * g.in_h + ih) * g.in_w + iw],
                |f, k, e| weights[f * per_filter + k * entries + e],
            );
            for kernel in kernels() {
                for relu in [false, true] {
                    let epi = TileEpilogue {
                        bias,
                        relu,
                        ..TileEpilogue::default()
                    };
                    let tile = PatternTile {
                        shape: TileShape::new(1, 8, 1),
                        entries,
                        offs: &offs,
                        steps: 0..case.kernels.len(),
                        weights: &weights[..],
                        w_starts: [0; MAX_TILE_FILTERS],
                        staged: &staged[..],
                        base: 0,
                        row_stride: 0,
                    };
                    let got = run_plane(&case, &layout, 1, tile, per_filter, |t, out| {
                        kernel.pattern_tile_f32(t, &epi, out)
                    });
                    for (i, (&g_, &w_)) in got.iter().zip(&want).enumerate() {
                        let f = i / (g.out_h * g.out_w);
                        let w_ = if relu {
                            (w_ + bias[f]).max(0.0)
                        } else {
                            w_ + bias[f]
                        };
                        assert!(
                            (g_ - w_).abs() < 1e-4,
                            "{} {plane:?} e{entries} s/p {stride_pad:?} F{filters} relu {relu} \
                             at {i}: {g_} vs {w_}",
                            kernel.variant().label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn i8_tile_is_exact_and_identical_across_variants() {
        let mut rng = Rng::seed_from(32);
        for (plane, entries, stride_pad, filters) in grid() {
            let Some(case) = Case::new(plane, entries, stride_pad, filters, &mut rng) else {
                continue;
            };
            let g = &case.geo;
            let layout = StagedLayout::new(g, 2);
            let input: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
                .map(|_| (rng.below(255) as i32 - 127) as f32)
                .collect();
            let mut staged = vec![12345i16; layout.len()];
            layout.stage(&input, &mut staged, |x| x as i16);
            let (offs, padded) = case.offsets(&layout, true);
            let raw: Vec<i8> = (0..filters * case.kernels.len() * entries)
                .map(|_| (rng.below(255) as i32 - 127) as i8)
                .collect();
            let mut weights = Vec::new();
            for kernel in raw.chunks(entries) {
                pack_tap_pairs_i8(kernel, &mut weights);
            }
            let per_filter = case.kernels.len() * padded / 2;
            let want = case.naive(
                |ic, ih, iw| input[(ic * g.in_h + ih) * g.in_w + iw] as i32,
                |f, k, e| raw[(f * case.kernels.len() + k) * entries + e] as i32,
            );
            let mut reference: Option<Vec<f32>> = None;
            for kernel in kernels() {
                let tile = PatternTile {
                    shape: TileShape::new(1, 4, 2),
                    entries: padded,
                    offs: &offs,
                    steps: 0..case.kernels.len(),
                    weights: &weights[..],
                    w_starts: [0; MAX_TILE_FILTERS],
                    staged: &staged[..],
                    base: 0,
                    row_stride: 0,
                };
                // Scale 1, bias 0: the output is the accumulator itself.
                let exact = TileEpilogue {
                    scale: [1.0; MAX_TILE_FILTERS],
                    ..TileEpilogue::default()
                };
                let got = run_plane(&case, &layout, 2, tile.clone(), per_filter, |t, out| {
                    kernel.pattern_tile_i8(t, &exact, out)
                });
                let want_f32: Vec<f32> = want.iter().map(|&a| a as f32).collect();
                assert_eq!(
                    got,
                    want_f32,
                    "{} {plane:?} e{entries} s/p {stride_pad:?} F{filters}",
                    kernel.variant().label()
                );
                // A real epilogue must agree across variants to the bit.
                let epi = TileEpilogue {
                    scale: [0.013, 0.4, 1.7e-3, 0.09],
                    bias: [0.3, -20.0, 0.0, 5.5],
                    relu: true,
                };
                let got = run_plane(&case, &layout, 2, tile, per_filter, |t, out| {
                    kernel.pattern_tile_i8(t, &epi, out)
                });
                for (i, (&y, &a)) in got.iter().zip(&want).enumerate() {
                    let f = i / (g.out_h * g.out_w);
                    assert_eq!(y, (a as f32 * epi.scale[f] + epi.bias[f]).max(0.0));
                }
                match &reference {
                    Some(first) => assert_eq!(&got, first, "variants must agree bit for bit"),
                    None => reference = Some(got),
                }
            }
        }
    }

    #[test]
    fn tile_shapes_follow_the_plane_width() {
        let shape = |w, f| {
            let s = TileShape::for_plane(w, f, 1);
            (s.filters(), s.rows(), s.vecs())
        };
        assert_eq!(shape(8, 1), (1, 8, 1));
        assert_eq!(shape(7, 1), (1, 8, 1));
        assert_eq!(shape(16, 1), (1, 4, 2));
        assert_eq!(shape(32, 1), (1, 2, 4));
        assert_eq!(shape(33, 1), (1, 1, 8));
        assert_eq!(shape(224, 1), (1, 1, 8));
        assert_eq!(shape(8, 2), (2, 4, 1));
        assert_eq!(shape(32, 2), (2, 1, 4));
        assert_eq!(shape(8, 4), (4, 2, 1));
        assert_eq!(shape(32, 4), (4, 1, 2));
        // INT8 rows are whole vector pairs.
        let s = TileShape::for_plane(8, 1, 2);
        assert_eq!((s.rows(), s.vecs()), (4, 2));
    }

    #[test]
    #[should_panic(expected = "tile reads past the staged image")]
    fn a_tile_past_the_staged_image_is_refused_before_any_load() {
        let geo = Conv2dGeometry::new(1, 1, 3, 3, 8, 8, 1, 1);
        let layout = StagedLayout::new(&geo, 1);
        let staged = vec![0.0f32; layout.len()];
        let mut offs = TapOffsets::new();
        offs.push(layout.tap_offset(0, 2, 2));
        let weights = [1.0f32];
        for kernel in kernels() {
            let tile = PatternTile {
                shape: TileShape::for_plane(8, 1, 1),
                entries: 1,
                offs: &offs,
                steps: 0..1,
                weights: &weights[..],
                w_starts: [0; MAX_TILE_FILTERS],
                staged: &staged[..],
                // One row further down than any tile of this plane.
                base: layout.tile_base(8, 0),
                row_stride: layout.tile_row_stride(),
            };
            let mut planes = [0.0f32; 64];
            let mut out = TileOut {
                planes: &mut planes,
                dst: [0; MAX_TILE_FILTERS],
                origin: (0, 0),
                plane: (8, 8),
            };
            kernel.pattern_tile_f32(&tile, &TileEpilogue::default(), &mut out);
        }
    }

    #[test]
    fn staging_writes_the_halo_and_places_every_phase() {
        // Stride 2, 3×3, pad 1 on a 5×6 input: padded column j lands in
        // phase j % 2 at index j / 2.
        let geo = Conv2dGeometry::new(1, 2, 3, 3, 5, 6, 2, 1);
        let layout = StagedLayout::new(&geo, 1);
        let input: Vec<f32> = (0..2 * 5 * 6).map(|i| (i + 1) as f32).collect();
        // A buffer another layer left behind.
        let mut staged = vec![-7.0f32; layout.len()];
        layout.stage(&input, &mut staged, |x| x);
        let mut seen = 0;
        for ic in 0..2 {
            for kh in 0..3 {
                for kw in 0..3 {
                    for y in 0..geo.out_h {
                        for x in 0..geo.out_w {
                            let at = layout.tap_offset(ic, kh, kw) + layout.tile_base(y, x);
                            let (ih, iw) = (y * 2 + kh, x * 2 + kw);
                            let want = if (1..=5).contains(&ih) && (1..=6).contains(&iw) {
                                seen += 1;
                                input[(ic * 5 + ih - 1) * 6 + iw - 1]
                            } else {
                                0.0
                            };
                            assert_eq!(staged[at], want, "ic {ic} tap ({kh},{kw}) out ({y},{x})");
                        }
                    }
                }
            }
        }
        assert!(seen > 0);
    }
}
