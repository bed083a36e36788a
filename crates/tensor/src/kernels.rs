//! Register-tiled SIMD micro-kernels with runtime CPU dispatch.
//!
//! Every hot inner loop in the workspace — the f32 and INT8 pattern-conv
//! register tiles ([`pattern_tile`], whose dense case is the engine's
//! GEMM-class conv lowering), the FC heads' packed GEMM, max pooling
//! ([`pool`]) — bottoms out in one of the primitives here. The module follows the
//! `PackedConv`/`ConvKer` split of production inference runtimes: the
//! *layout* (panel packing, tile sizes) is fixed and variant-independent
//! so weights can be packed once at artifact load, while the *arithmetic*
//! is selected at runtime between an AVX2/FMA implementation (guarded by
//! `is_x86_feature_detected!`) and a portable fallback that is always
//! compiled and tested on every platform.
//!
//! Dispatch is resolved once per process and cached. Setting the
//! environment variable `PATDNN_FORCE_PORTABLE=1` (before first use)
//! pins the portable kernels even on AVX2 hardware, which is how CI
//! keeps the fallback from rotting.
//!
//! The f32 GEMM micro-kernel computes an `MR`×`NR` register tile
//! (`4×16`: eight YMM accumulators on AVX2) over packed panels; callers
//! drive it over full tiles directly and over ragged right/bottom
//! fringes through a zero-padded stack tile, so no shape constraint
//! leaks out of this module. The pattern executors' output-stationary
//! tile follows the same rule (see [`pattern_tile`]). The INT8 kernels
//! are exact: both variants produce bit-identical `i32` accumulations
//! (integer arithmetic is associative), which the artifact equivalence
//! tests rely on.

use std::sync::OnceLock;

pub mod pattern_tile;
pub mod pool;

pub use pattern_tile::{
    pack_tap_pairs_i8, PatternTile, StagedLayout, TapOffsets, TileEpilogue, TileOut, TileShape,
    MAX_TILE_FILTERS,
};
pub use pool::{maxpool_planes, PoolWindow};

/// Rows of the register tile (A-panel height).
pub const MR: usize = 4;
/// Columns of the register tile (B-panel width, two 8-lane YMM vectors).
pub const NR: usize = 16;
/// Column width of the packed INT8 right-hand-side panels.
pub const NR_I8: usize = 16;

/// Which arithmetic implementation backs the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// AVX2 + FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
    /// Portable scalar loops (always available, autovectorizer-friendly).
    Portable,
}

impl KernelVariant {
    /// Short label for reports and plan dumps.
    pub fn label(&self) -> &'static str {
        match self {
            KernelVariant::Avx2 => "avx2",
            KernelVariant::Portable => "portable",
        }
    }
}

/// One register-tiled arithmetic implementation.
///
/// All methods are safe to call on any input: implementations carry
/// their own feature guarantees (an [`KernelVariant::Avx2`] kernel is
/// only ever handed out after runtime detection succeeded).
pub trait MicroKernel: Sync {
    /// Which variant this kernel implements.
    fn variant(&self) -> KernelVariant;

    /// `acc[r * NR + j] = sum_k ap[k*MR + r] * bp[k*NR + j]` — one full
    /// `MR`×`NR` f32 register tile over packed panels. `ap` must hold
    /// `k * MR` values, `bp` must hold `k * NR`.
    fn tile_f32(&self, k: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]);

    /// Dot product of two equal-length f32 spans.
    fn dot_f32(&self, x: &[f32], y: &[f32]) -> f32;

    /// Exact `i8×i8→i32` dot product of two equal-length spans.
    fn dot_i8(&self, x: &[i8], y: &[i8]) -> i32;

    /// `out[j] += sum_k x[k] * W[j][k]` for `j in 0..n` over a packed
    /// INT8 weight panel (see [`pack_b_t_i8`]). Exact. `x` must hold
    /// `k` values and `out` must hold `n`.
    fn gemv_i8(&self, n: usize, k: usize, x: &[i8], bp: &[i8], out: &mut [i32]);

    /// One output-stationary `f32` pattern tile: walks `tile.steps` with
    /// the eight accumulator vectors in registers and writes
    /// `acc + bias` (then `max(0)` if `epi.relu`) into the planes `out`
    /// names, once. See [`pattern_tile`].
    ///
    /// # Panics
    ///
    /// Panics if the tile's steps, weights or furthest load, or an
    /// output plane, fall outside their buffers.
    fn pattern_tile_f32(
        &self,
        tile: &PatternTile<'_, f32, f32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    );

    /// The INT8 tile over an `i16` staged image and packed weight
    /// pairs: exact `i32` accumulation (bit-identical across variants),
    /// then `acc as f32 * scale + bias` (unfused) and the optional
    /// `max(0)`, written as [`MicroKernel::pattern_tile_f32`] writes.
    ///
    /// # Panics
    ///
    /// As the `f32` tile; also if `tile.entries` or the shape's vectors
    /// per row are odd.
    fn pattern_tile_i8(
        &self,
        tile: &PatternTile<'_, i16, i32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    );

    /// One output row of 2×2 max pooling at stride 2: `out[i]` is the
    /// largest of columns `2i` and `2i + 1` of `top` and `bottom`. See
    /// [`pool`].
    ///
    /// # Panics
    ///
    /// Panics if either row holds fewer than `2 * out.len()` values.
    fn maxpool_2x2_row(&self, top: &[f32], bottom: &[f32], out: &mut [f32]);
}

/// The portable fallback: plain loops, no intrinsics, compiled and
/// tested on every platform.
pub struct PortableKernel;

impl MicroKernel for PortableKernel {
    fn variant(&self) -> KernelVariant {
        KernelVariant::Portable
    }

    fn tile_f32(&self, k: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
        debug_assert!(ap.len() >= k * MR && bp.len() >= k * NR);
        for kk in 0..k {
            let a = &ap[kk * MR..kk * MR + MR];
            let b = &bp[kk * NR..kk * NR + NR];
            for r in 0..MR {
                let av = a[r];
                let row = &mut acc[r * NR..(r + 1) * NR];
                for j in 0..NR {
                    row[j] += av * b[j];
                }
            }
        }
    }

    fn dot_f32(&self, x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        // Four split accumulators: better ILP than a serial sum and a
        // stable, shape-independent summation order.
        let mut acc = [0.0f32; 4];
        let mut chunks = x.chunks_exact(4).zip(y.chunks_exact(4));
        for (cx, cy) in &mut chunks {
            for i in 0..4 {
                acc[i] += cx[i] * cy[i];
            }
        }
        let rx = &x[x.len() - x.len() % 4..];
        let ry = &y[y.len() - y.len() % 4..];
        for (i, (&a, &b)) in rx.iter().zip(ry).enumerate() {
            acc[i] += a * b;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    fn dot_i8(&self, x: &[i8], y: &[i8]) -> i32 {
        debug_assert_eq!(x.len(), y.len());
        x.iter().zip(y).map(|(&a, &b)| a as i32 * b as i32).sum()
    }

    fn gemv_i8(&self, n: usize, k: usize, x: &[i8], bp: &[i8], out: &mut [i32]) {
        let kp = k.div_ceil(2);
        for (q, chunk) in out[..n].chunks_mut(NR_I8).enumerate() {
            let panel = &bp[q * kp * NR_I8 * 2..(q + 1) * kp * NR_I8 * 2];
            for p in 0..kp {
                let x0 = x[2 * p] as i32;
                let x1 = if 2 * p + 1 < k {
                    x[2 * p + 1] as i32
                } else {
                    0
                };
                let row = &panel[p * NR_I8 * 2..(p + 1) * NR_I8 * 2];
                for (j, o) in chunk.iter_mut().enumerate() {
                    *o += x0 * row[2 * j] as i32 + x1 * row[2 * j + 1] as i32;
                }
            }
        }
    }

    fn pattern_tile_f32(
        &self,
        tile: &PatternTile<'_, f32, f32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        pattern_tile::portable_f32(tile, epi, out);
    }

    fn pattern_tile_i8(
        &self,
        tile: &PatternTile<'_, i16, i32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        pattern_tile::portable_i8(tile, epi, out);
    }

    fn maxpool_2x2_row(&self, top: &[f32], bottom: &[f32], out: &mut [f32]) {
        assert!(top.len().min(bottom.len()) >= 2 * out.len(), "short row");
        pool::portable_2x2_row(top, bottom, out);
    }
}

/// The AVX2 + FMA implementation. Only constructed after runtime
/// feature detection succeeded, which is what makes the `unsafe`
/// `target_feature` calls inside sound.
#[cfg(target_arch = "x86_64")]
pub struct Avx2Kernel {
    _private: (),
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The intrinsic bodies. Every function is `target_feature(enable =
    //! "avx2,fma")` and therefore unsafe to call; [`super::Avx2Kernel`]
    //! is the only caller and exists only when detection succeeded.

    use super::{MR, NR, NR_I8};
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_f32(k: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
        debug_assert!(ap.len() >= k * MR && bp.len() >= k * NR);
        let mut c = [_mm256_setzero_ps(); 2 * MR];
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for _ in 0..k {
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            for r in 0..MR {
                let av = _mm256_broadcast_ss(&*a.add(r));
                c[2 * r] = _mm256_fmadd_ps(av, b0, c[2 * r]);
                c[2 * r + 1] = _mm256_fmadd_ps(av, b1, c[2 * r + 1]);
            }
            a = a.add(MR);
            b = b.add(NR);
        }
        for r in 0..MR {
            let dst = acc.as_mut_ptr().add(r * NR);
            _mm256_storeu_ps(dst, _mm256_add_ps(c[2 * r], _mm256_loadu_ps(dst)));
            _mm256_storeu_ps(
                dst.add(8),
                _mm256_add_ps(c[2 * r + 1], _mm256_loadu_ps(dst.add(8))),
            );
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(x.as_ptr().add(i)),
                _mm256_loadu_ps(y.as_ptr().add(i)),
                acc0,
            );
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(x.as_ptr().add(i + 8)),
                _mm256_loadu_ps(y.as_ptr().add(i + 8)),
                acc1,
            );
            i += 16;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(x.as_ptr().add(i)),
                _mm256_loadu_ps(y.as_ptr().add(i)),
                acc0,
            );
            i += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        let hi = _mm256_extractf128_ps(acc, 1);
        let lo = _mm256_castps256_ps128(acc);
        let s4 = _mm_add_ps(lo, hi);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
        let mut sum = _mm_cvtss_f32(s1);
        while i < n {
            sum += *x.get_unchecked(i) * *y.get_unchecked(i);
            i += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            // 16 i8 → 16 i16 each side, then madd pairs into 8 i32.
            // |i16 product| ≤ 128², so one pairwise add never overflows.
            let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(x.as_ptr().add(i) as *const __m128i));
            let yv = _mm256_cvtepi8_epi16(_mm_loadu_si128(y.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
            i += 16;
        }
        let mut sum = hsum_epi32(acc);
        while i < n {
            sum += *x.get_unchecked(i) as i32 * *y.get_unchecked(i) as i32;
            i += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv_i8(n: usize, k: usize, x: &[i8], bp: &[i8], out: &mut [i32]) {
        let kp = k.div_ceil(2);
        let panels = n.div_ceil(NR_I8);
        for q in 0..panels {
            let panel = bp.as_ptr().add(q * kp * NR_I8 * 2);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            for p in 0..kp {
                let x0 = *x.get_unchecked(2 * p) as i16 as u16 as u32;
                let x1 = if 2 * p + 1 < k {
                    *x.get_unchecked(2 * p + 1) as i16 as u16 as u32
                } else {
                    0
                };
                let xp = _mm256_set1_epi32(((x1 << 16) | x0) as i32);
                let row = panel.add(p * NR_I8 * 2);
                // Each 16-byte load covers 8 columns as (k, k+1) i8
                // pairs; widening to i16 keeps madd's pair structure.
                let w0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(row as *const __m128i));
                let w1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(row.add(16) as *const __m128i));
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(w0, xp));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(w1, xp));
            }
            let mut tile = [0i32; NR_I8];
            _mm256_storeu_si256(tile.as_mut_ptr() as *mut __m256i, acc0);
            _mm256_storeu_si256(tile.as_mut_ptr().add(8) as *mut __m256i, acc1);
            let lo = q * NR_I8;
            for (j, &t) in tile.iter().enumerate().take(n - lo.min(n)).take(NR_I8) {
                *out.get_unchecked_mut(lo + j) += t;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let hi = _mm256_extracti128_si256(v, 1);
        let lo = _mm256_castsi256_si128(v);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_unpackhi_epi64(s4, s4));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 1));
        _mm_cvtsi128_si32(s1)
    }
}

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Avx2Kernel {
    fn variant(&self) -> KernelVariant {
        KernelVariant::Avx2
    }

    fn tile_f32(&self, k: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
        // SAFETY: Avx2Kernel is only handed out after runtime detection.
        unsafe { avx2::tile_f32(k, ap, bp, acc) }
    }

    fn dot_f32(&self, x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len());
        // SAFETY: as above.
        unsafe { avx2::dot_f32(x, y) }
    }

    fn dot_i8(&self, x: &[i8], y: &[i8]) -> i32 {
        assert_eq!(x.len(), y.len());
        // SAFETY: as above.
        unsafe { avx2::dot_i8(x, y) }
    }

    fn gemv_i8(&self, n: usize, k: usize, x: &[i8], bp: &[i8], out: &mut [i32]) {
        assert!(x.len() >= k && out.len() >= n);
        assert!(bp.len() >= n.div_ceil(NR_I8) * k.div_ceil(2) * NR_I8 * 2);
        // SAFETY: as above, plus the bounds asserted here.
        unsafe { avx2::gemv_i8(n, k, x, bp, out) }
    }

    fn pattern_tile_f32(
        &self,
        tile: &PatternTile<'_, f32, f32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        // SAFETY: detection happened (as above); the body bounds the
        // tile's furthest load and store before touching memory, so a
        // fringe tile's over-read stays in the staged halo/tail slack.
        unsafe { pattern_tile::avx2::tile_f32(tile, epi, out) }
    }

    fn pattern_tile_i8(
        &self,
        tile: &PatternTile<'_, i16, i32>,
        epi: &TileEpilogue,
        out: &mut TileOut<'_>,
    ) {
        // SAFETY: as `pattern_tile_f32`: detection happened, the body
        // bounds the furthest load and store first, and fringe
        // over-reads stay inside the staged halo/tail slack.
        unsafe { pattern_tile::avx2::tile_i8(tile, epi, out) }
    }

    fn maxpool_2x2_row(&self, top: &[f32], bottom: &[f32], out: &mut [f32]) {
        assert!(top.len().min(bottom.len()) >= 2 * out.len(), "short row");
        // SAFETY: detection happened (as above), and the rows are long
        // enough by the assertion.
        unsafe { pool::avx2::maxpool_2x2_row(top, bottom, out) }
    }
}

static PORTABLE: PortableKernel = PortableKernel;
#[cfg(target_arch = "x86_64")]
static AVX2: Avx2Kernel = Avx2Kernel { _private: () };

static ACTIVE: OnceLock<KernelVariant> = OnceLock::new();

/// The variant the dispatched entry points resolve to, decided once per
/// process: `PATDNN_FORCE_PORTABLE` (any value but `0`/empty) pins the
/// portable kernels; otherwise AVX2+FMA is used when the CPU has it.
pub fn active_variant() -> KernelVariant {
    *ACTIVE.get_or_init(|| {
        let forced =
            std::env::var_os("PATDNN_FORCE_PORTABLE").is_some_and(|v| !v.is_empty() && v != "0");
        if forced {
            return KernelVariant::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelVariant::Avx2;
        }
        KernelVariant::Portable
    })
}

/// The kernel backing `variant`, or `None` when this machine cannot run
/// it (requesting AVX2 on a CPU without it). The portable kernel is
/// always available.
pub fn kernel_for(variant: KernelVariant) -> Option<&'static dyn MicroKernel> {
    match variant {
        KernelVariant::Portable => Some(&PORTABLE),
        KernelVariant::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Some(&AVX2);
            }
            None
        }
    }
}

/// Every variant this machine can run, portable first. Property tests
/// iterate this so the AVX2 path is exercised wherever possible without
/// failing on machines that lack it.
pub fn available_variants() -> Vec<KernelVariant> {
    let mut v = vec![KernelVariant::Portable];
    if kernel_for(KernelVariant::Avx2).is_some() {
        v.push(KernelVariant::Avx2);
    }
    v
}

/// The dispatched kernel (see [`active_variant`]).
pub fn active_kernel() -> &'static dyn MicroKernel {
    kernel_for(active_variant()).unwrap_or(&PORTABLE)
}

/// Dispatched f32 dot product.
pub fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
    active_kernel().dot_f32(x, y)
}

/// Dispatched exact `i8×i8→i32` dot product.
pub fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    active_kernel().dot_i8(x, y)
}

// ---------------------------------------------------------------------
// Panel packing. The layouts are variant-independent (both kernels read
// the same bytes), so packing once at artifact load serves whichever
// arithmetic dispatch selects.
// ---------------------------------------------------------------------

/// Length of the packed A buffer for an `m`×`k` left operand.
pub fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Length of the packed B buffer for a `k`×`n` right operand.
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs row-major `m`×`k` `a` (row stride `lda`) into `MR`-row panels,
/// k-major inside each panel; short bottom panels are zero-padded.
pub fn pack_a_f32(m: usize, k: usize, a: &[f32], lda: usize, out: &mut [f32]) {
    assert!(out.len() >= packed_a_len(m, k), "packed A buffer too short");
    for p in 0..m.div_ceil(MR) {
        let base = p * MR * k;
        for kk in 0..k {
            for r in 0..MR {
                let row = p * MR + r;
                out[base + kk * MR + r] = if row < m { a[row * lda + kk] } else { 0.0 };
            }
        }
    }
}

/// Packs row-major `k`×`n` `b` (row stride `ldb`) into `NR`-column
/// panels, k-major inside each panel; short right panels are
/// zero-padded.
pub fn pack_b_f32(k: usize, n: usize, b: &[f32], ldb: usize, out: &mut [f32]) {
    assert!(out.len() >= packed_b_len(k, n), "packed B buffer too short");
    for q in 0..n.div_ceil(NR) {
        let base = q * NR * k;
        for kk in 0..k {
            for j in 0..NR {
                let col = q * NR + j;
                out[base + kk * NR + j] = if col < n { b[kk * ldb + col] } else { 0.0 };
            }
        }
    }
}

/// Packs a *transposed* right operand — `bt` stored row-major `n`×`k`
/// (each row is one output column's weights, the FC layout) — into the
/// same panel form as [`pack_b_f32`].
pub fn pack_b_t_f32(k: usize, n: usize, bt: &[f32], ldb: usize, out: &mut [f32]) {
    assert!(out.len() >= packed_b_len(k, n), "packed B buffer too short");
    for q in 0..n.div_ceil(NR) {
        let base = q * NR * k;
        for kk in 0..k {
            for j in 0..NR {
                let col = q * NR + j;
                out[base + kk * NR + j] = if col < n { bt[col * ldb + kk] } else { 0.0 };
            }
        }
    }
}

/// Length of the packed INT8 right-hand panel for an `n`×`k` transposed
/// operand (the quantized-FC layout).
pub fn packed_b_i8_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR_I8) * k.div_ceil(2) * NR_I8 * 2
}

/// Packs transposed `n`×`k` i8 weights into `NR_I8`-column panels with
/// `(k, k+1)` taps interleaved per column — the layout AVX2's
/// `madd_epi16` consumes directly. Odd-`k` tails and short right panels
/// are zero-padded.
pub fn pack_b_t_i8(k: usize, n: usize, bt: &[i8], out: &mut [i8]) {
    assert!(
        out.len() >= packed_b_i8_len(k, n),
        "packed i8 buffer too short"
    );
    let kp = k.div_ceil(2);
    for q in 0..n.div_ceil(NR_I8) {
        let base = q * kp * NR_I8 * 2;
        for p in 0..kp {
            for j in 0..NR_I8 {
                let col = q * NR_I8 + j;
                for t in 0..2 {
                    let kk = 2 * p + t;
                    out[base + (p * NR_I8 + j) * 2 + t] = if col < n && kk < k {
                        bt[col * k + kk]
                    } else {
                        0
                    };
                }
            }
        }
    }
}

/// `C += Ap · Bp` over packed panels: `c` is row-major `m`×`n` with row
/// stride `ldc`. Full tiles accumulate straight into `c`; ragged
/// right/bottom fringes go through a stack tile so the kernels never
/// see a partial shape.
pub fn gemm_packed_f32(
    kernel: &dyn MicroKernel,
    m: usize,
    n: usize,
    k: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    assert!(ap.len() >= packed_a_len(m, k), "packed A too short");
    assert!(bp.len() >= packed_b_len(k, n), "packed B too short");
    for p in 0..m.div_ceil(MR) {
        let a_panel = &ap[p * MR * k..(p + 1) * MR * k];
        let mh = MR.min(m - p * MR);
        for q in 0..n.div_ceil(NR) {
            let b_panel = &bp[q * NR * k..(q + 1) * NR * k];
            let nw = NR.min(n - q * NR);
            let mut tile = [0.0f32; MR * NR];
            kernel.tile_f32(k, a_panel, b_panel, &mut tile);
            for r in 0..mh {
                let dst = &mut c[(p * MR + r) * ldc + q * NR..];
                for j in 0..nw {
                    dst[j] += tile[r * NR + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn kernels() -> Vec<&'static dyn MicroKernel> {
        available_variants()
            .into_iter()
            .map(|v| kernel_for(v).expect("listed variants are available"))
            .collect()
    }

    #[test]
    fn portable_is_always_available() {
        assert!(available_variants().contains(&KernelVariant::Portable));
        assert_eq!(
            kernel_for(KernelVariant::Portable)
                .expect("portable")
                .variant(),
            KernelVariant::Portable
        );
    }

    #[test]
    fn dot_matches_naive_on_awkward_lengths() {
        let mut rng = Rng::seed_from(11);
        for kernel in kernels() {
            for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
                let x: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let y: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let d = kernel.dot_f32(&x, &y);
                let want: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
                assert!(
                    (d - want).abs() < 1e-3,
                    "{} dot len {len}: {d} vs {want}",
                    kernel.variant().label()
                );
            }
        }
    }

    #[test]
    fn integer_dot_is_exact_across_variants() {
        let mut rng = Rng::seed_from(12);
        for kernel in kernels() {
            for len in [0usize, 1, 2, 7, 15, 16, 17, 33, 127] {
                let x: Vec<i8> = (0..len).map(|_| rng.below(255) as i8).collect();
                let y: Vec<i8> = (0..len).map(|_| rng.below(255) as i8).collect();
                let want: i32 = x.iter().zip(&y).map(|(&a, &b)| a as i32 * b as i32).sum();
                assert_eq!(
                    kernel.dot_i8(&x, &y),
                    want,
                    "{} dot_i8 len {len}",
                    kernel.variant().label()
                );
            }
        }
    }

    #[test]
    fn packed_tile_gemm_matches_naive_on_fringe_shapes() {
        let mut rng = Rng::seed_from(13);
        for kernel in kernels() {
            for &(m, n, k) in &[
                (1usize, 1usize, 1usize),
                (3, 5, 7),
                (4, 16, 8),
                (5, 17, 9),
                (8, 32, 16),
                (7, 33, 31),
                (13, 19, 23),
            ] {
                let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let mut ap = vec![0.0; packed_a_len(m, k)];
                let mut bp = vec![0.0; packed_b_len(k, n)];
                pack_a_f32(m, k, &a, k, &mut ap);
                pack_b_f32(k, n, &b, n, &mut bp);
                let mut c = vec![0.5f32; m * n];
                gemm_packed_f32(kernel, m, n, k, &ap, &bp, &mut c, n);
                for i in 0..m {
                    for j in 0..n {
                        let want: f32 =
                            0.5 + (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum::<f32>();
                        assert!(
                            (c[i * n + j] - want).abs() < 1e-4,
                            "{} {m}x{n}x{k} at ({i},{j}): {} vs {want}",
                            kernel.variant().label(),
                            c[i * n + j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_i8_gemv_is_exact_on_odd_shapes() {
        let mut rng = Rng::seed_from(14);
        for kernel in kernels() {
            for &(n, k) in &[
                (1usize, 1usize),
                (2, 3),
                (16, 8),
                (17, 9),
                (10, 100),
                (33, 257),
            ] {
                let w: Vec<i8> = (0..n * k).map(|_| rng.below(255) as i8).collect();
                let x: Vec<i8> = (0..k).map(|_| rng.below(255) as i8).collect();
                let mut bp = vec![0i8; packed_b_i8_len(k, n)];
                pack_b_t_i8(k, n, &w, &mut bp);
                let mut out = vec![7i32; n];
                kernel.gemv_i8(n, k, &x, &bp, &mut out);
                for j in 0..n {
                    let want: i32 = 7
                        + (0..k)
                            .map(|kk| x[kk] as i32 * w[j * k + kk] as i32)
                            .sum::<i32>();
                    assert_eq!(
                        out[j],
                        want,
                        "{} gemv n={n} k={k} row {j}",
                        kernel.variant().label()
                    );
                }
            }
        }
    }

    #[test]
    fn variant_labels_are_distinct() {
        assert_ne!(KernelVariant::Avx2.label(), KernelVariant::Portable.label());
    }
}
