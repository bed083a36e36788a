//! Max pooling over row-major planes.
//!
//! Pooling does no arithmetic worth the name; its cost is how the
//! window is addressed. Two paths:
//!
//! - 2×2 windows at stride 2 without padding — the pooling of every
//!   VGG-style model — go row pair by row pair through
//!   [`MicroKernel::maxpool_2x2_row`]: a vertical max of the two input
//!   rows, then a horizontal max of adjacent columns, eight outputs per
//!   step on AVX2 with no per-tap branch.
//! - Every other window has its bounds clamped to the plane once per
//!   output (rows once per output row), so the tap loop itself runs over
//!   a plain sub-slice with no padding test inside it.
//!
//! A window that lies wholly in the padding yields `-inf`; the plan
//! verifier rejects the layers that could have one.

use super::MicroKernel;
use crate::shape::conv_out_dim;

/// A square pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolWindow {
    /// Window height and width.
    pub kernel: usize,
    /// Step between windows.
    pub stride: usize,
    /// Implicit `-inf` border on every side.
    pub pad: usize,
}

impl PoolWindow {
    /// Windows along an axis of `n` elements.
    pub fn out_dim(&self, n: usize) -> usize {
        conv_out_dim(n, self.kernel, self.stride, self.pad)
    }
}

/// Max-pools every `h × w` plane of `input` into the matching
/// `out_dim(h) × out_dim(w)` plane of `out`.
///
/// # Panics
///
/// Panics if `input` is not whole planes, `out` is not as many pooled
/// planes, or the window is degenerate (zero kernel or stride).
pub fn maxpool_planes(
    kernel: &dyn MicroKernel,
    input: &[f32],
    (h, w): (usize, usize),
    window: PoolWindow,
    out: &mut [f32],
) {
    let PoolWindow {
        kernel: k,
        stride,
        pad,
    } = window;
    assert!(k > 0 && stride > 0, "degenerate pooling window");
    let (oh, ow) = (window.out_dim(h), window.out_dim(w));
    assert!(
        h * w > 0 && input.len().is_multiple_of(h * w),
        "input is whole planes"
    );
    assert_eq!(
        out.len(),
        input.len() / (h * w) * oh * ow,
        "output is as many pooled planes"
    );
    if oh * ow == 0 {
        return;
    }
    let planes = input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
    if (k, stride, pad) == (2, 2, 0) {
        for (plane, pooled) in planes {
            for (rows, out_row) in plane.chunks_exact(2 * w).zip(pooled.chunks_exact_mut(ow)) {
                let (top, bottom) = rows.split_at(w);
                kernel.maxpool_2x2_row(top, bottom, out_row);
            }
        }
        return;
    }
    // The valid part of the window starting at padded position `o · stride`.
    let span = |o: usize, n: usize| {
        (o * stride).saturating_sub(pad)..(o * stride + k).saturating_sub(pad).min(n)
    };
    for (plane, pooled) in planes {
        for (oy, out_row) in pooled.chunks_exact_mut(ow).enumerate() {
            let ys = span(oy, h);
            for (ox, o) in out_row.iter_mut().enumerate() {
                let xs = span(ox, w);
                let mut best = f32::NEG_INFINITY;
                for y in ys.clone() {
                    for &v in plane[y * w..][xs.clone()].iter() {
                        best = best.max(v);
                    }
                }
                *o = best;
            }
        }
    }
}

/// The portable 2×2 row: `out[i]` is the max of columns `2i` and
/// `2i + 1` of both rows.
pub(super) fn portable_2x2_row(top: &[f32], bottom: &[f32], out: &mut [f32]) {
    let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
    for (o, (t, b)) in out.iter_mut().zip(pairs) {
        *o = t[0].max(t[1]).max(b[0].max(b[1]));
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) mod avx2 {
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// AVX2 must be available and both rows must hold at least
    /// `2 · out.len()` values.
    #[target_feature(enable = "avx2")]
    pub unsafe fn maxpool_2x2_row(top: &[f32], bottom: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (t, b, o) = (top.as_ptr(), bottom.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        // Every load below reads columns `2i .. 2i + 16` (or `+ 8`) with
        // `i + 8 ≤ n` (or `i + 4 ≤ n`): inside the rows by the contract.
        while i + 8 <= n {
            let v0 = _mm256_max_ps(_mm256_loadu_ps(t.add(2 * i)), _mm256_loadu_ps(b.add(2 * i)));
            let v1 = _mm256_max_ps(
                _mm256_loadu_ps(t.add(2 * i + 8)),
                _mm256_loadu_ps(b.add(2 * i + 8)),
            );
            // Even against odd columns, per 128-bit lane: outputs
            // 0 1 4 5 | 2 3 6 7.
            let m = _mm256_max_ps(
                _mm256_shuffle_ps(v0, v1, 0x88),
                _mm256_shuffle_ps(v0, v1, 0xDD),
            );
            let m = _mm256_permute4x64_pd(_mm256_castps_pd(m), 0xD8);
            _mm256_storeu_ps(o.add(i), _mm256_castpd_ps(m));
            i += 8;
        }
        if i + 4 <= n {
            let v = _mm256_max_ps(_mm256_loadu_ps(t.add(2 * i)), _mm256_loadu_ps(b.add(2 * i)));
            let (lo, hi) = (_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
            let m = _mm_max_ps(_mm_shuffle_ps(lo, hi, 0x88), _mm_shuffle_ps(lo, hi, 0xDD));
            _mm_storeu_ps(o.add(i), m);
            i += 4;
        }
        super::portable_2x2_row(&top[2 * i..], &bottom[2 * i..], &mut out[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{available_variants, kernel_for};
    use crate::rng::Rng;

    /// The scalar loop this module replaced in the serving engine: two
    /// bounds tests per tap. Kept as the reference.
    fn reference(input: &[f32], (h, w): (usize, usize), win: PoolWindow) -> Vec<f32> {
        let (oh, ow) = (win.out_dim(h), win.out_dim(w));
        let mut out = Vec::new();
        for plane in input.chunks_exact(h * w) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for kh in 0..win.kernel {
                        let ih = (oy * win.stride + kh) as isize - win.pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kw in 0..win.kernel {
                            let iw = (ox * win.stride + kw) as isize - win.pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            best = best.max(plane[ih as usize * w + iw as usize]);
                        }
                    }
                    out.push(best);
                }
            }
        }
        out
    }

    fn check(hw: (usize, usize), win: PoolWindow, rng: &mut Rng) {
        let planes = 3;
        let input: Vec<f32> = (0..planes * hw.0 * hw.1)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let want = reference(&input, hw, win);
        for variant in available_variants() {
            let kernel = kernel_for(variant).expect("listed variants are available");
            // Exactly sized, poisoned: a skipped or stray store shows.
            let mut got = vec![f32::NAN; want.len()];
            maxpool_planes(kernel, &input, hw, win, &mut got);
            assert_eq!(got, want, "{} {hw:?} {win:?}", variant.label());
        }
    }

    #[test]
    fn every_window_matches_the_scalar_loop() {
        let mut rng = Rng::seed_from(71);
        for kernel in [2, 3] {
            for stride in [1, 2, 3] {
                for pad in [0, 1] {
                    for hw in [(4, 4), (5, 7), (7, 5), (8, 8), (9, 12), (13, 13)] {
                        let win = PoolWindow {
                            kernel,
                            stride,
                            pad,
                        };
                        check(hw, win, &mut rng);
                    }
                }
            }
        }
    }

    #[test]
    fn the_2x2_stride_2_rows_match_on_every_vector_remainder() {
        let mut rng = Rng::seed_from(72);
        let win = PoolWindow {
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        for w in [2, 6, 8, 10, 16, 18, 32] {
            // Odd heights and widths leave a row and a column unread.
            for hw in [(w, w), (w + 1, w), (w, w + 1), (2, w), (3, w + 1)] {
                check(hw, win, &mut rng);
            }
        }
    }

    #[test]
    fn a_window_of_padding_alone_is_negative_infinity() {
        // 2·pad > kernel: what the plan verifier refuses to load.
        let win = PoolWindow {
            kernel: 2,
            stride: 2,
            pad: 2,
        };
        let input = [1.0f32; 16];
        let mut rng = Rng::seed_from(73);
        check((4, 4), win, &mut rng);
        let kernel = kernel_for(available_variants()[0]).expect("portable");
        let mut out = vec![0.0; win.out_dim(4) * win.out_dim(4)];
        maxpool_planes(kernel, &input, (4, 4), win, &mut out);
        assert_eq!(out[0], f32::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "output is as many pooled planes")]
    fn a_short_output_is_refused() {
        let win = PoolWindow {
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let kernel = kernel_for(available_variants()[0]).expect("portable");
        maxpool_planes(kernel, &[0.0; 32], (4, 4), win, &mut [0.0; 7]);
    }
}
