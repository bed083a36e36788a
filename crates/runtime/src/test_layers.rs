//! Layer builders shared by the executor tests.

use patdnn_compiler::fkr::filter_kernel_reorder;
use patdnn_compiler::fkw::FkwLayer;
use patdnn_core::pattern_set::PatternSet;
use patdnn_core::project::prune_layer;
use patdnn_tensor::rng::Rng;
use patdnn_tensor::Tensor;

/// A `k × k` layer pruned to `alpha` kernels and FKR-reordered, with its
/// pruned dense weights.
pub(crate) fn pruned(
    oc: usize,
    ic: usize,
    k: usize,
    alpha: usize,
    seed: u64,
) -> (Tensor, FkwLayer) {
    let mut rng = Rng::seed_from(seed);
    let mut w = Tensor::randn(&[oc, ic, k, k], &mut rng);
    let set = PatternSet::standard(8);
    let lp = prune_layer("t", &mut w, &set, alpha);
    let order = filter_kernel_reorder(&lp);
    let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
    (w, fkw)
}

/// A 3×3 layer whose filters come in runs of `run` adjacent storage rows
/// with coincident kernels (same patterns on the same input channels,
/// different weights) — what filter-level LRE shares a tile over. Rows
/// are stored in a scrambled filter order; run `i` keeps up to
/// `i % 3 + 1` kernels per pattern, so runs differ from each other.
pub(crate) fn coincident(oc: usize, ic: usize, run: usize, seed: u64) -> (Tensor, FkwLayer) {
    let mut rng = Rng::seed_from(seed);
    let patterns: Vec<_> = (0..3).map(|p| PatternSet::standard(8).get(p)).collect();
    let np = patterns.len();
    let (mut offsets, mut index, mut stride, mut weights) = (vec![0u32], vec![], vec![], vec![]);
    let mut signature: Vec<Vec<u16>> = Vec::new();
    for row in 0..oc {
        if row % run == 0 {
            // One kernel per input channel at most: deal a shuffled
            // channel list out to the patterns.
            let per_pattern = ((row / run) % 3 + 1).min(ic / np);
            let mut ics: Vec<u16> = (0..ic as u16).collect();
            for i in 0..ics.len() {
                let j = i + rng.below(ics.len() - i);
                ics.swap(i, j);
            }
            signature = ics
                .chunks(per_pattern)
                .take(np)
                .map(|chunk| {
                    let mut chunk = chunk.to_vec();
                    chunk.sort_unstable();
                    chunk
                })
                .collect();
        }
        stride.push(0u16);
        let mut kernels = 0u16;
        for ics in &signature {
            index.extend_from_slice(ics);
            kernels += ics.len() as u16;
            stride.push(kernels);
            weights.extend((0..ics.len() * 4).map(|_| rng.uniform(-1.0, 1.0)));
        }
        offsets.push(index.len() as u32);
    }
    let fkw = FkwLayer {
        out_c: oc,
        in_c: ic,
        kernel: 3,
        entries_per_kernel: 4,
        patterns,
        offsets,
        // Storage row r holds filter (r * 5 + 3) % oc: a permutation
        // whenever 5 does not divide oc.
        reorder: (0..oc).map(|r| ((r * 5 + 3) % oc) as u16).collect(),
        index,
        stride,
        weights,
    };
    (fkw.to_dense(), fkw)
}
