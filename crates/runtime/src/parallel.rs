//! Multi-threaded layer execution.
//!
//! The paper runs "8 threads on CPU". Two parallel schedules are
//! provided: a *contiguous* split of filters (what a framework does
//! without FKR — ragged filter lengths produce load imbalance) and an
//! FKR-aware *balanced* split that round-robins the length-sorted storage
//! rows across threads.

use std::time::Instant;

use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::executor::ConvExecutor;
use crate::pattern_exec::{PatternConv, RowSet};

/// Per-thread wall-clock times of one parallel run, for load-imbalance
/// reporting.
#[derive(Debug, Clone, Default)]
pub struct ThreadTimes {
    /// Seconds each thread spent computing.
    pub seconds: Vec<f64>,
}

impl ThreadTimes {
    /// Relative imbalance `(max - min) / max`; 0.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.seconds.iter().copied().fold(0.0f64, f64::max);
        let min = self.seconds.iter().copied().fold(f64::INFINITY, f64::min);
        if max <= 0.0 || !min.is_finite() {
            0.0
        } else {
            (max - min) / max
        }
    }
}

/// How storage rows are assigned to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous chunks of rows (pre-FKR behaviour).
    Contiguous,
    /// Round-robin over the (length-sorted) storage order — the FKR
    /// balanced schedule.
    Balanced,
}

/// A multi-threaded wrapper around [`PatternConv`]: storage rows are
/// partitioned over threads, and every thread runs the executor's own
/// row driver over one shared staged image, so a threaded run is the
/// serial run bit for bit.
pub struct ParallelPattern {
    inner: PatternConv,
    threads: usize,
    assignments: Vec<RowSet>,
}

impl ParallelPattern {
    /// Wraps `inner`, assigning its storage rows to `threads` workers
    /// under the given schedule.
    ///
    /// Requesting more threads than the layer has filters yields empty
    /// row assignments; those are dropped, so no worker thread is ever
    /// spawned with nothing to do and a ~0s idle thread cannot pin the
    /// reported load imbalance near 1.0 on small layers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(inner: PatternConv, threads: usize, schedule: Schedule) -> Self {
        assert!(threads > 0, "need at least one thread");
        let rows: Vec<usize> = (0..inner.fkw().out_c).collect();
        let mut assignments = vec![Vec::new(); threads];
        match schedule {
            Schedule::Contiguous => {
                let per = rows.len().div_ceil(threads);
                for (i, chunk) in rows.chunks(per.max(1)).enumerate() {
                    assignments[i.min(threads - 1)].extend_from_slice(chunk);
                }
            }
            Schedule::Balanced => {
                for (i, row) in rows.into_iter().enumerate() {
                    assignments[i % threads].push(row);
                }
            }
        }
        // A thread writes its rows' planes into a buffer of its own, in
        // the order it was given them.
        let assignments = assignments
            .into_iter()
            .filter(|rows| !rows.is_empty())
            .map(|rows| inner.row_set(rows.into_iter().zip(0..).collect()))
            .collect();
        ParallelPattern {
            inner,
            threads,
            assignments,
        }
    }

    /// Runs one batch item, returning the output and per-thread times.
    pub fn run_timed(&self, input: &Tensor) -> (Tensor, ThreadTimes) {
        let g = *self.inner.geometry();
        let s = input.shape4();
        assert_eq!(s.n, 1, "run_timed takes batch-1 inputs");
        assert_eq!(s.c, g.in_channels, "input channel mismatch");
        let mut out = Tensor::zeros(&[1, g.out_channels, g.out_h, g.out_w]);
        let times = self.run_item(input.data(), out.data_mut());
        (out, times)
    }

    /// Computes all output planes of one batch item across the thread
    /// pool into `out`, returning the thread times. The item is staged
    /// once; each thread computes its rows' planes into a buffer of its
    /// own, scattered to the filters' planes after the join.
    fn run_item(&self, input: &[f32], out: &mut [f32]) -> ThreadTimes {
        let g = self.inner.geometry();
        let hw = g.out_h * g.out_w;
        let mut per_thread: Vec<(f64, Vec<f32>)> = Vec::with_capacity(self.threads);
        self.inner.with_staged(input, |staged| {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(self.threads);
                for set in &self.assignments {
                    let inner = &self.inner;
                    handles.push(scope.spawn(move || {
                        let start = Instant::now();
                        let mut planes = vec![0.0f32; set.len() * hw];
                        inner.run_rows(input, staged, set, &mut planes);
                        (start.elapsed().as_secs_f64(), planes)
                    }));
                }
                for h in handles {
                    per_thread.push(h.join().expect("worker thread panicked"));
                }
            });
        });

        let mut times = ThreadTimes::default();
        for ((secs, planes), set) in per_thread.into_iter().zip(&self.assignments) {
            times.seconds.push(secs);
            for (plane, row) in planes.chunks(hw).zip(set.rows()) {
                let f = self.inner.filter_of(row);
                out[f * hw..(f + 1) * hw].copy_from_slice(plane);
            }
        }
        times
    }
}

impl ConvExecutor for ParallelPattern {
    fn name(&self) -> &str {
        "pattern-parallel"
    }

    fn geometry(&self) -> &Conv2dGeometry {
        self.inner.geometry()
    }

    fn run(&self, input: &Tensor) -> Tensor {
        let g = *self.inner.geometry();
        let s = input.shape4();
        assert_eq!(s.c, g.in_channels, "input channel mismatch");
        let in_img = g.in_channels * g.in_h * g.in_w;
        let out_img = g.out_channels * g.out_h * g.out_w;
        let mut out = Tensor::zeros(&[s.n, g.out_channels, g.out_h, g.out_w]);
        for n in 0..s.n {
            self.run_item(
                &input.data()[n * in_img..(n + 1) * in_img],
                &mut out.data_mut()[n * out_img..(n + 1) * out_img],
            );
        }
        out
    }
}

/// A multi-threaded wrapper for dense executors: the layer is split into
/// output-channel ranges, each served by an independently-built
/// sub-executor.
pub struct ParallelDense<E> {
    parts: Vec<(usize, E)>, // (oc offset, sub-executor)
    geo: Conv2dGeometry,
    name: String,
}

impl<E: ConvExecutor + Sync> ParallelDense<E> {
    /// Splits `geo` into up to `threads` contiguous output-channel ranges
    /// and builds a sub-executor for each via `factory(sub_geo, oc_range)`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(
        geo: Conv2dGeometry,
        threads: usize,
        factory: impl Fn(Conv2dGeometry, std::ops::Range<usize>) -> E,
    ) -> Self {
        assert!(threads > 0, "need at least one thread");
        let per = geo.out_channels.div_ceil(threads).max(1);
        let mut parts = Vec::new();
        let mut start = 0;
        while start < geo.out_channels {
            let end = (start + per).min(geo.out_channels);
            let sub_geo = Conv2dGeometry::new(
                end - start,
                geo.in_channels,
                geo.kernel_h,
                geo.kernel_w,
                geo.in_h,
                geo.in_w,
                geo.stride,
                geo.pad,
            );
            parts.push((start, factory(sub_geo, start..end)));
            start = end;
        }
        let name = format!(
            "parallel-{}",
            parts.first().map_or("dense", |(_, e)| e.name())
        );
        ParallelDense { parts, geo, name }
    }
}

impl<E: ConvExecutor + Sync> ConvExecutor for ParallelDense<E> {
    fn name(&self) -> &str {
        &self.name
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        let g = &self.geo;
        assert_eq!(input.shape4().n, 1, "parallel runner takes batch-1 inputs");
        let out_hw = g.out_h * g.out_w;
        let mut out = Tensor::zeros(&[1, g.out_channels, g.out_h, g.out_w]);
        let mut results: Vec<(usize, Tensor)> = Vec::with_capacity(self.parts.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.parts.len());
            for (offset, exec) in &self.parts {
                handles.push(scope.spawn(move || (*offset, exec.run(input))));
            }
            for h in handles {
                results.push(h.join().expect("worker thread panicked"));
            }
        });
        for (offset, part) in results {
            let len = part.len();
            out.data_mut()[offset * out_hw..offset * out_hw + len].copy_from_slice(part.data());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::TiledConv;
    use crate::pattern_exec::OptLevel;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_compiler::fkw::FkwLayer;
    use patdnn_compiler::tune::space::TuningConfig;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::rng::Rng;

    fn pattern_exec(seed: u64) -> (Tensor, PatternConv, Conv2dGeometry) {
        let mut rng = Rng::seed_from(seed);
        let geo = Conv2dGeometry::new(16, 8, 3, 3, 12, 12, 1, 1);
        let mut w = Tensor::randn(&[16, 8, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, 48);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        (
            w.clone(),
            PatternConv::new(
                geo,
                fkw,
                None,
                OptLevel::Full,
                TuningConfig::tuned_default(),
            ),
            geo,
        )
    }

    #[test]
    fn parallel_pattern_matches_serial() {
        let (_, exec, _) = pattern_exec(1);
        let mut rng = Rng::seed_from(2);
        let input = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let serial = exec.run(&input);
        for schedule in [Schedule::Contiguous, Schedule::Balanced] {
            let par = ParallelPattern::new(pattern_exec(1).1, 4, schedule);
            let (out, times) = par.run_timed(&input);
            assert!(serial.approx_eq(&out, 1e-5), "schedule {schedule:?}");
            assert_eq!(times.seconds.len(), 4);
        }
    }

    #[test]
    fn any_thread_count_is_the_serial_run_bit_for_bit() {
        use crate::test_layers;
        // A layer whose rows pair up into shared tiles serially: a
        // thread's round-robin rows group differently, and must not
        // change a bit for it. Strided, so phases are staged too.
        let layers = [
            (test_layers::coincident(12, 6, 4, 61).1, 12, 6),
            (test_layers::pruned(7, 5, 3, 17, 62).1, 7, 5),
        ];
        for (fkw, oc, ic) in layers {
            for (hw, stride) in [(13, 1), (16, 2)] {
                let geo = Conv2dGeometry::new(oc, ic, 3, 3, hw, hw, stride, 1);
                let bias: Vec<f32> = (0..oc).map(|f| f as f32 * 0.1 - 0.3).collect();
                let x = Tensor::randn(&[2, ic, hw, hw], &mut Rng::seed_from(63));
                for level in OptLevel::all() {
                    let exec = || {
                        PatternConv::new(
                            geo,
                            fkw.clone(),
                            Some(bias.clone()),
                            level,
                            TuningConfig::tuned_default(),
                        )
                        .with_relu(true)
                    };
                    let serial = exec().run(&x);
                    for threads in [1, 2, 5] {
                        for schedule in [Schedule::Contiguous, Schedule::Balanced] {
                            let par = ParallelPattern::new(exec(), threads, schedule);
                            assert_eq!(
                                par.run(&x),
                                serial,
                                "{} x{threads} {schedule:?}",
                                level.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_dense_matches_serial() {
        let mut rng = Rng::seed_from(3);
        let geo = Conv2dGeometry::new(10, 4, 3, 3, 9, 9, 1, 1);
        let w = Tensor::randn(&[10, 4, 3, 3], &mut rng);
        let bias: Vec<f32> = (0..10).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let serial = TiledConv::new(geo, w.clone(), Some(bias.clone()));
        let input = Tensor::randn(&[1, 4, 9, 9], &mut rng);
        let expect = serial.run(&input);

        let wref = &w;
        let bref = &bias;
        let par = ParallelDense::new(geo, 3, |sub_geo, range| {
            let fsize = 4 * 9;
            let wslice = wref.data()[range.start * fsize..range.end * fsize].to_vec();
            let sub_w =
                Tensor::from_vec(&[sub_geo.out_channels, 4, 3, 3], wslice).expect("subslice");
            TiledConv::new(sub_geo, sub_w, Some(bref[range].to_vec()))
        });
        let got = par.run(&input);
        assert!(expect.approx_eq(&got, 1e-5));
    }

    #[test]
    fn parallel_pattern_handles_batched_inputs() {
        let (_, exec, _) = pattern_exec(7);
        let mut rng = Rng::seed_from(8);
        let a = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let b = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let mut both = Tensor::zeros(&[2, 8, 12, 12]);
        both.data_mut()[..a.len()].copy_from_slice(a.data());
        both.data_mut()[a.len()..].copy_from_slice(b.data());
        let par = ParallelPattern::new(exec, 3, Schedule::Balanced);
        let out = par.run(&both);
        let oa = par.run(&a);
        let ob = par.run(&b);
        assert_eq!(&out.data()[..oa.len()], oa.data());
        assert_eq!(&out.data()[oa.len()..], ob.data());
    }

    #[test]
    fn imbalance_metric_behaves() {
        let t = ThreadTimes {
            seconds: vec![1.0, 1.0, 1.0],
        };
        assert_eq!(t.imbalance(), 0.0);
        let t = ThreadTimes {
            seconds: vec![2.0, 1.0],
        };
        assert!((t.imbalance() - 0.5).abs() < 1e-12);
        assert_eq!(ThreadTimes::default().imbalance(), 0.0);
    }

    #[test]
    fn oversubscribed_threads_skip_empty_assignments() {
        let mut rng = Rng::seed_from(9);
        let input = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let serial = pattern_exec(5).1.run(&input);
        // 24 threads over a 16-filter layer: 8 assignments would be
        // empty under either schedule and must be dropped, not spawned.
        for schedule in [Schedule::Contiguous, Schedule::Balanced] {
            let par = ParallelPattern::new(pattern_exec(5).1, 24, schedule);
            assert_eq!(
                par.assignments.len(),
                16,
                "{schedule:?}: no empty row assignments"
            );
            assert!(par.assignments.iter().all(|rows| rows.len() > 0));
            let (out, times) = par.run_timed(&input);
            assert!(serial.approx_eq(&out, 1e-5), "{schedule:?}");
            assert_eq!(
                times.seconds.len(),
                16,
                "{schedule:?}: idle threads must not enter the imbalance figure"
            );
        }
    }

    #[test]
    fn balanced_schedule_distributes_rows_evenly() {
        let (_, exec, _) = pattern_exec(4);
        let par = ParallelPattern::new(exec, 5, Schedule::Balanced);
        let sizes: Vec<usize> = par.assignments.iter().map(RowSet::len).collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }
}
