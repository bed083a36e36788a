//! Percentiles and the median-of-segments rule every timing metric
//! follows: a timed section is cut into equal segments, the statistic is
//! computed inside each one, and the reported value is the median across
//! segments, with the spread between segments kept alongside.

/// Segments per timed section. Three is the most that leaves every
/// segment of every workload's 25-second run ten samples beyond its
/// 99th percentile where the operation rate allows it at all, and the
/// median of three still shrugs off one disturbed segment.
pub const SEGMENTS: usize = 3;

/// A tail percentile needs this many samples beyond it to be more than
/// the maximum in disguise.
pub const MIN_BEYOND: usize = 10;

/// One-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a bug in the
/// caller, not a number.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie strictly beyond the `pct`-th percentile.
fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// Sorts in place and returns the `pct`-th percentile.
pub fn percentile(values: &mut [f64], pct: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, pct)
}

/// Median with the two middle values averaged for an even count.
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A statistic reported as the median across segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegStat {
    /// Median of the per-segment values.
    pub value: f64,
    /// Smallest per-segment value.
    pub min: f64,
    /// Largest per-segment value.
    pub max: f64,
    /// Samples the statistic was computed from, over all segments.
    pub samples: usize,
}

impl SegStat {
    /// A value measured once, outside any segmented section.
    pub fn single(value: f64) -> Self {
        SegStat {
            value,
            min: value,
            max: value,
            samples: 1,
        }
    }

    /// Median, minimum and maximum of `values`, one value per repeat.
    pub fn of_repeats(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        let value = median(&mut sorted);
        SegStat {
            value,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            samples: values.len(),
        }
    }
}

/// Samples of one timed section, each stamped with the second (from the
/// section's start) it belongs to.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    samples: Vec<(f64, f64)>,
}

impl Timeline {
    /// Adds a sample observed `at_s` seconds into the section.
    pub fn push(&mut self, at_s: f64, value: f64) {
        self.samples.push((at_s, value));
    }

    /// Appends another timeline's samples.
    pub fn extend(&mut self, other: Timeline) {
        self.samples.extend(other.samples);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Cuts `[0, length_s)` into [`SEGMENTS`] equal segments. Samples
    /// stamped at or past `length_s` land in the last segment, so a
    /// closing operation that overruns the section is not lost.
    pub fn segments(&self, length_s: f64) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); SEGMENTS];
        for &(at, value) in &self.samples {
            let idx = ((at / length_s * SEGMENTS as f64) as usize).min(SEGMENTS - 1);
            out[idx].push(value);
        }
        out
    }

    /// Samples per second in each segment of `[0, length_s)`, as the
    /// median across segments. An empty segment counts as zero: nothing
    /// happened in it.
    pub fn rate_per_s(&self, length_s: f64) -> SegStat {
        let segment_s = length_s / SEGMENTS as f64;
        let per_s: Vec<f64> = self
            .segments(length_s)
            .iter()
            .map(|s| s.len() as f64 / segment_s)
            .collect();
        SegStat {
            samples: self.len(),
            ..SegStat::of_repeats(&per_s)
        }
    }

    /// All values, in arrival order.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }
}

/// Applies `stat` to every non-empty segment and reports the median
/// across them. Returns `None` when every segment is empty.
pub fn over_segments(segments: &[Vec<f64>], stat: impl Fn(&mut [f64]) -> f64) -> Option<SegStat> {
    let mut per_segment = Vec::new();
    let mut samples = 0;
    for seg in segments.iter().filter(|s| !s.is_empty()) {
        let mut seg = seg.clone();
        samples += seg.len();
        per_segment.push(stat(&mut seg));
    }
    if per_segment.is_empty() {
        return None;
    }
    let stat = SegStat::of_repeats(&per_segment);
    Some(SegStat { samples, ..stat })
}

/// Whether every segment holds at least [`MIN_BEYOND`] samples beyond
/// the `pct`-th percentile — the "run is long enough" guard.
pub fn tail_supported(segments: &[Vec<f64>], pct: f64) -> bool {
    segments
        .iter()
        .all(|s| samples_beyond(s.len(), pct) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        let mut unsorted = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut unsorted, 50.0), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn beyond_counts_and_the_tail_guard() {
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1099, 99.0), 10);
        assert_eq!(samples_beyond(0, 99.0), 0);
        let long = vec![vec![0.0; 1000]; SEGMENTS];
        assert!(tail_supported(&long, 99.0));
        let mut one_short = long.clone();
        one_short[2].truncate(999);
        assert!(!tail_supported(&one_short, 99.0));
        // The same short segments do support a lower percentile.
        assert!(tail_supported(&one_short, 95.0));
    }

    #[test]
    fn segments_split_by_time_and_keep_overruns() {
        let mut t = Timeline::default();
        let length = 2.0 * SEGMENTS as f64;
        for i in 0..2 * SEGMENTS {
            t.push(i as f64, i as f64);
        }
        t.push(length + 0.5, 99.0);
        let segs = t.segments(length);
        assert_eq!(segs.len(), SEGMENTS);
        assert_eq!(segs[0], vec![0.0, 1.0]);
        assert_eq!(segs[1], vec![2.0, 3.0]);
        assert_eq!(segs[SEGMENTS - 1], vec![length - 2.0, length - 1.0, 99.0]);
    }

    #[test]
    fn rate_counts_empty_segments_as_zero() {
        let mut t = Timeline::default();
        let length = SEGMENTS as f64;
        // Two samples in the first one-second segment, none elsewhere.
        t.push(0.1, 1.0);
        t.push(0.9, 1.0);
        let rate = t.rate_per_s(length);
        assert_eq!(rate.max, 2.0);
        assert_eq!(rate.min, 0.0);
        assert_eq!(rate.value, 0.0);
        assert_eq!(rate.samples, 2);
    }

    #[test]
    fn median_of_segments_ignores_one_bad_segment() {
        let mut segs = vec![vec![1.0, 2.0, 3.0]; SEGMENTS];
        segs[1] = vec![100.0, 200.0, 300.0];
        let stat = over_segments(&segs, |s| percentile(s, 50.0)).expect("non-empty");
        assert_eq!(stat.value, 2.0);
        assert_eq!(stat.min, 2.0);
        assert_eq!(stat.max, 200.0);
        assert_eq!(stat.samples, 3 * SEGMENTS);
        assert!(over_segments(&vec![Vec::new(); SEGMENTS], |s| s[0]).is_none());
    }
}
