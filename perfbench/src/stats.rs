//! The benchmark's arithmetic: percentiles over timing samples and the
//! self time of a span given its children.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between the two nearest ranks (the "type 7" rule of R and NumPy).
/// Returns 0 for an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A host-clock interval, as offsets from the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start offset.
    pub start: Duration,
    /// End offset (never before `start`).
    pub end: Duration,
}

impl Interval {
    /// The interval's length.
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of `span`: its length minus the part of it that the union of
/// `children` covers. Children may overlap each other or stick out of the
/// parent; only the covered part of the parent's own interval counts.
pub fn self_time(span: Interval, children: &[Interval]) -> Duration {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.clamp(span.start, span.end),
            end: c.end.clamp(span.start, span.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = Duration::ZERO;
    let mut reach = span.start;
    for c in clipped {
        if c.end > reach {
            covered += c.end - c.start.max(reach);
            reach = c.end;
        }
    }
    span.len() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start_ms: u64, end_ms: u64) -> Interval {
        Interval {
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        // rank 0.9 × 3 = 2.7 → 3 + 0.7 × (4 − 3)
        assert!((percentile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_of_ten_samples_matches_the_p90_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        // rank 0.9 × 9 = 8.1 → 9 + 0.1 × (10 − 9)
        assert!((percentile(&xs, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = iv(0, 100);
        assert_eq!(self_time(parent, &[]), Duration::from_millis(100));
        assert_eq!(
            self_time(parent, &[iv(10, 20), iv(50, 80)]),
            Duration::from_millis(60)
        );
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = iv(0, 100);
        assert_eq!(
            self_time(parent, &[iv(10, 40), iv(30, 50), iv(45, 60)]),
            Duration::from_millis(50)
        );
        // A child nested inside another adds nothing.
        assert_eq!(
            self_time(parent, &[iv(10, 90), iv(20, 30)]),
            Duration::from_millis(20)
        );
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let parent = iv(10, 50);
        assert_eq!(
            self_time(parent, &[iv(0, 20), iv(40, 70), iv(60, 80)]),
            Duration::from_millis(20)
        );
        assert_eq!(self_time(parent, &[iv(0, 100)]), Duration::ZERO);
    }
}
