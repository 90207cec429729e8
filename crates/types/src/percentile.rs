//! Exact nearest-rank percentiles — the one shared implementation.
//!
//! Several layers of the framework report percentiles (model-side
//! statistics, straggler detection, request-trace tail-latency
//! attribution). They all delegate here so every reported quantile uses
//! the same definition.
//!
//! **Definition and tie behavior.** For `p` in `(0, 100]` over `N`
//! values, the nearest-rank percentile is the value at 1-based rank
//! `ceil(p/100 · N)` of the *sorted* input; `p ≤ 0` yields the minimum.
//! The formula indexes the sorted slice directly, so the reported
//! percentile is always a value that actually occurs in the input —
//! repeated values ("ties") need no special casing, and an even-length
//! median (`p = 50`) is the *lower* of the two central values rather
//! than their midpoint.

/// Nearest-rank percentile of `values` (input need not be sorted; a
/// copy is sorted internally). Returns `0.0` on empty input. Non-finite
/// values sort via total order (NaNs last).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[nearest_rank_index(sorted.len(), p)]
}

/// Nearest-rank percentile over integers (e.g. nanosecond latencies).
/// Returns `0` on empty input.
pub fn percentile_u64(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    percentile_sorted_u64(&sorted, p)
}

/// [`percentile_u64`] over input that is already sorted ascending: no
/// copy, no sort. Sort a population once and read every percentile of
/// it from here. Returns `0` on empty input.
pub fn percentile_sorted_u64(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(sorted.is_sorted(), "input must be sorted");
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank_index(sorted.len(), p)]
}

/// The 0-based index the nearest-rank rule picks in a sorted slice of
/// length `n` (n > 0).
fn nearest_rank_index(n: usize, p: f64) -> usize {
    if p.is_nan() || p <= 0.0 {
        return 0;
    }
    // The epsilon keeps exact ranks exact: 99.9/100·1000 evaluates to
    // 999.0000000000001 in f64, and a bare ceil() would overshoot to 1000.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_lower_median() {
        // Even count: the lower central value, never an interpolation.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[4.0, 3.0, 2.0, 1.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn edges_clamp() {
        let v = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, -5.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 30.0);
        assert_eq!(percentile(&v, 150.0), 30.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile_u64(&[], 99.0), 0);
    }

    #[test]
    fn ties_report_an_occurring_value() {
        assert_eq!(percentile(&[100.0, 100.0, 100.0, 10.0], 50.0), 100.0);
        assert_eq!(percentile_u64(&[7, 7, 7, 7], 99.9), 7);
    }

    #[test]
    fn u64_tail_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_u64(&v, 50.0), 500);
        assert_eq!(percentile_u64(&v, 95.0), 950);
        assert_eq!(percentile_u64(&v, 99.0), 990);
        assert_eq!(percentile_u64(&v, 99.9), 999);
        assert_eq!(percentile_u64(&v, 100.0), 1000);
    }
}
