//! Order statistics and block timing.

use std::time::Instant;

/// Percentile `p` (0–100) of `values` by linear interpolation between
/// the closest ranks (the numpy / Excel `PERCENTILE.INC` rule). `NaN`
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The three cut points Python's `statistics.quantiles(values, n=4)`
/// returns (its default `exclusive` method). Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Times `blocks` blocks of `calls` calls each and returns each block's
/// mean nanoseconds per call. Work shorter than ~10 µs is never timed
/// one call at a time: the clock's own cost and jitter would dominate.
pub fn time_blocks(blocks: usize, calls: usize, mut call: impl FnMut(usize)) -> Vec<f64> {
    let mut means = Vec::with_capacity(blocks);
    let mut i = 0usize;
    for _ in 0..blocks {
        let start = Instant::now();
        for _ in 0..calls {
            call(i);
            i += 1;
        }
        means.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    means
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert!((percentile(&[1.0, 2.0, 3.0, 4.0], 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn blocks_report_per_call_means() {
        let mut calls = 0;
        let means = time_blocks(3, 4, |_| calls += 1);
        assert_eq!(calls, 12);
        assert_eq!(means.len(), 3);
        assert!(means.iter().all(|m| *m >= 0.0));
    }
}
