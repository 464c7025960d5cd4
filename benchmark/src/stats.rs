//! Sample summaries: median, quartiles and the tail-percentile rule.

/// Percentiles tried for the tail, lowest first, each with the `k` for which
/// one sample in `k` lies beyond it.
const TAIL_LADDER: [(f64, usize); 6] =
    [(75.0, 4), (90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1_000), (99.99, 10_000)];

/// What a sample of timings reports: the median (the metric), the quartiles
/// (its spread inside the run), and the highest percentile the sample size
/// supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`; `None` when the sample is too small for any.
    pub tail: Option<(f64, f64)>,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the figures here match the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten of
/// `n` samples beyond it, with its one-in-`k`.
fn tail_rung(n: usize) -> Option<(f64, usize)> {
    TAIL_LADDER.iter().copied().rev().find(|&(_, k)| n >= 10 * k)
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    let tail = tail_rung(values.len()).map(|(p, k)| {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        // Nearest rank: the smallest value with at least p% of samples at
        // or below it.
        (p, v[v.len() - v.len() / k - 1])
    });
    Summary { n: values.len(), median, q1, q3, tail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let percentile = |n| tail_rung(n).map(|(p, _)| p);
        assert_eq!(percentile(39), None);
        assert_eq!(percentile(40), Some(75.0));
        assert_eq!(percentile(100), Some(90.0));
        assert_eq!(percentile(199), Some(90.0));
        assert_eq!(percentile(200), Some(95.0));
        assert_eq!(percentile(1_000), Some(99.0));
        assert_eq!(percentile(10_000), Some(99.9));
        assert_eq!(percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn summary_reports_nearest_rank_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert!(summarize(&[1.0, 2.0]).tail.is_none());
    }
}
