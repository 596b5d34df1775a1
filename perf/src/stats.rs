//! Order statistics for timing samples.
//!
//! Rule (choosing-metrics §1): report a timing as its median and the
//! highest percentile that still has at least ten samples beyond it, and
//! state the sample count.

/// Percentiles the tail rule chooses among, lowest first.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples beyond the tail rule's percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples strictly beyond it among `n` samples; the median when even the
/// 75th has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p == 50.0 || samples_beyond(n, p) >= MIN_BEYOND)
        .fold(50.0, f64::max)
}

/// How many of `n` sorted samples lie strictly above the nearest-rank
/// `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p) + 1)
}

/// 0-based nearest-rank index of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of `sorted` (ascending). Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted.get(rank(sorted.len(), p)).copied().unwrap_or(0.0)
}

/// Sorts ascending in place; timing samples are finite.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
}

/// Median (mean of the two middle samples for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `xs`, as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them — the driver's acceptance rule is written in those terms.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    sort(&mut v);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance of `xs` as a share of their median: the
/// run-to-run *spread* a bound is judged against.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some([2.5, 4.0, 5.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // n = 300: p95 leaves 15 beyond, p99 only 3.
        assert_eq!(tail_percentile(300), 95.0);
        assert_eq!(samples_beyond(300, 95.0), 15);
        assert_eq!(samples_beyond(300, 99.0), 3);
        // n = 200 is the smallest count that supports p95.
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_001), 99.9);
        // Too few samples for any tail: the median stands alone.
        assert_eq!(tail_percentile(30), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
