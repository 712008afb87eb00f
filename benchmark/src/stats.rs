//! Order statistics for the benchmark's reported numbers.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller reports a measurement, and a
/// measurement with no samples is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the faster half of `xs` (the ⌈n/2⌉ smallest): what a host
/// time reads when the neighbours are quiet. On a shared host
/// interference only ever adds time, in bursts, so the slower half of a
/// run's repetitions carries the neighbours and the faster half the
/// program; averaging that half instead of taking the single minimum
/// keeps one lucky repetition from setting the figure. Over two ten-seed
/// sets of all six workloads this spread 4–11 % between runs where the
/// plain median spread 3–17 % (README, "Steadiness").
///
/// # Panics
/// Panics on an empty slice, like [`median`].
pub fn faster_half_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "faster half of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(2));
    v.iter().sum::<f64>() / v.len() as f64
}

/// The `p`-th percentile (`0 < p < 100`, nearest rank), or `None` when
/// fewer than ten samples lie beyond it — a tail read from a handful of
/// samples is one sample's luck, not a percentile.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// [`percentile`], falling back to the largest sample when the tail is
/// too thin to support it; the second field says which was reported.
pub fn percentile_or_max(xs: &[f64], p: f64) -> (f64, bool) {
    match percentile(xs, p) {
        Some(v) => (v, true),
        None => (xs.iter().copied().fold(f64::MIN, f64::max), false),
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) gives them — the acceptance rule for
/// this benchmark is stated in those terms.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_refuses_empty() {
        median(&[]);
    }

    #[test]
    fn faster_half_ignores_the_slow_repetitions() {
        assert_eq!(faster_half_mean(&[7.0]), 7.0);
        assert_eq!(faster_half_mean(&[9.0, 1.0]), 1.0);
        // Three of five, two of four: a burst in the slow half is not seen.
        assert_eq!(faster_half_mean(&[5.0, 1.0, 900.0, 3.0, 70.0]), 3.0);
        assert_eq!(faster_half_mean(&[4.0, 2.0, 900.0, 70.0]), 3.0);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: exactly ten lie beyond rank 90.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p91 leaves nine.
        assert_eq!(percentile(&xs, 91.0), None);
        assert_eq!(percentile(&xs[..99], 90.0), None);
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), None);
        assert_eq!(percentile_or_max(&[1.0, 9.0, 3.0], 99.0), (9.0, false));
        assert_eq!(percentile_or_max(&xs, 90.0), (90.0, true));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
