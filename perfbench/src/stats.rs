//! Order statistics used by every reported figure.
//!
//! Percentiles are nearest-rank (the value of an actual sample, never an
//! interpolation between two), so a reported p99 is a latency some packet
//! really saw. Quartiles follow Python's `statistics.quantiles(data, n=4)`
//! default ("exclusive") method, so the spread this program prints is the
//! same number an external script computes from the same values.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` in `[0, 1]`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Number of samples strictly beyond the nearest-rank `q` percentile: the
/// guide's validity rule reports a tail percentile only when at least ten
/// samples lie beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartiles, Python `statistics.quantiles(n=4)`
/// "exclusive" method. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_by_hand() {
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(5));
        assert_eq!(percentile_sorted(&v, 0.9), Some(9));
        assert_eq!(percentile_sorted(&v, 0.91), Some(10));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        assert_eq!(percentile_sorted(&v, 1.0), Some(10));
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.99), Some(990));
        assert_eq!(beyond(1000, 0.99), 10);
        // p99 of 999 is sample 990 (ceil 989.01): nine lie beyond it.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1009, 0.99), 10);
        assert_eq!(beyond(900, 0.99), 9);
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([7, 1], n=4) == [-0.5, 4.0, 8.5]: the
        // exclusive method extrapolates past the ends of short samples.
        assert_eq!(quartiles(&[7.0, 1.0]), Some((-0.5, 8.5)));
        // (8.25 - 2.75) / 5.5 == 1.0
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
