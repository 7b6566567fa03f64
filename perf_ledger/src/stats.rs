//! Order statistics for the ledger: medians, nearest-rank percentiles
//! and the quartile spread the acceptance rule is written in.

/// Sort ascending (measurements are finite; NaN would be a bug).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-finite measurement"));
    v
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median_sorted(s: &[f64]) -> f64 {
    assert!(!s.is_empty(), "median of no samples");
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

pub fn median(v: &[f64]) -> f64 {
    median_sorted(&sorted(v.to_vec()))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it, so
/// `len - rank` samples lie beyond it.
pub fn percentile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The quiet tenth of a run: its fastest tenth of samples (at least
/// one), ascending.
///
/// Everything else on this shared host only ever adds time to an op,
/// and it comes in bursts that in a bad minute reach 85 % of the ops of
/// a run: the median of `batch_ragged` read 159 ms in one set of ten
/// runs and 133 ms in the next, its p25 139 and 127 ms, while the middle
/// of the fastest tenth stayed within 6.5 %. So every closed-loop timing
/// the ledger bounds is taken from the quiet tenth — what the code does
/// when it is left alone, which is also what a change to the code
/// moves. With `n` samples its median is about their p05 and its
/// maximum their p10.
pub fn quiet_tenth(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "quiet tenth of no samples");
    let mut s = sorted(v.to_vec());
    s.truncate(v.len().div_ceil(10));
    s
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" method) — the spread the benchmark contract
/// is stated in. Fewer than two values have no spread.
pub fn quartile_spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let m = s.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let med = median_sorted(&s);
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        // fewer than 100 samples: p99 is the maximum
        assert_eq!(percentile_sorted(&s[..40], 0.99), 40.0);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn quiet_tenth_is_the_fastest_tenth_rounded_up() {
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(quiet_tenth(&v), [1.0, 2.0, 3.0]);
        assert_eq!(quiet_tenth(&v[..21]), [10.0, 11.0, 12.0]);
        assert_eq!(quiet_tenth(&[5.0, 4.0, 6.0]), [4.0]);
        // bursts of interference through most of a run do not reach it
        let mut noisy = v.clone();
        noisy[..24].iter_mut().for_each(|x| *x += 100.0);
        assert_eq!(quiet_tenth(&noisy), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 50], n=4) == [10.5, 12, 31.5]
        let w = [10.0, 12.0, 11.0, 13.0, 50.0];
        assert!((quartile_spread(&w) - 21.0 / 12.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
