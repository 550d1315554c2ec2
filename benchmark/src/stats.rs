//! Order statistics for timing samples: median, quartiles, and the
//! highest percentile a sample count can support.

/// Sort a copy of `values` (NaN-free by construction: every sample is
/// a measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The quantile at 1-based rank `pos` of sorted data, interpolating
/// linearly between neighbours and clamping to the ends.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let n = sorted.len();
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// The three quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method: rank
/// `i·(n+1)/4`), so a spread computed here equals the one the driver
/// computes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = v.len() as f64;
    Some([1.0, 2.0, 3.0].map(|i| at_rank(&v, i * (n + 1.0) / 4.0)))
}

/// The median (mean of the two middle samples for an even count).
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 => None,
        1 => Some(values[0]),
        _ => quartiles(values).map(|q| q[1]),
    }
}

/// Inter-quartile distance as a share of the median: the steadiness
/// figure the benchmark contract bounds.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The percentile (nearest rank) of a sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, with its value: `(99.9, v)` needs 10 000
/// samples, `(99, v)` 1 000, `(90, v)` 100. Below 100 samples the
/// tail is not reportable and the median stands in (`(50, median)`).
pub fn highest_supported_percentile(values: &[f64]) -> Option<(f64, f64)> {
    // In per-mille, so that "ten samples beyond" is exact arithmetic.
    let p = [(999, 99.9), (990, 99.0), (900, 90.0)]
        .into_iter()
        .find(|(per_mille, _)| values.len() * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |(_, p)| p);
    percentile(values, p).map(|v| (p, v))
}

/// Median, quartiles and count of one timing, as every timing is
/// reported.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarise a sample; `None` when it is empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let m = median(values)?;
        let [q1, _, q3] = quartiles(values).unwrap_or([m; 3]);
        Some(Summary {
            q1,
            median: m,
            q3,
            n: values.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 3, 4, 8], n=4) == [1.5, 3.5, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 3.0]), Some([1.5, 3.5, 7.0]));
        // With two samples Python extrapolates the outer quartiles and
        // this clamps them; only the median is shared, and no spread is
        // ever taken over fewer than three runs.
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        let of = |n: usize| {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            highest_supported_percentile(&v).map(|(p, _)| p)
        };
        assert_eq!(of(0), None);
        assert_eq!(of(99), Some(50.0));
        assert_eq!(of(100), Some(90.0));
        assert_eq!(of(999), Some(90.0));
        assert_eq!(of(1_000), Some(99.0));
        assert_eq!(of(9_999), Some(99.0));
        assert_eq!(of(10_000), Some(99.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&v), Some((99.0, 990.0)));
    }

    #[test]
    fn summary_carries_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        let one = Summary::of(&[9.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.n), (9.0, 9.0, 9.0, 1));
    }
}
