//! Order statistics for latency samples and run-to-run spread.

/// Sort a sample in place (NaNs, which no timer produces, sort last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// The `q`-quantile (`0..=1`) of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it (nearest rank). Empty
/// samples have no quantile.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `q`-quantile of an unsorted sample (nearest rank).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so spreads printed here match
/// the acceptance check's. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // statistics.quantiles' exclusive method: position i·(n+1)/4 on a
    // 1-based scale, clamped to the sample, interpolating (or, when
    // clamped, extrapolating) between the neighbouring pair.
    let at = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the acceptance check bounds.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_of_an_unsorted_handful() {
        // Five operations: the fast quartile is the second fastest, the
        // upper quartile the fourth.
        let walls = [2.9, 2.5, 3.4, 2.6, 2.7];
        assert_eq!(quantile(&walls, 0.25), Some(2.6));
        assert_eq!(quantile(&walls, 0.75), Some(2.9));
        assert_eq!(quantile(&[7.0, 5.0], 0.75), Some(7.0));
        assert_eq!(quantile(&[], 0.25), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(spread(&v), Some(1.0));
    }
}
