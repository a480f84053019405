//! Exact-sample statistics. Every latency the benchmark reports is a
//! percentile of the full sample set (nanosecond `Instant` resolution), so
//! a 10 % change is never hidden inside a histogram bucket.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `q` of all samples are at or below it. `q` is
/// clamped to `[0, 1]`; an empty slice yields `None`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts a copy of `samples` and returns the given percentiles.
pub fn percentiles(samples: &[f64], qs: &[f64]) -> Vec<Option<f64>> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    qs.iter().map(|&q| percentile(&sorted, q)).collect()
}

/// Median by nearest rank (`percentile(.., 0.5)`).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentiles(samples, &[0.5])[0]
}

/// The median, over `slices` consecutive slices of `samples`, of each
/// slice's `q`-quantile. A transient host stall moves one slice's figure,
/// not the reported one.
pub fn sliced_quantile(samples: &[f64], slices: usize, q: f64) -> Option<f64> {
    let len = samples.len().div_ceil(slices.max(1)).max(1);
    let per: Vec<f64> = samples
        .chunks(len)
        .filter_map(|c| percentiles(c, &[q])[0])
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 0.991), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentiles_sort_their_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentiles(&v, &[0.5, 1.0]), vec![Some(3.0), Some(5.0)]);
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    }

    #[test]
    fn resolves_a_ten_percent_shift() {
        // Two sample sets 10 % apart must report medians 10 % apart; a
        // log2 histogram would put both in the same bucket.
        let a: Vec<f64> = (0..1000).map(|i| 1.0 + f64::from(i) * 1e-4).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.1).collect();
        let (ma, mb) = (median(&a).unwrap(), median(&b).unwrap());
        assert!((mb / ma - 1.1).abs() < 1e-9);
    }

    #[test]
    fn sliced_quantile_ignores_one_stalled_slice() {
        let mut v: Vec<f64> = (0..500).map(|i| 1.0 + f64::from(i % 100) / 100.0).collect();
        // A stall inflates every sample of the third slice.
        for x in &mut v[200..300] {
            *x += 20.0;
        }
        let whole = percentiles(&v, &[0.9])[0].unwrap();
        let sliced = sliced_quantile(&v, 5, 0.9).unwrap();
        assert!(whole > 20.0);
        assert!((sliced - 1.89).abs() < 1e-9, "{sliced}");
        assert_eq!(sliced_quantile(&[], 5, 0.5), None);
    }
}
