//! Order statistics over op latencies.

/// The nearest-rank `q`-quantile of `values` (`0 < q <= 1`); `None` when
/// empty. Failed ops are recorded as `f64::INFINITY`, so they rank slower
/// than every success.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (the mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.9), Some(5.0));
        assert_eq!(quantile(&v, 0.2), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn failures_rank_slowest() {
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(quantile(&v, 0.9), Some(18.0));
        v.push(f64::INFINITY);
        v.push(f64::INFINITY);
        assert_eq!(quantile(&v, 0.9), Some(f64::INFINITY));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
