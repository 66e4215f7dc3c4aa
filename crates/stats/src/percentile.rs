//! Exact percentiles of a recorded sample (sorted, linearly interpolated).

/// Exact percentile of a sample with linear interpolation.
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 1]`.
pub fn exact_percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = values.len();
    if n == 1 {
        return values[0];
    }
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    values[lo] * (1.0 - frac) + values[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_basics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(exact_percentile(&mut v, 0.0), 1.0);
        assert_eq!(exact_percentile(&mut v, 1.0), 4.0);
        assert_eq!(exact_percentile(&mut v, 0.5), 2.5);
    }

    #[test]
    #[should_panic]
    fn exact_percentile_rejects_empty() {
        exact_percentile(&mut [], 0.5);
    }
}
