//! Order statistics with the conventions the benchmark reports by.

/// Median of `xs` (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it. `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `parts − 1` cut points dividing `xs` into `parts` groups of equal
/// probability, by the "exclusive" method of Python's
/// `statistics.quantiles`. `None` with fewer than two samples.
pub fn quantiles(xs: &[f64], parts: usize) -> Option<Vec<f64>> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 || parts < 1 {
        return None;
    }
    let m = n + 1;
    Some(
        (1..parts)
            .map(|i| {
                // Python clamps the index but not `delta`, so the outer
                // cut points of a tiny sample extrapolate.
                let j = (i * m / parts).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * parts) as f64;
                (s[j - 1] * (parts as f64 - delta) + s[j] * delta) / parts as f64
            })
            .collect(),
    )
}

/// First and third quartile of `xs`.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    quantiles(xs, 4).map(|q| (q[0], q[2]))
}

/// The 90th percentile of `xs`, reported only when at least ten samples
/// lie strictly beyond it: a tail estimate resting on fewer points is
/// noise.
pub fn p90_if_supported(xs: &[f64]) -> Option<f64> {
    let p90 = quantiles(xs, 10)?[8];
    let beyond = xs.iter().filter(|&&x| x > p90).count();
    (beyond >= 10).then_some(p90)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), Some(vec![2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), Some(vec![1.0, 2.0, 3.0]));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 distinct samples: the cut sits at 90 with 9 beyond — withheld.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90_if_supported(&short), None);
        // 109 samples: p90 = 99 with exactly 10 beyond — reported.
        let enough: Vec<f64> = (1..=109).map(f64::from).collect();
        assert_eq!(quantiles(&enough, 10).unwrap()[8], 99.0);
        assert_eq!(p90_if_supported(&enough), Some(99.0));
        // Ties at the top do not count as beyond.
        let flat = vec![1.0; 500];
        assert_eq!(p90_if_supported(&flat), None);
    }
}
