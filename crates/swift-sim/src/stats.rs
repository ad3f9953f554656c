//! Small statistics helpers shared by the experiment harnesses.
//!
//! The paper reports averages via "the widely-used four quartile method"
//! (Hyndman & Fan sample quantiles) and presents several CDFs; these
//! helpers compute exactly those summaries.

/// Summary of a sample: min, quartiles, max and mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// Smallest sample.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Computes [`Quartiles`] of a non-empty sample. Returns `None` for an
/// empty slice. Uses linear interpolation between order statistics
/// (Hyndman–Fan type 7, the default of R/NumPy, cited by the paper as the
/// "four quartile method" \[26\]).
pub fn quartiles(samples: &[f64]) -> Option<Quartiles> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    Some(Quartiles {
        min: v[0],
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        max: v[v.len() - 1],
        mean,
    })
}

/// Type-7 quantile of an already-sorted sample, `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// A point of an empirical CDF: `fraction` of samples are `<= value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CdfPoint {
    /// Sample value.
    pub value: f64,
    /// Cumulative fraction in `(0, 1]`.
    pub fraction: f64,
}

/// Builds the empirical CDF of a sample (sorted ascending, one point per
/// sample). Used for the Fig. 8 and Fig. 11 style plots.
pub fn empirical_cdf(samples: &[f64]) -> Vec<CdfPoint> {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    let n = v.len() as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, value)| CdfPoint {
            value,
            fraction: (i as f64 + 1.0) / n,
        })
        .collect()
}

/// Fraction of samples `<= threshold`.
pub fn fraction_at_most(samples: &[f64], threshold: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&x| x <= threshold).count() as f64 / samples.len() as f64
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_sample() {
        // R: quantile(c(1,2,3,4,5), type=7) -> 25%: 2, 50%: 3, 75%: 4
        let q = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!(q.min, 1.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q3, 4.0);
        assert_eq!(q.max, 5.0);
        assert_eq!(q.mean, 3.0);
    }

    #[test]
    fn quartiles_interpolate() {
        // R: quantile(c(1,2,3,4), type=7) -> 25%: 1.75, 50%: 2.5, 75%: 3.25
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(q.q1, 1.75);
        assert_eq!(q.median, 2.5);
        assert_eq!(q.q3, 3.25);
    }

    #[test]
    fn quartiles_edge_cases() {
        assert!(quartiles(&[]).is_none());
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!(q.median, 7.0);
        assert_eq!(q.q1, 7.0);
        assert_eq!(q.max, 7.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let cdf = empirical_cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().fraction, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].value <= w[1].value);
            assert!(w[0].fraction < w[1].fraction);
        }
    }

    #[test]
    fn fraction_at_most_counts_inclusive() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_at_most(&s, 2.0), 0.5);
        assert_eq!(fraction_at_most(&s, 0.5), 0.0);
        assert_eq!(fraction_at_most(&s, 10.0), 1.0);
        assert_eq!(fraction_at_most(&[], 1.0), 0.0);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
