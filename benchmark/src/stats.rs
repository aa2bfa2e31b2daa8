//! Order statistics for the harness: median, quartiles, and the
//! five-number summary every timing is reported as.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(xs, n=4)` uses — the acceptance rule for this
/// benchmark is stated in those terms, so `--compare` must agree with it.
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles, extremes and sample count of one timing. With the
/// handful of samples a run affords no upper percentile has ten samples
/// beyond it, so none is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Dist {
    pub fn of(xs: &[f64]) -> Dist {
        let (q1, q3) = quartiles(xs);
        Dist {
            n: xs.len(),
            median: median(xs),
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile range as a share of the median: the spread the
    /// acceptance rule compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

impl std::fmt::Display for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
            self.median, self.q1, self.q3, self.min, self.max, self.n
        )
    }
}

/// A layer's estimated share of a wall time: `ns_per_op × ops` over the
/// wall, from a kernel measured outside the run. An estimate, not a
/// measurement — the kernel runs hot and alone — so it reads as a ceiling
/// on what speeding that layer up could save.
pub fn share_est(ns_per_op: f64, ops: u64, wall_s: f64) -> f64 {
    ratio(ns_per_op * ops as f64, wall_s * 1e9)
}

/// `num ÷ den`, or 0 where the denominator counted nothing.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.0, 6.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn dist_summarises_and_spreads() {
        let d = Dist::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((d.n, d.median, d.min, d.max), (7, 4.0, 1.0, 7.0));
        assert_eq!(d.spread(), 1.0);
        assert_eq!(Dist::of(&[0.0]).spread(), 0.0);
    }

    #[test]
    fn share_estimates() {
        // 100 ns × 2M ops = 0.2 s of a 2 s wall.
        assert!((share_est(100.0, 2_000_000, 2.0) - 0.1).abs() < 1e-12);
        assert_eq!(share_est(100.0, 5, 0.0), 0.0);
    }
}
