//! Order statistics over the timed repetitions.

/// Median, quartiles and sample count of one timed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
    /// them (the "exclusive" method), so the spreads this benchmark
    /// prints are the ones its acceptance is judged by.
    ///
    /// # Panics
    /// Panics on an empty slice or a non-finite value: both mean a
    /// repetition was lost, which is a bug in the caller.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Summary {
            median: quantile(&v, 2),
            q1: quantile(&v, 1),
            q3: quantile(&v, 3),
            n: v.len(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `k`-th quartile cut point of sorted `v` (exclusive method: the
/// cut sits at position `k·(n+1)/4`, clamped to the sample).
fn quantile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }
}
