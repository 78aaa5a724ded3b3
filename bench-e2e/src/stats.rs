//! Order statistics over repetition samples.

/// Median, quartiles and range of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// The samples in measurement order.
    pub values: Vec<f64>,
}

impl Summary {
    /// Summarize a non-empty sample set.
    ///
    /// # Panics
    ///
    /// Panics on an empty set or a NaN sample (both are bugs in the caller).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let (q1, q3) = quartiles(&sorted);
        Summary {
            median: median(&sorted),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            values: values.to_vec(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads printed here match a
/// spread computed from the same values in Python. A single sample is its
/// own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.min, s.max), (1.0, 5.0));
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[7.0]).iqr_frac(), 0.0);
    }
}
