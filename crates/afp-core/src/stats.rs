//! Statistics helpers used by the experiment harnesses.
//!
//! Table I reports the interquartile mean and standard deviation over repeated
//! runs; these helpers implement those aggregations plus simple formatting.

/// Interquartile mean of a sample: the mean of the values between the 25th and
/// 75th percentile (inclusive). Falls back to the plain mean for fewer than
/// four samples. Values are ordered by [`f64::total_cmp`], so a NaN sorts
/// past every number and is trimmed like any other outlier.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    if values.len() < 4 {
        return mean(values);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = sorted.len() / 4;
    let trimmed = &sorted[q..sorted.len() - q];
    mean(trimmed)
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation (0.0 for fewer than two samples).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// A `mean ± std` summary of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Interquartile mean.
    pub iq_mean: f64,
    /// Standard deviation.
    pub std: f64,
}

impl Summary {
    /// Builds the summary of a sample.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            iq_mean: interquartile_mean(values),
            std: std_dev(values),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}±{:.2}", self.iq_mean, self.std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_sample() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-9);
        assert!((std_dev(&v) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn interquartile_mean_trims_outliers() {
        let v = [1.0, 10.0, 11.0, 12.0, 13.0, 100.0];
        let iqm = interquartile_mean(&v);
        assert!((iqm - 11.5).abs() < 1e-9);
        assert!(iqm < mean(&v));
    }

    #[test]
    fn small_samples_fall_back_to_mean() {
        assert_eq!(interquartile_mean(&[3.0, 5.0]), 4.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn a_nan_in_the_sample_neither_panics_nor_survives_the_trim() {
        // `partial_cmp(..).unwrap_or(Equal)` is not a total order once a NaN
        // is present, and the standard sort panics on this sample with it.
        let mut v: Vec<f64> = (0..21u64).map(|i| ((i * 62) % 97) as f64).collect();
        v[10] = f64::NAN;
        let mut finite: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
        finite.sort_by(f64::total_cmp);
        let expected = mean(&finite[5..16]);
        assert_eq!(interquartile_mean(&v), expected);
        let summary = Summary::of(&v);
        assert_eq!(summary.iq_mean, expected);
        assert!(summary.std.is_nan());
    }

    #[test]
    fn summary_formats_like_the_paper() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        let text = s.to_string();
        assert!(text.contains('±'));
    }
}
