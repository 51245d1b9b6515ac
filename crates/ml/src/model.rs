//! The [`Classifier`] trait implemented by every model in this crate.

/// A binary classifier over dense `f64` feature vectors.
///
/// Labels are `0` (negative / non-hate) and `1` (positive / hate or
/// retweeter). `predict_proba` returns the estimated probability of the
/// positive class; models that natively produce margins map them through a
/// sigmoid so that ranking metrics (AUC, MAP@k) remain meaningful.
pub trait Classifier {
    /// Fit on a training set; `x.len() == y.len()`, all rows equal length.
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]);

    /// Probability of the positive class for one sample.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Hard 0/1 prediction at the 0.5 threshold.
    fn predict(&self, x: &[f64]) -> u8 {
        u8::from(self.predict_proba(x) >= 0.5)
    }

    /// Probabilities for a batch.
    fn predict_proba_batch(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|row| self.predict_proba(row)).collect()
    }

    /// Probabilities for a batch, scored across worker threads
    /// (`threads` = 0 means auto-detect, `RETINA_THREADS` overrides).
    /// Bit-identical to [`Classifier::predict_proba_batch`] for any
    /// thread count: each row's score lands in its index-assigned slot.
    fn predict_proba_batch_par(&self, x: &[Vec<f64>], threads: usize) -> Vec<f64>
    where
        Self: Sync + Sized,
    {
        crate::linalg::par_map_rows(x, threads, |row| self.predict_proba(row))
    }

    /// Hard predictions for a batch.
    fn predict_batch(&self, x: &[Vec<f64>]) -> Vec<u8> {
        x.iter().map(|row| self.predict(row)).collect()
    }
}

/// Validate a training set; panics with a clear message on misuse.
///
/// Feature values must be finite: the tree learners order rows by
/// `partial_cmp`, which is no consistent order once a NaN is present.
pub(crate) fn check_fit_inputs(x: &[Vec<f64>], y: &[u8]) {
    assert_eq!(x.len(), y.len(), "x and y must have the same length");
    assert!(!x.is_empty(), "cannot fit on an empty training set");
    let d = x[0].len();
    assert!(
        x.iter().all(|r| r.len() == d),
        "all feature rows must have equal dimensionality"
    );
    assert!(y.iter().all(|&l| l <= 1), "labels must be binary (0 or 1)");
    for (i, row) in x.iter().enumerate() {
        for (f, v) in row.iter().enumerate() {
            assert!(
                v.is_finite(),
                "feature values must be finite: row {i}, feature {f} is {v}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaBoost, AdaBoostConfig, Gbdt, GbdtConfig};

    #[test]
    #[should_panic(expected = "feature values must be finite: row 1, feature 0 is NaN")]
    fn fit_rejects_nan_feature() {
        let x = [vec![0.0, 1.0], vec![f64::NAN, 1.0], vec![2.0, 0.0]];
        Gbdt::new(GbdtConfig::default()).fit(&x, &[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "feature values must be finite: row 2, feature 1 is inf")]
    fn fit_rejects_infinite_feature() {
        let x = [vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, f64::INFINITY]];
        AdaBoost::new(AdaBoostConfig::default()).fit(&x, &[0, 1, 0]);
    }
}
