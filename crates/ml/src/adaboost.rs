//! AdaBoost (discrete SAMME for two classes) over depth-1 decision stumps
//! (Table III: `AdaBoost`, `Random State=1`).

use crate::model::{check_fit_inputs, Classifier};
use crate::tree::{DecisionTree, DecisionTreeConfig};

/// Hyperparameters for [`AdaBoost`].
#[derive(Debug, Clone)]
pub struct AdaBoostConfig {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Depth of each weak learner (1 = stump, sklearn's default).
    pub stump_depth: usize,
    /// Learning rate shrinking each estimator's vote.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        Self {
            n_estimators: 50,
            stump_depth: 1,
            learning_rate: 1.0,
            seed: 1,
        }
    }
}

/// An AdaBoost ensemble of weighted stumps.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    config: AdaBoostConfig,
    stumps: Vec<(DecisionTree, f64)>,
}

impl AdaBoost {
    /// Create an unfitted ensemble.
    pub fn new(config: AdaBoostConfig) -> Self {
        Self {
            config,
            stumps: Vec::new(),
        }
    }

    /// Number of fitted weak learners (may stop early on a perfect stump).
    pub fn n_estimators(&self) -> usize {
        self.stumps.len()
    }

    /// Ensemble decision score in [-1, 1] (sign = predicted class).
    pub fn decision(&self, x: &[f64]) -> f64 {
        let total: f64 = self.stumps.iter().map(|(_, a)| a).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let score: f64 = self
            .stumps
            .iter()
            .map(|(s, a)| {
                let pred = if s.predict_proba(x) >= 0.5 { 1.0 } else { -1.0 };
                a * pred
            })
            .sum();
        score / total
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        check_fit_inputs(x, y);
        let n = x.len();
        let mut w = vec![1.0 / n as f64; n];
        self.stumps.clear();

        for round in 0..self.config.n_estimators {
            let mut stump = DecisionTree::new(DecisionTreeConfig {
                max_depth: self.config.stump_depth,
                balanced: false,
                max_features: None,
                seed: self.config.seed.wrapping_add(round as u64),
                ..Default::default()
            });
            stump.grow(x, y, &w);

            // Weighted error.
            let mut err = 0.0;
            let preds: Vec<u8> = x.iter().map(|row| stump.predict(row)).collect();
            for i in 0..n {
                if preds[i] != y[i] {
                    err += w[i];
                }
            }
            err = err.clamp(1e-12, 1.0 - 1e-12);
            if err >= 0.5 {
                // Weak learner no better than chance: stop boosting.
                if self.stumps.is_empty() {
                    self.stumps.push((stump, 1.0));
                }
                break;
            }
            let alpha = self.config.learning_rate * 0.5 * ((1.0 - err) / err).ln();
            // Reweight: misclassified up, correct down.
            let mut z = 0.0;
            for i in 0..n {
                let sign = if preds[i] == y[i] { -1.0 } else { 1.0 };
                w[i] *= (sign * alpha).exp();
                z += w[i];
            }
            for wi in &mut w {
                *wi /= z;
            }
            self.stumps.push((stump, alpha));
            if err < 1e-10 {
                break; // perfect fit
            }
        }
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        // Map the [-1,1] vote score to (0,1).
        ((self.decision(x) + 1.0) / 2.0).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn staircase(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        // Class 1 iff x0 > 0.3 AND x1 > 0.6 — needs >1 stump.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            x.push(vec![a, b]);
            y.push(u8::from(a > 0.3 && b > 0.6));
        }
        (x, y)
    }

    #[test]
    fn boosting_beats_single_stump() {
        let (x, y) = staircase(500, 0);
        let mut single = AdaBoost::new(AdaBoostConfig {
            n_estimators: 1,
            ..Default::default()
        });
        single.fit(&x, &y);
        let acc1 = crate::metrics::accuracy(&y, &single.predict_batch(&x));

        let mut boosted = AdaBoost::new(AdaBoostConfig {
            n_estimators: 60,
            ..Default::default()
        });
        boosted.fit(&x, &y);
        let acc2 = crate::metrics::accuracy(&y, &boosted.predict_batch(&x));
        assert!(acc2 > acc1, "boosted {acc2} <= single {acc1}");
        assert!(acc2 > 0.9, "boosted acc {acc2}");
    }

    #[test]
    fn perfect_separable_stops_early() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 0, 1, 1];
        let mut m = AdaBoost::new(AdaBoostConfig {
            n_estimators: 50,
            ..Default::default()
        });
        m.fit(&x, &y);
        assert!(m.n_estimators() < 50, "should stop early on perfect stump");
        assert_eq!(m.predict_batch(&x), y);
    }

    #[test]
    fn decision_bounded() {
        let (x, y) = staircase(200, 2);
        let mut m = AdaBoost::new(AdaBoostConfig::default());
        m.fit(&x, &y);
        for row in x.iter().take(30) {
            let d = m.decision(row);
            assert!((-1.0..=1.0).contains(&d));
            let p = m.predict_proba(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = staircase(200, 3);
        let run = || {
            let mut m = AdaBoost::new(AdaBoostConfig::default());
            m.fit(&x, &y);
            m.predict_proba_batch(&x)
        };
        assert_eq!(run(), run());
    }
}
