//! AdaBoost (discrete SAMME for two classes) over depth-1 decision stumps
//! (Table III: `AdaBoost`, `Random State=1`).

use crate::model::{check_fit_inputs, Classifier};
use crate::presort::ColumnOrders;
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
        // Only the weights change between rounds, so every round's root
        // shares one presorted order of each feature's rows.
        let presorted = ColumnOrders::new(x);

        for round in 0..self.config.n_estimators {
            let mut stump = DecisionTree::new(DecisionTreeConfig {
                max_depth: self.config.stump_depth,
                balanced: false,
                max_features: None,
                seed: self.config.seed.wrapping_add(round as u64),
                ..Default::default()
            });
            stump.grow(x, y, &w, Some(&presorted));

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
    use crate::presort::test_data::{signed_zeros, synthetic, ties};
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

    /// A weak learner grown by [`reference_build`].
    enum RefNode {
        Leaf(f64),
        Split(usize, f64, Box<RefNode>, Box<RefNode>),
    }

    impl RefNode {
        fn proba(&self, row: &[f64]) -> f64 {
            match self {
                RefNode::Leaf(p) => *p,
                RefNode::Split(f, t, left, right) => {
                    if row[*f] <= *t {
                        left.proba(row)
                    } else {
                        right.proba(row)
                    }
                }
            }
        }
    }

    /// The weak learner AdaBoost grew before its rounds shared a presorted
    /// root order: unbalanced CART that sorts every node's rows per
    /// feature, kept as the reference the presorted ensemble must match
    /// bit for bit.
    fn reference_build(
        x: &[Vec<f64>],
        y: &[u8],
        w: &[f64],
        idx: Vec<usize>,
        depth: usize,
        max_depth: usize,
    ) -> RefNode {
        let w_pos: f64 = idx.iter().filter(|&&i| y[i] == 1).map(|&i| w[i]).sum();
        let w_neg: f64 = idx.iter().filter(|&&i| y[i] == 0).map(|&i| w[i]).sum();
        let total = w_pos + w_neg;
        let p_pos = if total > 0.0 { w_pos / total } else { 0.5 };
        if depth >= max_depth || idx.len() < 2 || w_pos <= 0.0 || w_neg <= 0.0 {
            return RefNode::Leaf(p_pos);
        }
        let gini = |p: f64, n: f64| {
            if p + n <= 0.0 {
                0.0
            } else {
                2.0 * p * n / (p + n)
            }
        };
        let mut best: Option<(usize, f64, f64)> = None;
        let mut vals: Vec<(f64, f64, f64)> = Vec::with_capacity(idx.len());
        for f in 0..x[0].len() {
            vals.clear();
            for &i in &idx {
                let (p, n) = if y[i] == 1 { (w[i], 0.0) } else { (0.0, w[i]) };
                vals.push((x[i][f], p, n));
            }
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let tot_pos: f64 = vals.iter().map(|v| v.1).sum();
            let tot_neg: f64 = vals.iter().map(|v| v.2).sum();
            let mut left_pos = 0.0;
            let mut left_neg = 0.0;
            for k in 0..vals.len().saturating_sub(1) {
                left_pos += vals[k].1;
                left_neg += vals[k].2;
                if vals[k].0 == vals[k + 1].0 {
                    continue;
                }
                let gini = gini(left_pos, left_neg) + gini(tot_pos - left_pos, tot_neg - left_neg);
                if best.is_none_or(|(_, _, g)| gini < g) {
                    best = Some((f, (vals[k].0 + vals[k + 1].0) / 2.0, gini));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return RefNode::Leaf(p_pos);
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] <= threshold);
        if li.is_empty() || ri.is_empty() {
            return RefNode::Leaf(p_pos);
        }
        RefNode::Split(
            feature,
            threshold,
            Box::new(reference_build(x, y, w, li, depth + 1, max_depth)),
            Box::new(reference_build(x, y, w, ri, depth + 1, max_depth)),
        )
    }

    /// The boosting loop and `decision()` over [`reference_build`]'s
    /// learners: the reference ensemble's score for each row of `rows`.
    fn reference_decisions(
        config: &AdaBoostConfig,
        x: &[Vec<f64>],
        y: &[u8],
        rows: &[&Vec<f64>],
    ) -> Vec<f64> {
        let n = x.len();
        let mut w = vec![1.0 / n as f64; n];
        let mut stumps: Vec<(RefNode, f64)> = Vec::new();
        for _ in 0..config.n_estimators {
            let stump = reference_build(x, y, &w, (0..n).collect(), 0, config.stump_depth);
            let preds: Vec<u8> = x.iter().map(|r| u8::from(stump.proba(r) >= 0.5)).collect();
            let mut err = 0.0;
            for i in 0..n {
                if preds[i] != y[i] {
                    err += w[i];
                }
            }
            err = err.clamp(1e-12, 1.0 - 1e-12);
            if err >= 0.5 {
                if stumps.is_empty() {
                    stumps.push((stump, 1.0));
                }
                break;
            }
            let alpha = config.learning_rate * 0.5 * ((1.0 - err) / err).ln();
            let mut z = 0.0;
            for i in 0..n {
                let sign = if preds[i] == y[i] { -1.0 } else { 1.0 };
                w[i] *= (sign * alpha).exp();
                z += w[i];
            }
            for wi in &mut w {
                *wi /= z;
            }
            stumps.push((stump, alpha));
            if err < 1e-10 {
                break;
            }
        }
        let total: f64 = stumps.iter().map(|(_, a)| a).sum();
        rows.iter()
            .map(|row| {
                if total <= 0.0 {
                    return 0.0;
                }
                let score: f64 = stumps
                    .iter()
                    .map(|(s, a)| a * if s.proba(row) >= 0.5 { 1.0 } else { -1.0 })
                    .sum();
                score / total
            })
            .collect()
    }

    /// Fit with the presorted root order and with the reference, for
    /// stumps (the grid's depth 1) and depth-3 learners; decisions must
    /// agree bit for bit on `x` and `held_out`.
    fn assert_presort_matches_reference(x: &[Vec<f64>], y: &[u8], held_out: &[Vec<f64>]) {
        let rows: Vec<&Vec<f64>> = x.iter().chain(held_out).collect();
        for stump_depth in [1, 3] {
            let config = AdaBoostConfig {
                n_estimators: 15,
                stump_depth,
                ..Default::default()
            };
            let mut presorted = AdaBoost::new(config.clone());
            presorted.fit(x, y);
            // The learners must have split, or the test shows nothing.
            assert!(presorted.stumps.iter().any(|(s, _)| s.depth() > 0));
            let reference = reference_decisions(&config, x, y, &rows);
            for (r, (row, want)) in rows.iter().zip(reference).enumerate() {
                assert_eq!(
                    presorted.decision(row).to_bits(),
                    want.to_bits(),
                    "row {r}, stump_depth {stump_depth}"
                );
            }
        }
    }

    #[test]
    fn presort_matches_reference_on_heavy_ties() {
        let (x, y) = synthetic(200, 6, 20, ties);
        let (held_out, _) = synthetic(50, 6, 21, ties);
        assert_presort_matches_reference(&x, &y, &held_out);
    }

    #[test]
    fn presort_matches_reference_on_duplicated_rows() {
        let (x, mut y) = synthetic(150, 5, 22, |rng| rng.gen_range(-1.0..1.0));
        // Make positives a small minority, as in the hate-generation grid.
        for (i, label) in y.iter_mut().enumerate() {
            *label &= u8::from(i % 4 == 0);
        }
        let (xs, ys) = crate::sampling::upsample_then_downsample(&x, &y, 3.0, 5);
        let distinct: std::collections::BTreeSet<Vec<u64>> = xs
            .iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert!(distinct.len() < xs.len(), "no duplicated rows");
        assert_presort_matches_reference(&xs, &ys, &x);
    }

    #[test]
    fn presort_matches_reference_on_signed_zeros() {
        let (x, y) = synthetic(120, 4, 23, signed_zeros);
        let (held_out, _) = synthetic(40, 4, 24, signed_zeros);
        assert!(x
            .iter()
            .flatten()
            .any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert_presort_matches_reference(&x, &y, &held_out);
    }

    #[test]
    fn presort_matches_reference_with_more_features_than_rows() {
        let (x, y) = synthetic(12, 40, 25, |rng| rng.gen_range(-1.0..1.0));
        let (held_out, _) = synthetic(20, 40, 26, |rng| rng.gen_range(-1.0..1.0));
        assert_presort_matches_reference(&x, &y, &held_out);
    }

    #[test]
    fn presort_matches_reference_on_twin_features() {
        // Feature 0 is a level in 0..5 (heavy ties), feature 1 its twin
        // `level * n + row`: distinct values in the same stable order, so
        // at a level boundary the two tie, with the same sums added in the
        // same order, and feature 0 wins. The label is the level's parity,
        // flipped where feature 2 is 2: stumps on feature 2 give the rows
        // of one level unequal weights. An order that breaks ties another
        // way then adds feature 0's sums in another order, which can hand
        // a split to the twin; twin splits differ on held-out rows, whose
        // twin values are random. (Without this case, an unstable or
        // tie-reversed presort passed every test in this module.)
        let n = 300;
        let mut rng = StdRng::seed_from_u64(27);
        let levels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..5)).collect();
        let x: Vec<Vec<f64>> = levels
            .iter()
            .enumerate()
            .map(|(i, &l)| vec![l as f64, (l * n + i) as f64, ties(&mut rng)])
            .collect();
        let y: Vec<u8> = levels
            .iter()
            .zip(&x)
            .map(|(&l, r)| u8::from((l % 2 == 1) != (r[2] == 2.0)))
            .collect();
        let held_out: Vec<Vec<f64>> = (0..80)
            .map(|_| {
                let twin = rng.gen_range(0..5 * n) as f64;
                vec![f64::from(rng.gen_range(0..5u8)), twin, ties(&mut rng)]
            })
            .collect();
        assert_presort_matches_reference(&x, &y, &held_out);
    }

    #[test]
    fn presort_matches_reference_on_two_rows() {
        let x = vec![vec![0.5, -1.0], vec![-0.5, 2.0]];
        let held_out = vec![vec![0.0, 0.0], vec![1.0, -3.0], vec![-1.0, 3.0]];
        assert_presort_matches_reference(&x, &[1, 0], &held_out);
    }
}
