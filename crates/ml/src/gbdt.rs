//! Gradient-boosted decision trees with XGBoost-style second-order leaf
//! weights and regularization.
//!
//! Reproduces the `XGBoost` row of Table III: `eta=0.4`,
//! `objective='binary:logistic'`, `reg_alpha=0.9`, `learning_rate` shrink.
//! Each round fits a regression tree to the (gradient, hessian) statistics
//! of the logistic loss; leaf weights are `-G/(H+λ)` soft-thresholded by
//! `reg_alpha` (L1), as in XGBoost.

use crate::linalg::sigmoid;
use crate::model::{check_fit_inputs, Classifier};
use crate::presort::ColumnOrders;

/// Hyperparameters for [`Gbdt`].
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to each tree's output (XGBoost `eta` /
    /// `learning_rate`).
    pub eta: f64,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub reg_lambda: f64,
    /// L1 regularization on leaf weights (XGBoost `alpha`; paper: 0.9).
    pub reg_alpha: f64,
    /// Minimum hessian mass per leaf (XGBoost `min_child_weight`).
    pub min_child_weight: f64,
    /// Minimum loss reduction to accept a split (XGBoost `gamma`).
    pub gamma: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 50,
            eta: 0.4,
            max_depth: 4,
            reg_lambda: 1.0,
            reg_alpha: 0.9,
            min_child_weight: 1.0,
            gamma: 0.0,
        }
    }
}

/// A regression tree node over (grad, hess) statistics.
#[derive(Debug, Clone)]
enum RNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<RNode>,
        right: Box<RNode>,
    },
}

#[derive(Debug, Clone)]
struct RegTree {
    root: RNode,
}

impl RegTree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                RNode::Leaf { weight } => return *weight,
                RNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    debug_assert!(*feature < x.len(), "row narrower than the fitted trees");
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// Gradient-boosted tree classifier for binary logistic loss.
#[derive(Debug, Clone)]
pub struct Gbdt {
    config: GbdtConfig,
    trees: Vec<RegTree>,
    base_score: f64,
}

impl Gbdt {
    /// Create an unfitted booster.
    pub fn new(config: GbdtConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            base_score: 0.0,
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Raw margin (log-odds) prediction.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.base_score + self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// XGBoost leaf weight with L1 soft-thresholding and L2 shrinkage.
    fn leaf_weight(&self, g: f64, h: f64) -> f64 {
        let a = self.config.reg_alpha;
        let num = if g > a {
            g - a
        } else if g < -a {
            g + a
        } else {
            0.0
        };
        -num / (h + self.config.reg_lambda)
    }

    /// Split gain (without the constant parent term), XGBoost eq. (7).
    fn score(&self, g: f64, h: f64) -> f64 {
        let a = self.config.reg_alpha;
        let num = if g > a {
            g - a
        } else if g < -a {
            g + a
        } else {
            0.0
        };
        num * num / (h + self.config.reg_lambda)
    }

    /// Grow one regression tree over the node's rows. `rows` is in
    /// ascending order, so the gradient sums run in row order; the node
    /// owns `lo..lo + rows.len()` of every column in `cols`.
    fn build(
        &self,
        grad: &[f64],
        hess: &[f64],
        cols: &mut ColumnOrders,
        rows: Vec<usize>,
        lo: usize,
        depth: usize,
    ) -> RNode {
        let g_sum: f64 = rows.iter().map(|&i| grad[i]).sum();
        let h_sum: f64 = rows.iter().map(|&i| hess[i]).sum();
        let leaf = RNode::Leaf {
            weight: self.leaf_weight(g_sum, h_sum),
        };
        if depth >= self.config.max_depth || rows.len() < 2 {
            return leaf;
        }
        let parent_score = self.score(g_sum, h_sum);
        let range = lo..lo + rows.len();
        let mut best: Option<(usize, f64, f64)> = None;
        for f in 0..cols.d() {
            let (value, order) = cols.column(f, range.clone());
            let mut gl = 0.0;
            let mut hl = 0.0;
            for k in 0..order.len().saturating_sub(1) {
                let (i, next) = (order[k] as usize, order[k + 1] as usize);
                gl += grad[i];
                hl += hess[i];
                if value[i] == value[next] {
                    continue;
                }
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < self.config.min_child_weight || hr < self.config.min_child_weight {
                    continue;
                }
                let gain = 0.5 * (self.score(gl, hl) + self.score(gr, hr) - parent_score)
                    - self.config.gamma;
                if gain > 0.0 && best.map_or(true, |(_, _, bg)| gain > bg) {
                    best = Some((f, (value[i] + value[next]) / 2.0, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return leaf;
        };
        let Some((li, ri)) = cols.split(rows, feature, threshold) else {
            return leaf;
        };
        // Children at `max_depth` are leaves: they read only their rows,
        // never the column blocks, so those stay as they are.
        if depth + 1 < self.config.max_depth {
            cols.reorder(range);
        }
        let mid = lo + li.len();
        RNode::Split {
            feature,
            threshold,
            left: Box::new(self.build(grad, hess, cols, li, lo, depth + 1)),
            right: Box::new(self.build(grad, hess, cols, ri, mid, depth + 1)),
        }
    }

    /// The boosting loop: each round fits one tree, grown by `grow` from
    /// the round's (gradient, hessian) statistics.
    fn boost(
        &mut self,
        x: &[Vec<f64>],
        y: &[u8],
        mut grow: impl FnMut(&Self, &[f64], &[f64]) -> RNode,
    ) {
        let n = x.len();
        // Base score: log-odds of the positive rate (XGBoost's default
        // behaviour with base_score=0.5 is margin 0; we use the prior for
        // faster convergence on imbalanced data).
        let pos = y.iter().filter(|&&l| l == 1).count() as f64;
        let p0 = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (p0 / (1.0 - p0)).ln();
        self.trees.clear();

        let mut margins = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for _round in 0..self.config.n_rounds {
            for i in 0..n {
                let p = sigmoid(margins[i]);
                grad[i] = p - y[i] as f64; // dL/dmargin
                hess[i] = (p * (1.0 - p)).max(1e-16);
            }
            let tree = RegTree {
                root: grow(self, &grad, &hess),
            };
            for i in 0..n {
                margins[i] += self.config.eta * tree.predict(&x[i]);
            }
            // Shrink the stored tree by eta so decision() is consistent.
            let shrunk = scale_tree(&tree.root, self.config.eta);
            self.trees.push(RegTree { root: shrunk });
        }
    }
}

impl Classifier for Gbdt {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        check_fit_inputs(x, y);
        let mut cols = ColumnOrders::new(x);
        self.boost(x, y, |m, grad, hess| {
            cols.reset();
            m.build(grad, hess, &mut cols, (0..x.len()).collect(), 0, 0)
        });
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision(x))
    }
}

fn scale_tree(node: &RNode, eta: f64) -> RNode {
    match node {
        RNode::Leaf { weight } => RNode::Leaf {
            weight: weight * eta,
        },
        RNode::Split {
            feature,
            threshold,
            left,
            right,
        } => RNode::Split {
            feature: *feature,
            threshold: *threshold,
            left: Box::new(scale_tree(left, eta)),
            right: Box::new(scale_tree(right, eta)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presort::test_data::{signed_zeros, synthetic, ties};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn xor(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let b: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            x.push(vec![
                a + rng.gen_range(-0.2..0.2),
                b + rng.gen_range(-0.2..0.2),
            ]);
            y.push(u8::from(a * b > 0.0));
        }
        (x, y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor(300, 0);
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 30,
            reg_alpha: 0.0,
            ..Default::default()
        });
        m.fit(&x, &y);
        let acc = crate::metrics::accuracy(&y, &m.predict_batch(&x));
        assert!(acc > 0.95, "gbdt xor acc = {acc}");
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let (x, y) = xor(300, 1);
        let loss = |m: &Gbdt| -> f64 {
            x.iter()
                .zip(&y)
                .map(|(row, &t)| {
                    let p = m.predict_proba(row).clamp(1e-9, 1.0 - 1e-9);
                    -(t as f64) * p.ln() - (1.0 - t as f64) * (1.0 - p).ln()
                })
                .sum::<f64>()
                / x.len() as f64
        };
        let mut short = Gbdt::new(GbdtConfig {
            n_rounds: 3,
            reg_alpha: 0.0,
            ..Default::default()
        });
        short.fit(&x, &y);
        let mut long = Gbdt::new(GbdtConfig {
            n_rounds: 40,
            reg_alpha: 0.0,
            ..Default::default()
        });
        long.fit(&x, &y);
        assert!(loss(&long) < loss(&short));
    }

    #[test]
    fn strong_l1_shrinks_leaves_to_zero() {
        let (x, y) = xor(100, 2);
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 5,
            reg_alpha: 1e9,
            ..Default::default()
        });
        m.fit(&x, &y);
        // With a huge alpha, every leaf weight soft-thresholds to zero so
        // the margin stays at the prior.
        for row in x.iter().take(10) {
            assert!((m.decision(row) - m.base_score).abs() < 1e-9);
        }
    }

    #[test]
    fn base_score_is_prior_log_odds() {
        let x = vec![vec![0.0]; 10];
        let mut y = vec![0u8; 10];
        y[0] = 1; // 10% positive
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 0,
            ..Default::default()
        });
        m.fit(&x, &y);
        let expected = (0.1f64 / 0.9).ln();
        assert!((m.decision(&[0.0]) - expected).abs() < 1e-9);
        assert!((m.predict_proba(&[0.0]) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn n_trees_matches_rounds() {
        let (x, y) = xor(100, 3);
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 12,
            ..Default::default()
        });
        m.fit(&x, &y);
        assert_eq!(m.n_trees(), 12);
    }

    /// The per-node-sort tree builder that `ColumnOrders` replaced, kept
    /// as the reference the presorted booster must match bit for bit.
    fn reference_build(
        m: &Gbdt,
        x: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        idx: Vec<usize>,
        depth: usize,
    ) -> RNode {
        let g_sum: f64 = idx.iter().map(|&i| grad[i]).sum();
        let h_sum: f64 = idx.iter().map(|&i| hess[i]).sum();
        let leaf = RNode::Leaf {
            weight: m.leaf_weight(g_sum, h_sum),
        };
        if depth >= m.config.max_depth || idx.len() < 2 {
            return leaf;
        }
        let parent_score = m.score(g_sum, h_sum);
        let d = x[0].len();
        let mut best: Option<(usize, f64, f64)> = None;
        let mut vals: Vec<(f64, f64, f64)> = Vec::with_capacity(idx.len());
        for f in 0..d {
            vals.clear();
            for &i in &idx {
                vals.push((x[i][f], grad[i], hess[i]));
            }
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut gl = 0.0;
            let mut hl = 0.0;
            for k in 0..vals.len().saturating_sub(1) {
                gl += vals[k].1;
                hl += vals[k].2;
                if vals[k].0 == vals[k + 1].0 {
                    continue;
                }
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < m.config.min_child_weight || hr < m.config.min_child_weight {
                    continue;
                }
                let gain =
                    0.5 * (m.score(gl, hl) + m.score(gr, hr) - parent_score) - m.config.gamma;
                if gain > 0.0 && best.map_or(true, |(_, _, bg)| gain > bg) {
                    best = Some((f, (vals[k].0 + vals[k + 1].0) / 2.0, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return leaf;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] <= threshold);
        if li.is_empty() || ri.is_empty() {
            return leaf;
        }
        RNode::Split {
            feature,
            threshold,
            left: Box::new(reference_build(m, x, grad, hess, li, depth + 1)),
            right: Box::new(reference_build(m, x, grad, hess, ri, depth + 1)),
        }
    }

    /// Fit with the presorted builder and with the reference, at the
    /// grid's settings and at permissive ones that split small sets, for
    /// depths 1 and 4; margins must agree bit for bit on `x` and `held_out`.
    fn assert_presort_matches_reference(x: &[Vec<f64>], y: &[u8], held_out: &[Vec<f64>]) {
        let grid = GbdtConfig {
            n_rounds: 8,
            ..Default::default()
        };
        let permissive = GbdtConfig {
            n_rounds: 8,
            reg_alpha: 0.0,
            min_child_weight: 0.1,
            ..Default::default()
        };
        for base in [grid, permissive.clone()] {
            for max_depth in [1, 4] {
                let config = GbdtConfig {
                    max_depth,
                    ..base.clone()
                };
                let mut presorted = Gbdt::new(config.clone());
                presorted.fit(x, y);
                let mut reference = Gbdt::new(config);
                reference.boost(x, y, |m, grad, hess| {
                    reference_build(m, x, grad, hess, (0..x.len()).collect(), 0)
                });
                for (r, row) in x.iter().chain(held_out).enumerate() {
                    assert_eq!(
                        presorted.decision(row).to_bits(),
                        reference.decision(row).to_bits(),
                        "row {r}, max_depth {max_depth}"
                    );
                }
            }
        }
        // The permissive booster must have split, or the test shows nothing.
        let mut m = Gbdt::new(GbdtConfig {
            max_depth: 1,
            ..permissive
        });
        m.fit(x, y);
        assert!(m
            .trees
            .iter()
            .any(|t| matches!(t.root, RNode::Split { .. })));
    }

    #[test]
    fn presort_matches_reference_on_heavy_ties() {
        let (x, y) = synthetic(200, 6, 10, ties);
        let (held_out, _) = synthetic(50, 6, 11, ties);
        assert_presort_matches_reference(&x, &y, &held_out);
    }

    #[test]
    fn presort_matches_reference_on_duplicated_rows() {
        let (x, mut y) = synthetic(150, 5, 12, |rng| rng.gen_range(-1.0..1.0));
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
        let (x, y) = synthetic(120, 4, 13, signed_zeros);
        let (held_out, _) = synthetic(40, 4, 14, signed_zeros);
        assert!(x
            .iter()
            .flatten()
            .any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert_presort_matches_reference(&x, &y, &held_out);
    }

    #[test]
    fn presort_matches_reference_with_more_features_than_rows() {
        let (x, y) = synthetic(12, 40, 15, |rng| rng.gen_range(-1.0..1.0));
        let (held_out, _) = synthetic(20, 40, 16, |rng| rng.gen_range(-1.0..1.0));
        assert_presort_matches_reference(&x, &y, &held_out);
    }

    #[test]
    fn presort_matches_reference_on_two_rows() {
        let x = vec![vec![0.5, -1.0], vec![-0.5, 2.0]];
        let held_out = vec![vec![0.0, 0.0], vec![1.0, -3.0], vec![-1.0, 3.0]];
        assert_presort_matches_reference(&x, &[1, 0], &held_out);
    }

    #[test]
    fn leaf_weight_soft_threshold_math() {
        let m = Gbdt::new(GbdtConfig {
            reg_alpha: 1.0,
            reg_lambda: 1.0,
            ..Default::default()
        });
        assert_eq!(m.leaf_weight(0.5, 1.0), 0.0); // |g| < alpha
        assert!((m.leaf_weight(3.0, 1.0) + 1.0).abs() < 1e-12); // -(3-1)/2
        assert!((m.leaf_weight(-3.0, 1.0) - 1.0).abs() < 1e-12);
    }
}
