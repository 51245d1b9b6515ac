//! Principal component analysis via subspace (orthogonal) iteration.
//!
//! The paper reduces the 3,645-dim hate-generation feature space with "PCA
//! with the number of components set to 50" (Section VI-C). Forming the
//! full d×d covariance for d≈3.6k is wasteful; instead we run subspace
//! iteration using only matrix–vector products with the centered data
//! matrix `X` (i.e. with `XᵀX` implicitly), which converges to the top-k
//! eigenvectors of the covariance.

use crate::linalg::{dot, gram_schmidt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    /// `k` principal axes, each of length `d`.
    components: Vec<Vec<f64>>,
    /// Variance explained by each component.
    explained_variance: Vec<f64>,
    /// `mean · component` per component: centering folded into one
    /// subtraction per projected value.
    mean_proj: Vec<f64>,
}

impl Pca {
    /// Fit `k` components with `iters` subspace iterations (the Table IV
    /// grid uses 12).
    pub fn fit(x: &[Vec<f64>], k: usize, iters: usize, seed: u64) -> Self {
        assert!(!x.is_empty(), "PCA needs data");
        let n = x.len();
        let d = x[0].len();
        let k = k.min(d).min(n);
        let mean = crate::linalg::column_means(x);

        // Centered data access without materializing a copy:
        // (row - mean) · b = row · b - mean_dot[j], with mean_dot[j] =
        // mean · b computed once per basis vector per iteration.
        let mut mean_dot = vec![0.0; k];
        let fill_mean_dot = |mean_dot: &mut [f64], basis: &[Vec<f64>]| {
            for (md, b) in mean_dot.iter_mut().zip(basis) {
                *md = dot(&mean, b);
            }
        };

        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        gram_schmidt(&mut basis);

        let mut proj = vec![vec![0.0; k]; n];
        for _ in 0..iters {
            // proj = Xc * basisᵀ  (n×k)
            fill_mean_dot(&mut mean_dot, &basis);
            for (i, row) in x.iter().enumerate() {
                for (j, b) in basis.iter().enumerate() {
                    proj[i][j] = dot(row, b) - mean_dot[j];
                }
            }
            // basis = Xcᵀ * proj  (k columns of length d)
            for (j, b) in basis.iter_mut().enumerate() {
                b.iter_mut().for_each(|v| *v = 0.0);
                for (i, row) in x.iter().enumerate() {
                    let w = proj[i][j];
                    for (bv, &rv) in b.iter_mut().zip(row) {
                        *bv += w * rv;
                    }
                }
                // subtract mean * Σ_i proj[i][j]
                let wsum: f64 = (0..n).map(|i| proj[i][j]).sum();
                for (bv, &m) in b.iter_mut().zip(&mean) {
                    *bv -= wsum * m;
                }
            }
            gram_schmidt(&mut basis);
        }

        // Explained variance: var of projections along each axis.
        fill_mean_dot(&mut mean_dot, &basis);
        let mut explained = vec![0.0; k];
        for row in x {
            for (j, b) in basis.iter().enumerate() {
                let p = dot(row, b) - mean_dot[j];
                explained[j] += p * p;
            }
        }
        for e in &mut explained {
            *e /= n as f64;
        }
        // Order components by descending explained variance.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| explained[b].total_cmp(&explained[a]));
        let components: Vec<Vec<f64>> = order.iter().map(|&j| basis[j].clone()).collect();
        let explained_variance: Vec<f64> = order.iter().map(|&j| explained[j]).collect();
        let mean_proj: Vec<f64> = order.iter().map(|&j| mean_dot[j]).collect();

        Self {
            components,
            explained_variance,
            mean_proj,
        }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Per-component explained variance, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Project one row onto the principal axes.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        self.components
            .iter()
            .zip(&self.mean_proj)
            .map(|(c, &m)| dot(row, c) - m)
            .collect()
    }

    /// Project a batch.
    pub fn transform(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter().map(|r| self.transform_row(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Generate data stretched along a known direction.
    fn anisotropic_data(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let t: f64 = rng.gen_range(-10.0..10.0);
                let noise: f64 = rng.gen_range(-0.1..0.1);
                // dominant axis (1,1)/sqrt2, tiny noise on (1,-1)
                vec![t + noise, t - noise, 0.0]
            })
            .collect()
    }

    #[test]
    fn first_component_finds_dominant_axis() {
        let x = anisotropic_data(200, 1);
        let pca = Pca::fit(&x, 2, 30, 0);
        let c0 = &pca.components[0];
        // Should align with (1,1,0)/sqrt(2) up to sign.
        let target = [1.0 / 2f64.sqrt(), 1.0 / 2f64.sqrt(), 0.0];
        let align = dot(c0, &target).abs();
        assert!(align > 0.99, "alignment {align} too low: {c0:?}");
    }

    #[test]
    fn explained_variance_descending() {
        let x = anisotropic_data(200, 2);
        let pca = Pca::fit(&x, 3, 30, 0);
        let ev = pca.explained_variance();
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn transform_dimensionality() {
        let x = anisotropic_data(50, 3);
        let pca = Pca::fit(&x, 2, 20, 0);
        let t = pca.transform(&x);
        assert_eq!(t.len(), 50);
        assert_eq!(t[0].len(), 2);
    }

    #[test]
    fn centered_projection_zero_mean() {
        let x = anisotropic_data(100, 4);
        let pca = Pca::fit(&x, 2, 20, 0);
        let t = pca.transform(&x);
        for j in 0..2 {
            let m: f64 = t.iter().map(|r| r[j]).sum::<f64>() / t.len() as f64;
            assert!(m.abs() < 1e-6, "projected mean {m} not ~0");
        }
    }

    #[test]
    fn k_clamped_to_dim() {
        let x = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        let pca = Pca::fit(&x, 10, 10, 0);
        assert!(pca.k() <= 2);
    }

    #[test]
    fn components_orthonormal() {
        // Use k=2 on the rank-2 data so every requested component exists.
        let x = anisotropic_data(100, 5);
        let pca = Pca::fit(&x, 2, 30, 0);
        for i in 0..pca.k() {
            for j in 0..pca.k() {
                let d = dot(&pca.components[i], &pca.components[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-6, "gram[{i}][{j}] = {d}");
            }
        }
    }

    #[test]
    fn rank_deficient_extra_component_collapses() {
        // Data is rank ~2; a third requested component has ~zero variance
        // and collapses to the zero vector rather than garbage.
        let x = anisotropic_data(100, 6);
        let pca = Pca::fit(&x, 3, 30, 0);
        let ev = pca.explained_variance();
        assert!(ev[2] < 1e-6 * ev[0], "third component variance {}", ev[2]);
    }
}
