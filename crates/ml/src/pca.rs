//! Principal component analysis via subspace (orthogonal) iteration.
//!
//! The paper reduces the 3,645-dim hate-generation feature space with "PCA
//! with the number of components set to 50" (Section VI-C). Forming the
//! full d×d covariance for d≈3.6k is wasteful; instead we run subspace
//! iteration using only matrix–vector products with the centered data
//! matrix `X` (i.e. with `XᵀX` implicitly), which converges to the top-k
//! eigenvectors of the covariance.

use crate::linalg::{axpy, dot, gram_schmidt};
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

        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        gram_schmidt(&mut basis);

        let mut proj = vec![vec![0.0; k]; n];
        for _ in 0..iters {
            // proj = Xc * basisᵀ  (n×k)
            dots(&mean, &basis, &mut mean_dot);
            for (row, p) in x.iter().zip(&mut proj) {
                dots(row, &basis, p);
                for (pj, &md) in p.iter_mut().zip(&mean_dot) {
                    *pj -= md;
                }
            }
            // basis = Xcᵀ * proj  (k columns of length d), rows outermost
            // so `x` streams once; each element still adds over rows in
            // order.
            for b in &mut basis {
                b.iter_mut().for_each(|v| *v = 0.0);
            }
            for (row, p) in x.iter().zip(&proj) {
                for (b, &w) in basis.iter_mut().zip(p) {
                    axpy(w, row, b);
                }
            }
            for (j, b) in basis.iter_mut().enumerate() {
                // subtract mean * Σ_i proj[i][j]
                let wsum: f64 = (0..n).map(|i| proj[i][j]).sum();
                for (bv, &m) in b.iter_mut().zip(&mean) {
                    *bv -= wsum * m;
                }
            }
            gram_schmidt(&mut basis);
        }

        // Explained variance: var of projections along each axis.
        dots(&mean, &basis, &mut mean_dot);
        let mut explained = vec![0.0; k];
        let mut p = vec![0.0; k];
        for row in x {
            dots(row, &basis, &mut p);
            for (j, &pj) in p.iter().enumerate() {
                let c: f64 = pj - mean_dot[j];
                explained[j] += c * c;
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
        let mut out = vec![0.0; self.components.len()];
        dots(row, &self.components, &mut out);
        for (o, &m) in out.iter_mut().zip(&self.mean_proj) {
            *o -= m;
        }
        out
    }

    /// Project a batch.
    pub fn transform(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter().map(|r| self.transform_row(r)).collect()
    }
}

/// `out[j] = dot(row, basis[j])` for every `j`, bit for bit, computing
/// four basis vectors' dots per pass over `row`: four independent add
/// chains instead of one, each still summed in index order from `-0.0`,
/// where `Iterator::sum` (and so [`dot`]) starts.
fn dots(row: &[f64], basis: &[Vec<f64>], out: &mut [f64]) {
    debug_assert_eq!(basis.len(), out.len());
    let d = row.len();
    let mut quads = basis.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (b, o) in (&mut quads).zip(&mut outs) {
        let (b0, b1, b2, b3) = (&b[0][..d], &b[1][..d], &b[2][..d], &b[3][..d]);
        let mut s = [-0.0f64; 4];
        for (t, &r) in row.iter().enumerate() {
            s[0] += r * b0[t];
            s[1] += r * b1[t];
            s[2] += r * b2[t];
            s[3] += r * b3[t];
        }
        o.copy_from_slice(&s);
    }
    for (b, o) in quads.remainder().iter().zip(outs.into_remainder()) {
        *o = dot(row, b);
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

    /// The fit that projected one basis vector per pass over a row and
    /// walked `x` once per basis vector in the update, kept as the
    /// reference the blocked loops must match bit for bit.
    fn reference_fit(x: &[Vec<f64>], k: usize, iters: usize, seed: u64) -> Pca {
        let n = x.len();
        let d = x[0].len();
        let k = k.min(d).min(n);
        let mean = crate::linalg::column_means(x);
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
            fill_mean_dot(&mut mean_dot, &basis);
            for (i, row) in x.iter().enumerate() {
                for (j, b) in basis.iter().enumerate() {
                    proj[i][j] = dot(row, b) - mean_dot[j];
                }
            }
            for (j, b) in basis.iter_mut().enumerate() {
                b.iter_mut().for_each(|v| *v = 0.0);
                for (i, row) in x.iter().enumerate() {
                    let w = proj[i][j];
                    for (bv, &rv) in b.iter_mut().zip(row) {
                        *bv += w * rv;
                    }
                }
                let wsum: f64 = (0..n).map(|i| proj[i][j]).sum();
                for (bv, &m) in b.iter_mut().zip(&mean) {
                    *bv -= wsum * m;
                }
            }
            gram_schmidt(&mut basis);
        }
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
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| explained[b].total_cmp(&explained[a]));
        Pca {
            components: order.iter().map(|&j| basis[j].clone()).collect(),
            explained_variance: order.iter().map(|&j| explained[j]).collect(),
            mean_proj: order.iter().map(|&j| mean_dot[j]).collect(),
        }
    }

    fn reference_transform_row(pca: &Pca, row: &[f64]) -> Vec<f64> {
        pca.components
            .iter()
            .zip(&pca.mean_proj)
            .map(|(c, &m)| dot(row, c) - m)
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_bits(got: &Pca, want: &Pca, rows: &[Vec<f64>], k: usize) {
        assert_eq!(got.k(), want.k(), "k {k}");
        for (j, (g, w)) in got.components.iter().zip(&want.components).enumerate() {
            assert_eq!(bits(g), bits(w), "k {k}, component {j}");
        }
        assert_eq!(
            bits(&got.explained_variance),
            bits(&want.explained_variance),
            "k {k}"
        );
        assert_eq!(bits(&got.mean_proj), bits(&want.mean_proj), "k {k}");
        for (r, row) in rows.iter().enumerate() {
            let want_row = reference_transform_row(want, row);
            assert_eq!(
                bits(&got.transform_row(row)),
                bits(&want_row),
                "k {k}, row {r}"
            );
        }
    }

    #[test]
    fn blocked_fit_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut x: Vec<Vec<f64>> = (0..80)
            .map(|_| (0..60).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        x[7] = vec![0.0; 60];
        let held_out: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..60).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .chain([vec![0.0; 60], vec![-0.0; 60]])
            .collect();
        // Every remainder of the four-way blocking, and the grid's k.
        for k in [1, 3, 4, 5, 50] {
            let got = Pca::fit(&x, k, 6, 3);
            assert_same_bits(&got, &reference_fit(&x, k, 6, 3), &held_out, k);
        }
        // k > d: clamped to d.
        let narrow: Vec<Vec<f64>> = x.iter().map(|r| r[..3].to_vec()).collect();
        let narrow_out: Vec<Vec<f64>> = held_out.iter().map(|r| r[..3].to_vec()).collect();
        let got = Pca::fit(&narrow, 10, 6, 3);
        assert_eq!(got.k(), 3);
        assert_same_bits(&got, &reference_fit(&narrow, 10, 6, 3), &narrow_out, 10);
    }

    #[test]
    fn blocked_dots_start_at_negative_zero() {
        // A zero row against all-negative axes: every product is -0.0, so
        // each dot is -0.0 only if its chain starts at -0.0, as `dot`'s
        // does. Five axes cover the blocked lanes and the remainder.
        let pca = Pca {
            components: vec![vec![-0.5; 6]; 5],
            explained_variance: vec![1.0; 5],
            mean_proj: vec![0.0; 5],
        };
        let zero = [0.0; 6];
        let got = pca.transform_row(&zero);
        assert_eq!(bits(&got), bits(&reference_transform_row(&pca, &zero)));
        assert!(got.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
    }
}
