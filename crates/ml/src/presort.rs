//! XGBoost's pre-sorted column block (Chen & Guestrin, KDD 2016, §4.1),
//! shared by the tree learners that fit many trees to the same `x`:
//! each feature's rows are sorted by value once per fit, and every tree
//! reuses that order instead of sorting at its root.
//!
//! [`crate::gbdt::Gbdt`] keeps the order through the whole tree: a split
//! stably partitions each feature's order into the children's.
//! [`crate::adaboost::AdaBoost`] reads only the root's order; nodes below
//! the root of its weak learners sort their own rows.

use std::ops::Range;

/// Each feature's rows in ascending order of value, plus `x` transposed.
///
/// Precondition: every feature value is finite (`check_fit_inputs`
/// asserts it). Rows sort by `partial_cmp`, ties in row order; that is a
/// consistent order only without NaN. `-0.0` and `+0.0` compare equal
/// and so keep row order, as a stable per-node sort would.
pub(crate) struct ColumnOrders {
    n: usize,
    d: usize,
    /// `x` transposed: `f * n..(f + 1) * n` holds feature `f` by row, so a
    /// split search reads one short column instead of a strided gather.
    values: Vec<f64>,
    /// Feature-major: `f * n..(f + 1) * n` holds feature `f`'s rows,
    /// stably sorted by value.
    sorted: Vec<u32>,
    /// The current tree's copy of `sorted`, filled by [`ColumnOrders::reset`].
    /// A node owns the same range of every feature's block; a split
    /// stably partitions that range into its children's, so each stays
    /// sorted.
    work: Vec<u32>,
    /// Per row: does it go to the left child of the node being split?
    go_left: Vec<bool>,
    /// Scratch for the right child's rows while partitioning.
    right: Vec<u32>,
}

impl ColumnOrders {
    pub(crate) fn new(x: &[Vec<f64>]) -> Self {
        let n = x.len();
        let d = x[0].len();
        assert!(
            u32::try_from(n).is_ok(),
            "presorted columns hold at most u32::MAX rows"
        );
        let mut values = Vec::with_capacity(n * d);
        let mut sorted = Vec::with_capacity(n * d);
        for f in 0..d {
            let start = sorted.len();
            values.extend(x.iter().map(|row| row[f]));
            let value = &values[start..];
            // lint: allow(lossy-cast) n <= u32::MAX is asserted above
            sorted.extend((0..n).map(|i| i as u32));
            sorted[start..].sort_by(|&a, &b| {
                value[a as usize]
                    .partial_cmp(&value[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        Self {
            n,
            d,
            values,
            sorted,
            work: Vec::new(),
            go_left: vec![false; n],
            right: Vec::with_capacity(n),
        }
    }

    /// Number of features.
    pub(crate) fn d(&self) -> usize {
        self.d
    }

    /// Feature `f`'s values by row, and every row in ascending order of
    /// that value: the root's order, which no split changes.
    pub(crate) fn root(&self, f: usize) -> (&[f64], &[u32]) {
        let block = f * self.n..(f + 1) * self.n;
        (&self.values[block.clone()], &self.sorted[block])
    }

    /// Start a new tree: the root owns every row again.
    pub(crate) fn reset(&mut self) {
        self.work.clear();
        self.work.extend_from_slice(&self.sorted);
    }

    /// Feature `f`'s values by row, and the rows of the node owning
    /// `range` in ascending order of that value.
    pub(crate) fn column(&self, f: usize, range: Range<usize>) -> (&[f64], &[u32]) {
        let block = f * self.n..(f + 1) * self.n;
        (&self.values[block.clone()], &self.work[block][range])
    }

    /// Split a node's ascending `rows` at `feature <= threshold`. Returns
    /// the children's rows, still ascending, or `None` if a side is empty.
    /// Only the rows move: call [`ColumnOrders::reorder`] before reading
    /// the children's columns.
    pub(crate) fn split(
        &mut self,
        rows: Vec<usize>,
        feature: usize,
        threshold: f64,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let value = &self.values[feature * self.n..(feature + 1) * self.n];
        for &i in &rows {
            self.go_left[i] = value[i] <= threshold;
        }
        let (left, right): (Vec<usize>, Vec<usize>) =
            rows.into_iter().partition(|&i| self.go_left[i]);
        if left.is_empty() || right.is_empty() {
            return None;
        }
        Some((left, right))
    }

    /// After [`ColumnOrders::split`] of the node owning `range`, stably
    /// partition that range of every feature's block: the left child's
    /// rows first, so each child owns a sorted sub-range.
    pub(crate) fn reorder(&mut self, range: Range<usize>) {
        for f in 0..self.d {
            let block = &mut self.work[f * self.n..(f + 1) * self.n][range.clone()];
            self.right.clear();
            let mut w = 0;
            for r in 0..block.len() {
                let i = block[r];
                if self.go_left[i as usize] {
                    block[w] = i;
                    w += 1;
                } else {
                    self.right.push(i);
                }
            }
            block[w..].copy_from_slice(&self.right);
        }
    }
}

/// Inputs for the tests that hold a presorted learner to its per-node-sort
/// reference.
#[cfg(test)]
pub(crate) mod test_data {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n` rows of `d` features drawn by `value`; label 1 when the first
    /// two features sum above zero, flipped for one row in ten.
    pub(crate) fn synthetic(
        n: usize,
        d: usize,
        seed: u64,
        value: impl Fn(&mut StdRng) -> f64,
    ) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| value(&mut rng)).collect())
            .collect();
        let y = x
            .iter()
            .map(|r| u8::from((r[0] + r[1] > 0.0) != rng.gen_bool(0.1)))
            .collect();
        (x, y)
    }

    /// Small integers: heavy ties in every feature.
    pub(crate) fn ties(rng: &mut StdRng) -> f64 {
        f64::from(rng.gen_range(-2i32..3))
    }

    /// A value in -1, -0.0, +0.0 or 1.
    pub(crate) fn signed_zeros(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..4) {
            0 => -0.0,
            1 => 0.0,
            2 => -1.0,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presorted_ties_keep_row_order_through_a_split() {
        let x: Vec<Vec<f64>> = [1.0, -0.0, 0.5, 0.0, -0.0, 1.0, -1.0]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let mut cols = ColumnOrders::new(&x);
        // -0.0 and +0.0 tie, as do the two 1.0s: each run keeps row order.
        assert_eq!(cols.root(0).1, [6, 1, 3, 4, 2, 0, 5]);
        cols.reset();
        assert_eq!(cols.column(0, 0..7).1, [6, 1, 3, 4, 2, 0, 5]);
        let (left, right) = cols.split((0..7).collect(), 0, 0.25).unwrap();
        assert_eq!((left, right), (vec![1, 3, 4, 6], vec![0, 2, 5]));
        cols.reorder(0..7);
        assert_eq!(cols.column(0, 0..4).1, [6, 1, 3, 4]);
        assert_eq!(cols.column(0, 4..7).1, [2, 0, 5]);
        // The root's order is untouched by the split.
        assert_eq!(cols.root(0).1, [6, 1, 3, 4, 2, 0, 5]);

        // Long tie runs, past the lengths a sort handles by insertion.
        let signed = [-0.0, 1.0, 0.0, -1.0, 0.0];
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![signed[i * 7 % 5]]).collect();
        let cols = ColumnOrders::new(&x);
        let (value, order) = cols.root(0);
        for w in order.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            assert!(value[a] < value[b] || (value[a] == value[b] && a < b));
        }
    }

    #[test]
    fn split_with_an_empty_side_moves_nothing() {
        let x: Vec<Vec<f64>> = [2.0, 1.0, 3.0].iter().map(|&v| vec![v]).collect();
        let mut cols = ColumnOrders::new(&x);
        cols.reset();
        assert_eq!(cols.split((0..3).collect(), 0, 5.0), None);
        assert_eq!(cols.column(0, 0..3).1, [1, 0, 2]);
    }
}
