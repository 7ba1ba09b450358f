//! A binary-indexed (Fenwick) tree over `i64` frequencies: the exact,
//! update-friendly companion to the static `PrefixSums` table.

use synoptic_core::{Result, SynopticError};

/// Fenwick tree supporting O(log n) point updates and prefix sums.
#[derive(Debug, Clone)]
pub struct Fenwick {
    /// 1-based internal tree; `tree[0]` unused.
    tree: Vec<i128>,
    n: usize,
    /// An upper bound on every `|A[i]|`: the largest at construction plus
    /// every `|delta|` since, so it only grows. While it stays inside
    /// `i64`, [`Fenwick::check_batch`] needs no point reads.
    bound: u128,
}

impl Fenwick {
    /// An all-zero tree over `n` positions.
    pub fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
            n,
            bound: 0,
        }
    }

    /// Builds from initial frequencies in O(n).
    pub fn from_values(values: &[i64]) -> Self {
        let n = values.len();
        let mut tree = vec![0i128; n + 1];
        for (i, &v) in values.iter().enumerate() {
            tree[i + 1] += v as i128;
            let j = (i + 1) + ((i + 1) & (i + 1).wrapping_neg());
            if j <= n {
                let carried = tree[i + 1];
                tree[j] += carried;
            }
        }
        let bound = values.iter().map(|v| v.unsigned_abs() as u128).max();
        Self {
            tree,
            n,
            bound: bound.unwrap_or(0),
        }
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `A[i] += delta` in O(log n).
    pub fn update(&mut self, i: usize, delta: i64) {
        assert!(i < self.n, "index {i} out of bounds for n={}", self.n);
        let mut j = i + 1;
        while j <= self.n {
            self.tree[j] += delta as i128;
            j += j & j.wrapping_neg();
        }
        self.bound = self.bound.saturating_add(delta.unsigned_abs() as u128);
    }

    /// Prefix sum `A[0] + … + A[i−1]` (i.e. `P[i]`), `i ∈ 0..=n`, O(log n).
    pub fn prefix(&self, i: usize) -> i128 {
        debug_assert!(i <= self.n);
        let mut acc = 0i128;
        let mut j = i;
        while j > 0 {
            acc += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        acc
    }

    /// `A[i]`, O(log n).
    fn value(&self, i: usize) -> i128 {
        self.range_sum(i, i)
    }

    /// Checks, without changing the tree, that `A[i] += delta` for every
    /// `(i, delta)` of `batch`, in order, keeps every index in range and
    /// every cell inside `i64` at every step — the check replay makes
    /// record by record, so a batch this admits replays. Deltas to one
    /// index accumulate in batch order. O(k) for `k` deltas while the
    /// running bound on `|A[i]|` plus the batch's `Σ|delta|` stays inside
    /// `i64`; past that, each touched cell is read once, in O(log n).
    ///
    /// # Errors
    ///
    /// [`SynopticError::IndexOutOfBounds`] for the first index outside the
    /// domain, else [`SynopticError::Overflow`] when a step leaves `i64`.
    pub(crate) fn check_batch(&self, batch: &[(usize, i64)]) -> Result<()> {
        if let Some(&(index, _)) = batch.iter().find(|&&(i, _)| i >= self.n) {
            return Err(SynopticError::IndexOutOfBounds { index, n: self.n });
        }
        let reach = batch.iter().fold(self.bound, |acc, &(_, delta)| {
            acc.saturating_add(delta.unsigned_abs() as u128)
        });
        if reach <= i64::MAX as u128 {
            return Ok(());
        }
        // Positions grouped by index, batch order within a group.
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_unstable_by_key(|&k| (batch[k].0, k));
        let mut cell: Option<(usize, i64)> = None;
        for k in order {
            let (i, delta) = batch[k];
            let current = match cell {
                Some((j, v)) if j == i => v,
                _ => i64::try_from(self.value(i)).map_err(|_| SynopticError::Overflow)?,
            };
            let next = current.checked_add(delta).ok_or(SynopticError::Overflow)?;
            cell = Some((i, next));
        }
        Ok(())
    }

    /// Inclusive range sum `s[a, b]`.
    pub fn range_sum(&self, a: usize, b: usize) -> i128 {
        self.prefix(b + 1) - self.prefix(a)
    }

    /// Total mass.
    pub fn total(&self) -> i128 {
        self.prefix(self.n)
    }

    /// Materializes the current frequencies in O(n log n).
    ///
    /// # Errors
    ///
    /// [`SynopticError::Overflow`] when a cell lies outside `i64`. The
    /// pool refuses every batch that would move a cell there, so its
    /// snapshots never see one.
    pub fn to_values(&self) -> Result<Vec<i64>> {
        (0..self.n)
            .map(|i| i64::try_from(self.value(i)).map_err(|_| SynopticError::Overflow))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_matches_naive_prefixes() {
        let vals = vec![3i64, -1, 4, 1, -5, 9, 2, 6, 5];
        let f = Fenwick::from_values(&vals);
        let mut acc = 0i128;
        for i in 0..=vals.len() {
            assert_eq!(f.prefix(i), acc, "prefix({i})");
            if i < vals.len() {
                acc += vals[i] as i128;
            }
        }
        assert_eq!(f.to_values().unwrap(), vals);
    }

    #[test]
    fn updates_are_reflected_everywhere() {
        let mut f = Fenwick::new(8);
        f.update(3, 10);
        f.update(0, 2);
        f.update(7, -4);
        assert_eq!(f.range_sum(0, 7), 8);
        assert_eq!(f.range_sum(3, 3), 10);
        assert_eq!(f.range_sum(4, 6), 0);
        f.update(3, -10);
        assert_eq!(f.range_sum(3, 3), 0);
    }

    #[test]
    fn random_update_query_interleave_matches_reference() {
        let n = 33;
        let mut f = Fenwick::new(n);
        let mut reference = vec![0i64; n];
        let mut s = 12345u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            s
        };
        for _ in 0..500 {
            let i = (next() % n as u64) as usize;
            let d = (next() % 41) as i64 - 20;
            f.update(i, d);
            reference[i] += d;
            let a = (next() % n as u64) as usize;
            let b = a + (next() as usize % (n - a));
            let want: i128 = reference[a..=b].iter().map(|&v| v as i128).sum();
            assert_eq!(f.range_sum(a, b), want);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn update_bounds_checked() {
        Fenwick::new(4).update(4, 1);
    }

    #[test]
    fn check_batch_refuses_a_step_outside_i64_and_changes_nothing() {
        // Inside the running bound: no point reads needed, all admitted.
        let f = Fenwick::from_values(&[-5, 9]);
        assert_eq!(
            f.check_batch(&[(0, 100 - i64::MAX), (1, -9), (1, 9)]),
            Ok(())
        );
        let mut f = Fenwick::from_values(&[0, 0, 0, i64::MAX - 1]);
        let before = f.tree.clone();
        assert_eq!(f.check_batch(&[(3, 5)]), Err(SynopticError::Overflow));
        assert_eq!(f.check_batch(&[(3, 1)]), Ok(()));
        // Deltas to one index accumulate in batch order, each step checked:
        // +1 then +1 leaves i64 at the second step, even though -1 follows.
        assert_eq!(
            f.check_batch(&[(3, 1), (0, 7), (3, 1), (3, -1)]),
            Err(SynopticError::Overflow)
        );
        assert_eq!(f.check_batch(&[(3, -1), (0, 7), (3, 2)]), Ok(()));
        assert_eq!(
            f.check_batch(&[(2, i64::MIN), (2, -1)]),
            Err(SynopticError::Overflow)
        );
        assert_eq!(
            f.check_batch(&[(3, 5), (4, 1)]),
            Err(SynopticError::IndexOutOfBounds { index: 4, n: 4 })
        );
        assert_eq!(f.tree, before);
        // A cell the tree holds past i64 fails the snapshot, not a cast.
        f.update(3, 5);
        assert_eq!(f.to_values(), Err(SynopticError::Overflow));
    }
}
