//! The attribute-value distribution and its exact prefix sums.

use crate::error::{Result, SynopticError};
use crate::query::RangeQuery;

/// An attribute-value distribution: `A[i]` is the number of records whose
/// attribute equals the `i`-th domain value.
///
/// The paper assumes non-negative integral frequencies; this type accepts any
/// `i64` values (the construction algorithms remain correct), but the
/// pseudo-polynomial bounds of the paper are stated for non-negative data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataArray {
    values: Vec<i64>,
}

impl DataArray {
    /// Wraps a frequency vector. Fails on empty input.
    pub fn new(values: Vec<i64>) -> Result<Self> {
        if values.is_empty() {
            return Err(SynopticError::EmptyInput);
        }
        Ok(Self { values })
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// The raw frequencies.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Frequency at index `i`.
    pub fn get(&self, i: usize) -> i64 {
        self.values[i]
    }

    /// Whether every frequency is non-negative (the paper's setting).
    pub fn is_non_negative(&self) -> bool {
        self.values.iter().all(|&v| v >= 0)
    }

    /// Total mass `s[0, n−1]` as `i128`.
    pub fn total(&self) -> i128 {
        self.values.iter().map(|&v| v as i128).sum()
    }

    /// Computes the exact prefix sums of this array.
    pub fn prefix_sums(&self) -> PrefixSums {
        PrefixSums::from_values(&self.values)
    }

    /// Consumes the array, returning the underlying vector.
    pub fn into_values(self) -> Vec<i64> {
        self.values
    }
}

impl TryFrom<Vec<i64>> for DataArray {
    type Error = SynopticError;
    fn try_from(values: Vec<i64>) -> Result<Self> {
        Self::new(values)
    }
}

/// Exact prefix sums `P[0..=n]` with `P[0] = 0` and
/// `P[i] = A[0] + … + A[i−1]`, held as `i128` so that range sums of any
/// realistic dataset are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSums {
    p: Vec<i128>,
}

impl PrefixSums {
    /// Builds prefix sums from raw frequencies.
    pub fn from_values(values: &[i64]) -> Self {
        let mut p = Vec::with_capacity(values.len() + 1);
        p.push(0i128);
        let mut acc = 0i128;
        for &v in values {
            acc += v as i128;
            p.push(acc);
        }
        Self { p }
    }

    /// Domain size `n` (the underlying array length).
    pub fn n(&self) -> usize {
        self.p.len() - 1
    }

    /// `P[i]` for `i ∈ 0..=n`.
    pub fn p(&self, i: usize) -> i128 {
        self.p[i]
    }

    /// The full prefix-sum table `P[0..=n]`.
    pub fn table(&self) -> &[i128] {
        &self.p
    }

    /// Exact range sum `s[a,b] = Σ_{a≤i≤b} A[i]` for a 0-based inclusive
    /// range.
    pub fn range_sum(&self, a: usize, b: usize) -> i128 {
        debug_assert!(a <= b && b + 1 < self.p.len() + 1);
        self.p[b + 1] - self.p[a]
    }

    /// Exact answer to a [`RangeQuery`].
    pub fn answer(&self, q: RangeQuery) -> i128 {
        self.range_sum(q.lo, q.hi)
    }

    /// Total mass `s[0, n−1]`.
    pub fn total(&self) -> i128 {
        *self.p.last().expect("prefix table is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(DataArray::new(vec![]), Err(SynopticError::EmptyInput));
    }

    #[test]
    fn basic_accessors() {
        let a = DataArray::new(vec![1, 3, 5, 11]).unwrap();
        assert_eq!(a.n(), 4);
        assert_eq!(a.get(2), 5);
        assert_eq!(a.values(), &[1, 3, 5, 11]);
        assert_eq!(a.total(), 20);
        assert!(a.is_non_negative());
        let b = DataArray::new(vec![1, -2]).unwrap();
        assert!(!b.is_non_negative());
    }

    #[test]
    fn try_from_vec() {
        let a: DataArray = vec![2, 4].try_into().unwrap();
        assert_eq!(a.n(), 2);
        let err: std::result::Result<DataArray, _> = Vec::<i64>::new().try_into();
        assert!(err.is_err());
    }

    #[test]
    fn prefix_sums_match_naive() {
        let vals = vec![1i64, 3, 5, 11, 12, 13];
        let ps = PrefixSums::from_values(&vals);
        assert_eq!(ps.n(), 6);
        assert_eq!(ps.p(0), 0);
        for i in 1..=6 {
            let naive: i128 = vals[..i].iter().map(|&v| v as i128).sum();
            assert_eq!(ps.p(i), naive);
        }
        for a in 0..6 {
            for b in a..6 {
                let naive: i128 = vals[a..=b].iter().map(|&v| v as i128).sum();
                assert_eq!(ps.range_sum(a, b), naive);
                assert_eq!(ps.answer(RangeQuery { lo: a, hi: b }), naive);
            }
        }
        assert_eq!(ps.total(), 45);
    }

    #[test]
    fn negative_values_supported() {
        let ps = PrefixSums::from_values(&[-5, 3, -1]);
        assert_eq!(ps.range_sum(0, 2), -3);
        assert_eq!(ps.range_sum(0, 0), -5);
    }

    #[test]
    fn large_values_do_not_overflow() {
        let vals = vec![i64::MAX; 4];
        let ps = PrefixSums::from_values(&vals);
        assert_eq!(ps.total(), 4 * (i64::MAX as i128));
    }
}
