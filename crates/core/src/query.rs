//! Range queries over the attribute-value domain.

use crate::error::{Result, SynopticError};

/// An inclusive range `[lo, hi]` over 0-based value indices.
///
/// A *range-sum query* asks for `s[lo, hi] = Σ_{lo ≤ i ≤ hi} A[i]`. Point
/// (equality) queries are the special case `lo == hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RangeQuery {
    /// Lower endpoint (inclusive, 0-based).
    pub lo: usize,
    /// Upper endpoint (inclusive, 0-based).
    pub hi: usize,
}

impl RangeQuery {
    /// Creates a query, validating `lo ≤ hi`.
    pub fn new(lo: usize, hi: usize) -> Result<Self> {
        if lo > hi {
            return Err(SynopticError::InvalidRange { lo, hi });
        }
        Ok(Self { lo, hi })
    }

    /// Creates a point (equality) query at index `i`.
    pub fn point(i: usize) -> Self {
        Self { lo: i, hi: i }
    }

    /// Number of indices covered by the query.
    pub fn len(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// A query always covers at least one index; provided for clippy-idiomatic
    /// pairing with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Validates the query against an array of length `n`.
    pub fn check_bounds(&self, n: usize) -> Result<()> {
        if self.hi >= n {
            Err(SynopticError::IndexOutOfBounds { index: self.hi, n })
        } else {
            Ok(())
        }
    }

    /// Iterator over every range query on a domain of size `n`, in
    /// lexicographic `(lo, hi)` order — `n(n+1)/2` queries in total.
    pub fn all(n: usize) -> impl Iterator<Item = RangeQuery> {
        (0..n).flat_map(move |lo| (lo..n).map(move |hi| RangeQuery { lo, hi }))
    }

    /// Total number of distinct range queries on a domain of size `n`.
    pub fn count_all(n: usize) -> u64 {
        let n = n as u64;
        n * (n + 1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_order() {
        assert!(RangeQuery::new(2, 2).is_ok());
        assert!(RangeQuery::new(0, 5).is_ok());
        assert_eq!(
            RangeQuery::new(3, 1),
            Err(SynopticError::InvalidRange { lo: 3, hi: 1 })
        );
    }

    #[test]
    fn point_constructor() {
        assert_eq!(RangeQuery::point(4), RangeQuery { lo: 4, hi: 4 });
    }

    #[test]
    fn len_is_inclusive() {
        assert_eq!(RangeQuery::point(3).len(), 1);
        assert_eq!(RangeQuery { lo: 2, hi: 5 }.len(), 4);
        assert!(!RangeQuery::point(0).is_empty());
    }

    #[test]
    fn bounds_checking() {
        let q = RangeQuery { lo: 1, hi: 4 };
        assert!(q.check_bounds(5).is_ok());
        assert_eq!(
            q.check_bounds(3),
            Err(SynopticError::IndexOutOfBounds { index: 4, n: 3 })
        );
    }

    #[test]
    fn all_enumerates_every_range_once() {
        let n = 6;
        let all: Vec<_> = RangeQuery::all(n).collect();
        assert_eq!(all.len() as u64, RangeQuery::count_all(n));
        // Strictly increasing lexicographic order implies no duplicates.
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
        for q in &all {
            assert!(q.lo <= q.hi && q.hi < n);
        }
    }

    #[test]
    fn count_all_matches_formula() {
        assert_eq!(RangeQuery::count_all(0), 0);
        assert_eq!(RangeQuery::count_all(1), 1);
        assert_eq!(RangeQuery::count_all(127), 127 * 128 / 2);
    }
}
