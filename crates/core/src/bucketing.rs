//! Contiguous bucket boundaries shared by every histogram representation.

use crate::error::{Result, SynopticError};

/// A partition of the index domain `0..n` into `B` contiguous, non-empty
/// buckets.
///
/// Stored as the sorted vector of bucket *start* indices
/// `starts = [0 = s₀ < s₁ < … < s_{B−1} < n]`; bucket `i` covers the
/// inclusive index range `[starts[i], starts[i+1] − 1]` (the last bucket ends
/// at `n − 1`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bucketing {
    n: usize,
    starts: Vec<usize>,
}

impl Bucketing {
    /// Creates a bucketing from bucket start indices over a domain of size
    /// `n`. Validates `starts[0] == 0`, strict monotonicity and bounds.
    pub fn new(n: usize, starts: Vec<usize>) -> Result<Self> {
        if n == 0 {
            return Err(SynopticError::EmptyInput);
        }
        if starts.first() != Some(&0) {
            return Err(SynopticError::InvalidBoundaries(
                "first bucket must start at index 0".into(),
            ));
        }
        for w in starts.windows(2) {
            if w[0] >= w[1] {
                return Err(SynopticError::InvalidBoundaries(format!(
                    "starts must be strictly increasing, got {} then {}",
                    w[0], w[1]
                )));
            }
        }
        if let Some(&last) = starts.last() {
            if last >= n {
                return Err(SynopticError::InvalidBoundaries(format!(
                    "bucket start {last} out of range for n={n}"
                )));
            }
        }
        Ok(Self { n, starts })
    }

    /// A single bucket covering the entire domain.
    pub fn single(n: usize) -> Result<Self> {
        Self::new(n, vec![0])
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of buckets `B`.
    pub fn num_buckets(&self) -> usize {
        self.starts.len()
    }

    /// Start index (inclusive) of bucket `b`.
    pub fn left(&self, b: usize) -> usize {
        self.starts[b]
    }

    /// End index (inclusive) of bucket `b`.
    pub fn right(&self, b: usize) -> usize {
        if b + 1 < self.starts.len() {
            self.starts[b + 1] - 1
        } else {
            self.n - 1
        }
    }

    /// Width of bucket `b`.
    pub fn len(&self, b: usize) -> usize {
        self.right(b) - self.left(b) + 1
    }

    /// Buckets are never empty; pairing for [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the bucket containing position `i` (binary search, O(log B)).
    pub fn bucket_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        match self.starts.binary_search(&i) {
            Ok(b) => b,
            Err(ins) => ins - 1,
        }
    }

    /// Dense position → bucket map, for O(1) lookups in hot loops.
    pub fn position_map(&self) -> Vec<u32> {
        let mut map = vec![0u32; self.n];
        for b in 0..self.num_buckets() {
            for slot in &mut map[self.left(b)..=self.right(b)] {
                *slot = b as u32;
            }
        }
        map
    }

    /// Iterator over `(left, right)` inclusive index pairs of each bucket.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_buckets()).map(move |b| (self.left(b), self.right(b)))
    }

    /// The bucket start indices.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// An equi-width bucketing with `buckets` buckets (widths differ by at
    /// most one).
    pub fn equi_width(n: usize, buckets: usize) -> Result<Self> {
        if buckets == 0 || buckets > n {
            return Err(SynopticError::InvalidBucketCount { buckets, n });
        }
        let base = n / buckets;
        let extra = n % buckets;
        let mut starts = Vec::with_capacity(buckets);
        let mut pos = 0usize;
        for b in 0..buckets {
            starts.push(pos);
            pos += base + usize::from(b < extra);
        }
        Self::new(n, starts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Bucketing::new(0, vec![0]).is_err());
        assert!(Bucketing::new(5, vec![1, 3]).is_err()); // must start at 0
        assert!(Bucketing::new(5, vec![0, 3, 3]).is_err()); // strict
        assert!(Bucketing::new(5, vec![0, 5]).is_err()); // out of range
        assert!(Bucketing::new(5, vec![0, 2, 4]).is_ok());
        assert!(Bucketing::new(5, vec![]).is_err());
    }

    #[test]
    fn geometry() {
        let b = Bucketing::new(6, vec![0, 2, 4]).unwrap();
        assert_eq!(b.num_buckets(), 3);
        assert_eq!((b.left(0), b.right(0), b.len(0)), (0, 1, 2));
        assert_eq!((b.left(1), b.right(1), b.len(1)), (2, 3, 2));
        assert_eq!((b.left(2), b.right(2), b.len(2)), (4, 5, 2));
        assert!(!b.is_empty());
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn bucket_of_agrees_with_position_map() {
        let b = Bucketing::new(10, vec![0, 1, 5, 9]).unwrap();
        let map = b.position_map();
        for (i, &m) in map.iter().enumerate() {
            assert_eq!(b.bucket_of(i) as u32, m, "at {i}");
        }
        assert_eq!(b.bucket_of(0), 0);
        assert_eq!(b.bucket_of(4), 1);
        assert_eq!(b.bucket_of(5), 2);
        assert_eq!(b.bucket_of(9), 3);
    }

    #[test]
    fn single_bucket() {
        let b = Bucketing::single(4).unwrap();
        assert_eq!(b.num_buckets(), 1);
        assert_eq!((b.left(0), b.right(0)), (0, 3));
    }

    #[test]
    fn equi_width_covers_domain_with_balanced_widths() {
        for n in 1..30usize {
            for buckets in 1..=n {
                let b = Bucketing::equi_width(n, buckets).unwrap();
                assert_eq!(b.num_buckets(), buckets);
                let total: usize = (0..buckets).map(|i| b.len(i)).sum();
                assert_eq!(total, n);
                let min = (0..buckets).map(|i| b.len(i)).min().unwrap();
                let max = (0..buckets).map(|i| b.len(i)).max().unwrap();
                assert!(max - min <= 1);
            }
        }
        assert!(Bucketing::equi_width(3, 0).is_err());
        assert!(Bucketing::equi_width(3, 4).is_err());
    }
}
