//! Query-workload generators.
//!
//! The paper's objective sums over *all* `n(n+1)/2` ranges, which
//! [`RangeQuery::all`] enumerates; this module adds uniformly random range
//! workloads for the selectivity-estimation example.

use synoptic_core::rng::Rng;
use synoptic_core::RangeQuery;

/// `count` uniformly random range queries: endpoints drawn uniformly from
/// the `n(n+1)/2` possible ranges.
pub fn random_ranges(n: usize, count: usize, seed: u64) -> Vec<RangeQuery> {
    assert!(n > 0);
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            // Uniform over unordered pairs {x ≤ y}: sample two endpoints and
            // order them, rejecting nothing (each unordered pair with x < y
            // has probability 2/n², pairs with x = y probability 1/n² — the
            // standard "uniform random range" used in selectivity papers).
            let a = rng.usize_in(0, n);
            let b = rng.usize_in(0, n);
            RangeQuery {
                lo: a.min(b),
                hi: a.max(b),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_ranges_are_valid_and_deterministic() {
        let qs = random_ranges(10, 100, 5);
        assert_eq!(qs.len(), 100);
        for q in &qs {
            assert!(q.lo <= q.hi && q.hi < 10);
        }
        assert_eq!(qs, random_ranges(10, 100, 5));
        assert_ne!(qs, random_ranges(10, 100, 6));
    }

    #[test]
    fn random_ranges_cover_the_domain() {
        let qs = random_ranges(4, 2000, 9);
        // Every one of the 10 ranges should appear with ~200 expected hits.
        for want in RangeQuery::all(4) {
            assert!(qs.contains(&want), "range {want:?} never sampled");
        }
    }
}
