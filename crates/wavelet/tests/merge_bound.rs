//! Merge-equivalence property suite for the Haar merge operator
//! (coefficient union + re-truncation): seeded sweeps asserting the
//! merged synopsis stays within the documented re-truncation bound of the
//! untruncated union on every range, and that a full-budget merge *is*
//! the union (bound zero, agreement exact).

use synoptic_core::{Budget, RangeEstimator, RangeQuery};
use synoptic_wavelet::{merge_point_wavelets, PointWaveletSynopsis};

fn dataset(seed: u64, n: usize) -> Vec<i64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 401) as i64 - 200
        })
        .collect()
}

#[test]
fn merged_haar_stays_within_the_retruncation_bound_across_seeded_sweeps() {
    for seed in [5u64, 99, 1234] {
        for (n, seg_len) in [(64usize, 16usize), (96, 32), (128, 32)] {
            let vals = dataset(seed, n);
            let waves: Vec<PointWaveletSynopsis> = vals
                .chunks(seg_len)
                .map(|c| {
                    PointWaveletSynopsis::build_with_budget(c, seg_len, &Budget::unlimited())
                        .unwrap()
                })
                .collect();
            let refs: Vec<&PointWaveletSynopsis> = waves.iter().collect();
            let (union, _) = merge_point_wavelets(&refs, usize::MAX).unwrap();
            for b in [4usize, 8, 16] {
                let (merged, outcome) = merge_point_wavelets(&refs, b).unwrap();
                for q in RangeQuery::all(n) {
                    let err = (merged.estimate(q) - union.estimate(q)).abs();
                    let bound = outcome.retruncation_bound(q);
                    assert!(
                        err <= bound + 1e-6,
                        "seed={seed} n={n} b={b} q={q:?}: err {err} > bound {bound}"
                    );
                }
            }
        }
    }
}

#[test]
fn full_budget_merge_is_the_union_with_zero_bound() {
    let vals = dataset(77, 64);
    let waves: Vec<PointWaveletSynopsis> = vals
        .chunks(16)
        .map(|c| PointWaveletSynopsis::build_with_budget(c, 16, &Budget::unlimited()).unwrap())
        .collect();
    let refs: Vec<&PointWaveletSynopsis> = waves.iter().collect();
    let (merged, outcome) = merge_point_wavelets(&refs, usize::MAX).unwrap();
    assert!(outcome.dropped.is_empty());
    for q in RangeQuery::all(64) {
        assert_eq!(outcome.retruncation_bound(q), 0.0);
        // The union reconstructs the exact signal (every coefficient kept).
        let exact: i64 = vals[q.lo..=q.hi].iter().sum();
        assert!(
            (merged.estimate(q) - exact as f64).abs() < 1e-6,
            "q={q:?}: {} vs {exact}",
            merged.estimate(q)
        );
    }
}
