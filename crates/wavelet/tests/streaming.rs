//! Randomized tests for the streaming Haar transforms: after any update
//! sequence, the maintained transforms must match a from-scratch rebuild.
//! Driven by the in-repo seeded [`Rng`] so they run fully offline.

use synoptic_core::rng::Rng;
use synoptic_core::sse::sse_brute;
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery};
use synoptic_wavelet::{RangeOptimalWavelet, StreamingHaar, StreamingRangeOptimal};

const CASES: u64 = 48;

/// A starting array plus a bounded update script.
fn rand_scenario(rng: &mut Rng) -> (Vec<i64>, Vec<(usize, i64)>) {
    let n = rng.usize_in(2, 20);
    let vals: Vec<i64> = (0..n).map(|_| rng.i64_in(0, 59)).collect();
    let m = rng.usize_in(0, 60);
    let ups: Vec<(usize, i64)> = (0..m)
        .map(|_| (rng.usize_in(0, n), rng.i64_in(-15, 29)))
        .collect();
    (vals, ups)
}

#[test]
fn streaming_haar_equals_rebuild() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x32_000 + case);
        let (vals, ups) = rand_scenario(&mut rng);
        let mut sh = StreamingHaar::new(&vals).unwrap();
        let mut reference = vals.clone();
        for &(i, d) in &ups {
            sh.update(i, d).unwrap();
            reference[i] += d;
        }
        let fresh = StreamingHaar::new(&reference).unwrap();
        for (a, b) in sh.dense().iter().zip(fresh.dense()) {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "case {case}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn streaming_range_optimal_snapshot_equals_rebuild() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x33_000 + case);
        let (vals, ups) = rand_scenario(&mut rng);
        let mut sr = StreamingRangeOptimal::new(&vals).unwrap();
        let mut reference = vals.clone();
        for &(i, d) in &ups {
            sr.update(i, d).unwrap();
            reference[i] += d;
        }
        let ps = PrefixSums::from_values(&reference);
        let b = 6;
        let live = sr.snapshot(b);
        let scratch = RangeOptimalWavelet::build_with_budget(&ps, b, &Budget::unlimited()).unwrap();
        // Top-b selection can tie between coefficient sets of equal priority,
        // so the snapshots need not agree pointwise — but both must reach the
        // same optimal value of the objective they minimize (the virtual
        // matrix error), and the live snapshot must answer sanely.
        let (ve_l, ve_s) = (live.virtual_matrix_error(), scratch.virtual_matrix_error());
        assert!(
            (ve_l - ve_s).abs() <= 1e-6 * (1.0 + ve_s.abs()),
            "case {case}: objective {ve_l} vs {ve_s}"
        );
        assert!(sse_brute(&live, &ps).is_finite(), "case {case}");
        for q in RangeQuery::all(reference.len()) {
            assert!(live.estimate(q).is_finite(), "case {case}: {q:?}");
        }
    }
}
