//! Randomized tests for the streaming-maintenance subsystem: after any
//! update sequence, maintained state must match a from-scratch rebuild.
//! Driven by the in-repo seeded [`Rng`] so they run fully offline.

use synoptic_core::rng::Rng;
use synoptic_core::sse::sse_brute;
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery};
use synoptic_stream::{Fenwick, StreamingHaar, StreamingRangeOptimal};
use synoptic_wavelet::RangeOptimalWavelet;

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
fn fenwick_matches_reference_after_any_script() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x31_000 + case);
        let (vals, ups) = rand_scenario(&mut rng);
        let mut f = Fenwick::from_values(&vals);
        let mut reference = vals.clone();
        for &(i, d) in &ups {
            f.update(i, d);
            reference[i] += d;
        }
        assert_eq!(f.to_values().unwrap(), reference, "case {case}");
        let ps = PrefixSums::from_values(&reference);
        for i in 0..=reference.len() {
            assert_eq!(f.prefix(i), ps.p(i), "case {case}: prefix {i}");
        }
    }
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

mod progressive_props {
    use synoptic_core::rng::Rng;
    use synoptic_core::{PrefixSums, RangeQuery};
    use synoptic_stream::progressive::{bounded_synopsis, ProgressiveQuery};

    const CASES: u64 = 48;

    /// For any data, query, and chunk schedule: every certified interval
    /// contains the truth and the final snapshot is exact.
    #[test]
    fn progressive_intervals_are_always_sound() {
        for case in 0..CASES {
            let mut rng = Rng::new(0x34_000 + case);
            let n = rng.usize_in(3, 24);
            let vals: Vec<i64> = (0..n).map(|_| rng.i64_in(0, 79)).collect();
            let a = ((rng.f64() * n as f64) as usize).min(n - 1);
            let b = ((rng.f64() * n as f64) as usize).min(n - 1);
            let chunk = rng.usize_in(1, 5);
            let q = RangeQuery {
                lo: a.min(b),
                hi: a.max(b),
            };
            let ps = PrefixSums::from_values(&vals);
            let h = bounded_synopsis(&vals, &ps, 3.min(n)).unwrap();
            let truth = ps.answer(q) as f64;
            let snaps = ProgressiveQuery::new(&vals, &h, q)
                .unwrap()
                .run_to_completion(chunk);
            for s in &snaps {
                assert!(
                    s.lo - 1e-9 <= truth && truth <= s.hi + 1e-9,
                    "case {case}: {s:?}"
                );
                assert!(
                    s.lo <= s.estimate + 1e-9 && s.estimate <= s.hi + 1e-9,
                    "case {case}"
                );
            }
            let last = snaps.last().unwrap();
            assert!(last.is_final(), "case {case}");
            assert!((last.estimate - truth).abs() < 1e-9, "case {case}");
            // Widths never grow.
            for w in snaps.windows(2) {
                assert!(
                    w[1].hi - w[1].lo <= w[0].hi - w[0].lo + 1e-9,
                    "case {case}: width grew: {:?} -> {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}
