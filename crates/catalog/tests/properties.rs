//! Randomized tests for the catalog subsystem: allocation optimality on
//! random curves, binary persistence round-trips on every synopsis variant,
//! and a corruption corpus asserting that damaged bytes are never loaded
//! silently. Driven by the in-repo seeded [`Rng`] so they run fully offline.

use synoptic_catalog::allocation::allocate_budget_greedy;
use synoptic_catalog::{
    allocate_budget, synopsis_from_bytes, synopsis_to_bytes, ColumnCurve, PersistentSynopsis,
};
use synoptic_core::rng::Rng;
use synoptic_core::{
    Bucketing, Budget, PrefixSums, RangeEstimator, RangeQuery, SynopticError, ValueHistogram,
};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_hist::sap1::build_sap1_with_budget;
use synoptic_wavelet::{PointWaveletSynopsis, RangeOptimalWavelet};

const CASES: u64 = 64;

/// Random (words, sse) curves: increasing words, decreasing-ish SSE.
fn rand_curve(rng: &mut Rng, name: &str) -> ColumnCurve {
    let steps = rng.usize_in(1, 5);
    let weight = rng.f64_in(0.1, 4.0);
    let mut points = Vec::new();
    let mut words = 0usize;
    let mut sse = 1000.0f64;
    for _ in 0..steps {
        words += rng.usize_in(1, 5);
        sse = (sse - rng.f64_in(0.0, 100.0)).max(0.0);
        points.push((words, sse));
    }
    ColumnCurve {
        name: name.to_string(),
        weight,
        points,
    }
}

fn rand_values(rng: &mut Rng) -> Vec<i64> {
    let n = rng.usize_in(4, 20);
    (0..n).map(|_| rng.i64_in(0, 119)).collect()
}

/// Every persistable variant built from the same random column.
fn all_variants(rng: &mut Rng, vals: &[i64], ps: &PrefixSums) -> Vec<PersistentSynopsis> {
    let n = vals.len();
    let b = rng.usize_in(1, 5).min(n);
    let mut starts = vec![0usize];
    for i in 1..n {
        if rng.bool() {
            starts.push(i);
        }
    }
    let bk = Bucketing::new(n, starts).unwrap();
    let vh = ValueHistogram::with_averages(bk, ps, "c").unwrap();
    let unlimited = Budget::unlimited();
    vec![
        PersistentSynopsis::from_naive(ps),
        PersistentSynopsis::from_value_histogram(&vh),
        PersistentSynopsis::from_sap0(&build_sap0_with_budget(ps, b, &unlimited).unwrap().0),
        PersistentSynopsis::from_sap1(&build_sap1_with_budget(ps, b, &unlimited).unwrap().0),
        PersistentSynopsis::from_wavelet_point(
            &PointWaveletSynopsis::build_with_budget(vals, b, &unlimited).unwrap(),
        ),
        PersistentSynopsis::from_wavelet_range(
            &RangeOptimalWavelet::build_with_budget(ps, b, &unlimited).unwrap(),
        ),
    ]
}

#[test]
fn dp_allocation_is_optimal_over_the_grid() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x51_000 + case);
        let a = rand_curve(&mut rng, "a");
        let b = rand_curve(&mut rng, "b");
        let budget = rng.usize_in(2, 24);
        let curves = [a.clone(), b.clone()];
        let Ok(dp) = allocate_budget(&curves, budget) else {
            // Budget below the minimum grid points — acceptable.
            continue;
        };
        assert!(dp.total_words <= budget, "case {case}");
        // Brute force over all grid pairs.
        let mut best = f64::INFINITY;
        for &(wa, sa) in &a.points {
            for &(wb, sb) in &b.points {
                if wa + wb <= budget {
                    best = best.min(a.weight * sa + b.weight * sb);
                }
            }
        }
        assert!(
            (dp.total_weighted_sse - best).abs() <= 1e-9 * (1.0 + best),
            "case {case}: dp {} vs brute {best}",
            dp.total_weighted_sse
        );
        // Reconstruction consistency: choices re-sum to the reported value.
        let resum: f64 = dp
            .choices
            .iter()
            .zip(&curves)
            .map(|(&(_, _, s), c)| c.weight * s)
            .sum();
        assert!(
            (resum - dp.total_weighted_sse).abs() <= 1e-9 * (1.0 + resum),
            "case {case}"
        );
    }
}

#[test]
fn greedy_never_beats_dp() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x52_000 + case);
        let a = rand_curve(&mut rng, "a");
        let b = rand_curve(&mut rng, "b");
        let budget = rng.usize_in(2, 24);
        let curves = [a, b];
        let (Ok(dp), Ok(gr)) = (
            allocate_budget(&curves, budget),
            allocate_budget_greedy(&curves, budget),
        ) else {
            continue;
        };
        assert!(
            dp.total_weighted_sse <= gr.total_weighted_sse + 1e-9,
            "case {case}"
        );
        assert!(gr.total_words <= budget, "case {case}");
    }
}

#[test]
fn every_variant_answers_identically_after_binary_round_trip() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x53_000 + case);
        let vals = rand_values(&mut rng);
        let n = vals.len();
        let ps = PrefixSums::from_values(&vals);
        for (vi, p) in all_variants(&mut rng, &vals, &ps).iter().enumerate() {
            let orig = p.load().unwrap();
            let bytes = synopsis_to_bytes(p);
            let back = synopsis_from_bytes(&bytes, "prop").unwrap();
            let loaded = back.load().unwrap();
            assert_eq!(
                p.storage_words(),
                back.storage_words(),
                "case {case} variant {vi}"
            );
            for q in RangeQuery::all(n) {
                let (x, y) = (orig.estimate(q), loaded.estimate(q));
                assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + x.abs()),
                    "case {case} variant {vi}: {q:?}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn sap_storage_accounting_matches_the_theorems() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x54_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let b = rng.usize_in(1, 6).min(vals.len());
        let (h0, _) = build_sap0_with_budget(&ps, b, &Budget::unlimited()).unwrap();
        let p0 = PersistentSynopsis::from_sap0(&h0);
        assert_eq!(
            p0.storage_words(),
            3 * h0.bucketing().num_buckets(),
            "case {case}"
        );
        let (h1, _) = build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
        let p1 = PersistentSynopsis::from_sap1(&h1);
        assert_eq!(
            p1.storage_words(),
            5 * h1.bucketing().num_buckets(),
            "case {case}"
        );
    }
}

/// Corruption is never silent: every truncation and every single-bit flip of
/// a serialized synopsis must fail to load with a corruption (or version)
/// error — never a wrong answer, never a panic.
#[test]
fn corruption_corpus_never_loads_silently() {
    for case in 0..CASES / 4 {
        let mut rng = Rng::new(0x55_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        for p in all_variants(&mut rng, &vals, &ps) {
            let bytes = synopsis_to_bytes(&p);
            // Every truncation, including the empty file.
            for len in 0..bytes.len() {
                let e = synopsis_from_bytes(&bytes[..len], "trunc").unwrap_err();
                assert!(
                    matches!(
                        e,
                        SynopticError::CorruptSynopsis { .. }
                            | SynopticError::UnsupportedVersion { .. }
                    ),
                    "case {case}: truncation to {len} gave {e:?}"
                );
            }
            // One random bit flip per byte position.
            for i in 0..bytes.len() {
                let mut dam = bytes.clone();
                dam[i] ^= 1 << rng.usize_in(0, 8);
                let e = synopsis_from_bytes(&dam, "flip").unwrap_err();
                assert!(
                    matches!(
                        e,
                        SynopticError::CorruptSynopsis { .. }
                            | SynopticError::UnsupportedVersion { .. }
                    ),
                    "case {case}: bit flip at byte {i} gave {e:?}"
                );
            }
        }
    }
}
