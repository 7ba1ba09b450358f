//! The paper assumes non-negative frequencies ("we assume the attribute
//! value is integral … all values of A are non-negative" in its bounds
//! arguments), but every construction here works for arbitrary `i64` data —
//! signed deltas arise naturally in difference/update workloads. These tests
//! pin that the optimality guarantees survive negative values.

use synoptic::core::sse::{sse_brute, sse_value_histogram};
use synoptic::hist::exhaustive::exhaustive_optimal;
use synoptic::hist::opta::{build_opt_a, OptAConfig};
use synoptic::hist::reopt::reoptimize_with_budget;
use synoptic::hist::sap0::build_sap0_with_sse;
use synoptic::hist::sap1::build_sap1_with_budget;
use synoptic::prelude::*;

fn signed_datasets() -> Vec<Vec<i64>> {
    vec![
        vec![-5, 3, -1, 7, -9, 2, 0, -4],
        vec![-100, -100, -100, 50, 50, 50],
        vec![0, -1, 1, -2, 2, -3, 3, -4, 4],
        vec![-7; 6],
    ]
}

#[test]
fn opt_a_unrounded_remains_globally_optimal_on_signed_data() {
    for vals in signed_datasets() {
        let ps = PrefixSums::from_values(&vals);
        let n = vals.len();
        for b in 1..=3.min(n) {
            let dp = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
            let (_, best) = exhaustive_optimal(n, b, |bk| {
                let h = ValueHistogram::with_averages(bk.clone(), &ps, "c").unwrap();
                sse_value_histogram(h.xprefix(), &ps)
            })
            .unwrap();
            assert!(
                dp.sse <= best + 1e-6 * (1.0 + best),
                "vals={vals:?} b={b}: {} vs {best}",
                dp.sse
            );
            assert!(
                (dp.dp_objective - dp.sse).abs() <= 1e-6 * (1.0 + dp.sse),
                "objective drift on signed data"
            );
        }
    }
}

#[test]
fn opt_a_rounded_mode_handles_signed_data() {
    for vals in signed_datasets() {
        let ps = PrefixSums::from_values(&vals);
        let r = build_opt_a(&ps, &OptAConfig::exact(2, RoundingMode::NearestInt)).unwrap();
        let brute = sse_brute(&r.histogram, &ps);
        assert!(
            (r.sse - brute).abs() <= 1e-6 * (1.0 + brute),
            "vals={vals:?}"
        );
        // Estimates stay integral even for negative sums.
        for q in RangeQuery::all(vals.len()) {
            let e = r.histogram.estimate(q);
            assert_eq!(e, e.round(), "{q:?}");
        }
    }
}

#[test]
fn sap_dps_remain_exact_on_signed_data() {
    for vals in signed_datasets() {
        let ps = PrefixSums::from_values(&vals);
        for b in 1..=3.min(vals.len()) {
            let (h0, obj0) = build_sap0_with_sse(&ps, b).unwrap();
            let brute0 = sse_brute(&h0, &ps);
            assert!(
                (obj0 - brute0).abs() <= 1e-6 * (1.0 + brute0),
                "SAP0 vals={vals:?} b={b}: {obj0} vs {brute0}"
            );
            let (h1, obj1) = build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
            let brute1 = sse_brute(&h1, &ps);
            assert!(
                (obj1 - brute1).abs() <= 1e-6 * (1.0 + brute1),
                "SAP1 vals={vals:?} b={b}"
            );
        }
    }
}

#[test]
fn reopt_still_never_hurts_on_signed_data() {
    for vals in signed_datasets() {
        let ps = PrefixSums::from_values(&vals);
        let b = 2.min(vals.len());
        let base = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
        let re = reoptimize_with_budget(base.histogram.bucketing(), &ps, "O", &Budget::unlimited())
            .unwrap();
        assert!(
            re.sse <= base.sse + 1e-6 * (1.0 + base.sse),
            "vals={vals:?}: {} vs {}",
            re.sse,
            base.sse
        );
    }
}

#[test]
fn wavelets_handle_signed_data() {
    use synoptic::wavelet::{PointWaveletSynopsis, RangeOptimalWavelet};
    for vals in signed_datasets() {
        let ps = PrefixSums::from_values(&vals);
        let nn = vals.len().next_power_of_two();
        let w = PointWaveletSynopsis::build_with_budget(&vals, nn, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &ps) < 1e-6, "full point budget exact");
        let nn2 = (vals.len() + 1).next_power_of_two();
        let w =
            RangeOptimalWavelet::build_with_budget(&ps, 2 * nn2 - 1, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &ps) < 1e-5, "full range budget exact");
    }
}

#[test]
fn streaming_handles_signed_updates_to_negative_territory() {
    use synoptic::wavelet::{RangeOptimalWavelet, StreamingRangeOptimal};
    let mut vals = vec![5i64, 5, 5, 5, 5, 5, 5, 5];
    let mut sr = StreamingRangeOptimal::new(&vals).unwrap();
    for (i, slot) in vals.iter_mut().enumerate() {
        let d = -((i as i64) + 3); // push several cells negative
        *slot += d;
        sr.update(i, d).unwrap();
    }
    assert!(vals.iter().any(|&v| v < 0));
    let ps = PrefixSums::from_values(&vals);
    let live = sr.snapshot(6);
    let scratch = RangeOptimalWavelet::build_with_budget(&ps, 6, &Budget::unlimited()).unwrap();
    for q in RangeQuery::all(8) {
        assert!(
            (live.estimate(q) - scratch.estimate(q)).abs() < 1e-6,
            "{q:?}"
        );
    }
}
