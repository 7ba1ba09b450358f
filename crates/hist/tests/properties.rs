//! Randomized tests for the construction algorithms: the DPs are checked
//! against exhaustive enumeration and against each other on random inputs,
//! driven by the in-repo seeded [`Rng`] so they run fully offline.

use synoptic_core::rng::Rng;
use synoptic_core::sse::{sse_brute, sse_value_histogram};
use synoptic_core::{
    Budget, OptAHistogram, PrefixSums, RangeEstimator, RoundingMode, Sap0Histogram, Sap1Histogram,
    ValueHistogram,
};
use synoptic_hist::exhaustive::exhaustive_optimal;
use synoptic_hist::opta::{build_opt_a, OptAConfig};
use synoptic_hist::opta_warmup::build_opt_a_warmup;
use synoptic_hist::reopt::reoptimize_with_budget;
use synoptic_hist::sap0::build_sap0_with_sse;
use synoptic_hist::sap1::build_sap1_with_budget;

const CASES: u64 = 32;

fn rand_small(rng: &mut Rng) -> Vec<i64> {
    let n = rng.usize_in(2, 9);
    (0..n).map(|_| rng.i64_in(0, 59)).collect()
}

fn rand_medium(rng: &mut Rng) -> Vec<i64> {
    let n = rng.usize_in(4, 20);
    (0..n).map(|_| rng.i64_in(0, 149)).collect()
}

/// A random bucket budget in `1..cap` clamped to `n`.
fn rand_budget(rng: &mut Rng, cap: usize, n: usize) -> usize {
    rng.usize_in(1, cap).min(n)
}

#[test]
fn opta_unrounded_dp_is_globally_optimal() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x11_000 + case);
        let vals = rand_small(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 4, n);
        let ps = PrefixSums::from_values(&vals);
        let dp = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
        let (_, best) = exhaustive_optimal(n, b, |bk| {
            let vh = ValueHistogram::with_averages(bk.clone(), &ps, "c").unwrap();
            sse_value_histogram(vh.xprefix(), &ps)
        })
        .unwrap();
        assert!(
            dp.sse <= best + 1e-6 * (1.0 + best),
            "case {case}: DP {} vs exhaustive {best}",
            dp.sse
        );
    }
}

#[test]
fn opta_rounded_dp_is_globally_optimal() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x12_000 + case);
        let vals = rand_small(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 4, n);
        let ps = PrefixSums::from_values(&vals);
        let dp = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::NearestInt)).unwrap();
        let (_, best) = exhaustive_optimal(n, b, |bk| {
            let h = OptAHistogram::new(bk.clone(), &ps, RoundingMode::NearestInt).unwrap();
            sse_brute(&h, &ps)
        })
        .unwrap();
        assert!(
            dp.sse <= best + 1e-6 * (1.0 + best),
            "case {case}: DP {} vs exhaustive {best}",
            dp.sse
        );
    }
}

#[test]
fn warmup_table_and_hull_dp_agree() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x13_000 + case);
        let vals = rand_small(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 4, n);
        let ps = PrefixSums::from_values(&vals);
        let w = build_opt_a_warmup(&ps, b).unwrap();
        let f = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::NearestInt)).unwrap();
        assert!(
            (w.sse - f.sse).abs() <= 1e-6 * (1.0 + f.sse),
            "case {case}: warmup {} vs hull {}",
            w.sse,
            f.sse
        );
    }
}

#[test]
fn sap0_dp_is_globally_optimal() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x14_000 + case);
        let vals = rand_small(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 4, n);
        let ps = PrefixSums::from_values(&vals);
        let (h, _) = build_sap0_with_sse(&ps, b).unwrap();
        let got = sse_brute(&h, &ps);
        let (_, best) = exhaustive_optimal(n, b, |bk| {
            sse_brute(
                &Sap0Histogram::optimal_values(bk.clone(), &ps).unwrap(),
                &ps,
            )
        })
        .unwrap();
        assert!(got <= best + 1e-6 * (1.0 + best), "case {case}");
    }
}

#[test]
fn sap1_dp_is_globally_optimal() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x15_000 + case);
        let vals = rand_small(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 4, n);
        let ps = PrefixSums::from_values(&vals);
        let (h, _) = build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
        let got = sse_brute(&h, &ps);
        let (_, best) = exhaustive_optimal(n, b, |bk| {
            sse_brute(
                &Sap1Histogram::optimal_values(bk.clone(), &ps).unwrap(),
                &ps,
            )
        })
        .unwrap();
        assert!(got <= best + 1e-6 * (1.0 + best), "case {case}");
    }
}

#[test]
fn dp_objectives_equal_measured_sse() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x16_000 + case);
        let vals = rand_medium(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 6, n);
        let ps = PrefixSums::from_values(&vals);
        let r = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
        assert!(
            (r.dp_objective - r.sse).abs() <= 1e-6 * (1.0 + r.sse),
            "case {case}"
        );
        let (h0, obj0) = build_sap0_with_sse(&ps, b).unwrap();
        assert!(
            (obj0 - sse_brute(&h0, &ps)).abs() <= 1e-6 * (1.0 + obj0),
            "case {case}"
        );
        let (h1, obj1) = build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
        assert!(
            (obj1 - sse_brute(&h1, &ps)).abs() <= 1e-6 * (1.0 + obj1),
            "case {case}"
        );
    }
}

#[test]
fn sse_is_monotone_in_bucket_budget() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x17_000 + case);
        let vals = rand_medium(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let n = vals.len();
        let mut prev = f64::INFINITY;
        for b in 1..=n.min(6) {
            let r = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
            assert!(
                r.sse <= prev + 1e-6,
                "case {case}: b={b}: {} > {prev}",
                r.sse
            );
            prev = r.sse;
        }
    }
}

#[test]
fn reopt_never_hurts_and_is_stationary() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x18_000 + case);
        let vals = rand_medium(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 5, n);
        let ps = PrefixSums::from_values(&vals);
        let base = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
        let re = reoptimize_with_budget(base.histogram.bucketing(), &ps, "O", &Budget::unlimited())
            .unwrap();
        assert!(
            re.sse <= base.sse + 1e-6 * (1.0 + base.sse),
            "case {case}: reopt {} vs base {}",
            re.sse,
            base.sse
        );
        // Convexity: nudging any value up or down cannot help.
        let bk = base.histogram.bucketing().clone();
        for t in 0..bk.num_buckets() {
            for delta in [-0.5, 0.5] {
                let mut v = re.histogram.values().to_vec();
                v[t] += delta;
                let h = ValueHistogram::new(bk.clone(), v, "p").unwrap();
                let s = sse_value_histogram(h.xprefix(), &ps);
                assert!(s >= re.sse - 1e-6 * (1.0 + re.sse), "case {case}");
            }
        }
    }
}

#[test]
fn opta_beats_every_fixed_average_histogram() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x19_000 + case);
        // Optimality from the other side: no single random bucketing with
        // average values may beat the DP optimum.
        let vals = rand_small(&mut rng);
        let n = vals.len();
        let b = rand_budget(&mut rng, 4, n);
        let ps = PrefixSums::from_values(&vals);
        let dp = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
        // Equi-width candidate with the same bucket count.
        let bk = synoptic_core::Bucketing::equi_width(n, b).unwrap();
        let cand = ValueHistogram::with_averages(bk, &ps, "eq").unwrap();
        let cand_sse = sse_value_histogram(cand.xprefix(), &ps);
        assert!(dp.sse <= cand_sse + 1e-6 * (1.0 + cand_sse), "case {case}");
    }
}

#[test]
fn all_histograms_answer_whole_domain_queries_well() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x1A_000 + case);
        // The whole-domain query is answered exactly by every average-based
        // histogram (bucket totals are exact).
        let vals = rand_medium(&mut rng);
        let n = vals.len();
        let ps = PrefixSums::from_values(&vals);
        let total = ps.total() as f64;
        let q = synoptic_core::RangeQuery { lo: 0, hi: n - 1 };
        let b = 3.min(n);
        let opta = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
        assert!(
            (opta.histogram.estimate(q) - total).abs() < 1e-6,
            "case {case}"
        );
        let (h0, _) = build_sap0_with_sse(&ps, b).unwrap();
        // SAP0 inter answers via suffix/prefix means — not exact in general,
        // but finite and sane.
        assert!(h0.estimate(q).is_finite(), "case {case}");
    }
}
