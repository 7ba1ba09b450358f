//! End-to-end integration tests spanning every crate: generate a dataset,
//! build every synopsis family, verify the paper's qualitative orderings and
//! the internal consistency of the whole pipeline.

use synoptic::core::sse::{mse_from_sse, sse_brute};
use synoptic::data::zipf::{paper_dataset, ZipfConfig};
use synoptic::eval::methods::{exact_sse, MethodSpec};
use synoptic::prelude::*;

fn dataset(n: usize) -> (DataArray, PrefixSums) {
    let d = paper_dataset(&ZipfConfig {
        n,
        ..ZipfConfig::default()
    });
    let ps = d.prefix_sums();
    (d, ps)
}

#[test]
fn every_method_builds_and_answers_consistently() {
    let (d, ps) = dataset(48);
    for m in MethodSpec::all() {
        let est = m.build_at_budget(d.values(), &ps, 16).unwrap();
        assert_eq!(est.n(), 48, "{}", m.name());
        // Spot-check: every estimate is finite and the all-ranges SSE agrees
        // between two independent evaluator paths for value-histograms.
        let sse = exact_sse(est.as_ref(), &ps);
        assert!(sse.is_finite() && sse >= 0.0, "{}", m.name());
        for q in [
            RangeQuery::point(0),
            RangeQuery::point(47),
            RangeQuery::new(3, 40).unwrap(),
            RangeQuery::new(0, 47).unwrap(),
        ] {
            assert!(est.estimate(q).is_finite(), "{} at {q:?}", m.name());
        }
    }
}

#[test]
fn paper_ordering_holds_on_the_paper_dataset() {
    // The qualitative ordering of Figure 1 at a mid-range budget:
    // NAIVE ≫ wavelet ≫ {SAP0} > POINT-OPT ≥ {A0, OPT-A}, OPT-A minimal
    // among the average-valued histograms.
    let (d, ps) = dataset(127);
    let budget = 32;
    let sse = |m: MethodSpec| -> f64 {
        exact_sse(
            m.build_at_budget(d.values(), &ps, budget).unwrap().as_ref(),
            &ps,
        )
    };
    let naive = sse(MethodSpec::Naive);
    let opta = sse(MethodSpec::OptA);
    let a0 = sse(MethodSpec::A0);
    let point = sse(MethodSpec::PointOpt);
    let sap0 = sse(MethodSpec::Sap0);
    let topbb = sse(MethodSpec::WaveletRange);

    assert!(opta <= a0 * (1.0 + 1e-9) + 1e-9, "OPT-A ≤ A0");
    assert!(opta < point, "OPT-A beats POINT-OPT: {opta} vs {point}");
    assert!(opta < sap0, "OPT-A beats SAP0 per word");
    assert!(point < naive && sap0 < naive, "everything beats NAIVE");
    assert!(topbb < naive, "even wavelets beat NAIVE");
    assert!(opta < topbb, "histograms beat wavelets on this workload");
}

#[test]
fn optimal_methods_are_monotone_in_storage() {
    let (d, ps) = dataset(64);
    for m in [MethodSpec::OptA, MethodSpec::Sap0, MethodSpec::Sap1] {
        let mut prev = f64::INFINITY;
        for budget in [10, 15, 20, 30, 40] {
            let est = m.build_at_budget(d.values(), &ps, budget).unwrap();
            let sse = exact_sse(est.as_ref(), &ps);
            assert!(
                sse <= prev * (1.0 + 1e-9) + 1e-9,
                "{} at {budget}: {sse} > {prev}",
                m.name()
            );
            prev = sse;
        }
    }
}

#[test]
fn reopt_improves_or_matches_every_base_histogram() {
    use synoptic::hist::builder::{build_with_budget, HistogramMethod};
    use synoptic::hist::reopt::reoptimize_with_budget;
    let (d, ps) = dataset(64);
    for (base, words) in [
        (HistogramMethod::OptA, 24),
        (HistogramMethod::A0, 24),
        (HistogramMethod::EquiDepth, 24),
        (HistogramMethod::MaxDiff, 24),
    ] {
        let est = build_with_budget(base, d.values(), &ps, words, &Budget::unlimited()).unwrap();
        let base_sse = sse_brute(&est, &ps);
        // Re-derive boundaries via the same construction to reoptimize.
        let bk = match base {
            HistogramMethod::OptA => {
                use synoptic::hist::opta::{build_opt_a, OptAConfig};
                build_opt_a(&ps, &OptAConfig::exact(words / 2, RoundingMode::None))
                    .unwrap()
                    .histogram
                    .bucketing()
                    .clone()
            }
            HistogramMethod::A0 => synoptic::hist::a0::build_a0(&ps, words / 2)
                .unwrap()
                .bucketing()
                .clone(),
            HistogramMethod::EquiDepth => {
                synoptic::hist::heuristics::equi_depth_bucketing(&ps, words / 2).unwrap()
            }
            _ => synoptic::hist::heuristics::max_diff_bucketing(d.values(), words / 2).unwrap(),
        };
        let re = reoptimize_with_budget(&bk, &ps, base.name(), &Budget::unlimited()).unwrap();
        assert!(
            re.sse <= base_sse * (1.0 + 1e-9) + 1e-6,
            "{}: reopt {} vs base {base_sse}",
            base.name(),
            re.sse
        );
    }
}

#[test]
fn local_search_recovers_near_optimal_boundaries_from_heuristics() {
    use synoptic::core::sse::sse_value_histogram;
    use synoptic::hist::local_search::local_search_with_budget;
    use synoptic::hist::opta::{build_opt_a, OptAConfig};
    let (_, ps) = dataset(48);
    let b = 6;
    let opt = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
    let start = Bucketing::equi_width(48, b).unwrap();
    let cost = |bk: &Bucketing| {
        let h = ValueHistogram::with_averages(bk.clone(), &ps, "c").unwrap();
        sse_value_histogram(h.xprefix(), &ps)
    };
    let start_cost = cost(&start);
    let r = local_search_with_budget(start, cost, 100, &Budget::unlimited()).unwrap();
    assert!(r.cost <= start_cost);
    assert!(
        r.cost <= start_cost.max(opt.sse * 3.0),
        "local search ({}) should land within 3× of optimal ({}) from equi-width ({start_cost})",
        r.cost,
        opt.sse
    );
    assert!(r.cost >= opt.sse - 1e-6, "cannot beat the DP optimum");
}

#[test]
fn figure1_and_claims_run_end_to_end_small() {
    use synoptic::eval::claims::run_all_claims;
    use synoptic::eval::figure1::{run_figure1, Fig1Config};
    let cfg = Fig1Config {
        dataset: ZipfConfig {
            n: 40,
            ..ZipfConfig::default()
        },
        budgets: vec![10, 16, 24],
        methods: MethodSpec::paper_figure1(),
    };
    let fig = run_figure1(&cfg).unwrap();
    assert_eq!(fig.rows.len(), 21);
    let report = run_all_claims(&cfg).unwrap();
    assert_eq!(report.claims.len(), 4);
    // T4 (reopt) must hold on any dataset — reopt can never hurt.
    assert!(report.claims[3].holds);
}

#[test]
fn rounding_modes_agree_up_to_one_unit_per_query() {
    use synoptic::hist::opta::{build_opt_a, OptAConfig};
    let (_, ps) = dataset(32);
    let ru = build_opt_a(&ps, &OptAConfig::exact(5, RoundingMode::None)).unwrap();
    let rr = build_opt_a(&ps, &OptAConfig::exact(5, RoundingMode::NearestInt)).unwrap();
    // Different optima are allowed, but both are near-identical in quality.
    let lo = ru.sse.min(rr.sse);
    let hi = ru.sse.max(rr.sse);
    assert!(
        hi <= lo * 1.2 + 100.0,
        "unrounded {} vs rounded {}",
        ru.sse,
        rr.sse
    );
}

#[test]
fn mse_units_are_sane() {
    let (d, ps) = dataset(32);
    let est = MethodSpec::OptA
        .build_at_budget(d.values(), &ps, 16)
        .unwrap();
    let sse = exact_sse(est.as_ref(), &ps);
    let mse = mse_from_sse(sse, 32);
    assert!(mse <= sse);
    assert!((mse * 32.0 * 33.0 / 2.0 - sse).abs() < 1e-6 * (1.0 + sse));
}

#[test]
fn wavelet_and_histogram_storage_accounting_is_comparable() {
    let (d, ps) = dataset(64);
    for m in [
        MethodSpec::OptA,
        MethodSpec::Sap0,
        MethodSpec::Sap1,
        MethodSpec::WaveletPoint,
        MethodSpec::WaveletRange,
    ] {
        for budget in [10, 20, 30] {
            let est = m.build_at_budget(d.values(), &ps, budget).unwrap();
            assert!(
                est.storage_words() <= budget,
                "{} claims {} words for a {budget}-word budget",
                m.name(),
                est.storage_words()
            );
        }
    }
}
