//! Integration tests for the extension subsystems (stream, catalog, twod,
//! workload optimization, sampling) working together with the core paper
//! algorithms.

use synoptic::catalog::{
    allocate_budget, Catalog, ColumnCurve, ColumnEntry, DurableCatalog, PersistentSynopsis,
};
use synoptic::core::sse::{sse_brute, sse_workload};
use synoptic::data::sample::SampleEstimator;
use synoptic::data::workload::{dyadic_ranges, prefix_queries};
use synoptic::data::zipf::{paper_dataset, ZipfConfig};
use synoptic::hist::sap0::build_sap0_with_budget;
use synoptic::hist::workload_opt::{optimize_for_workload, reoptimize_for_workload};
use synoptic::prelude::*;
use synoptic::stream::{
    ColumnBuild, MaintainedPool, RebuildConfig, RebuildPolicy, StreamingRangeOptimal,
};

fn dataset(n: usize) -> (DataArray, PrefixSums) {
    let d = paper_dataset(&ZipfConfig {
        n,
        ..ZipfConfig::default()
    });
    let ps = d.prefix_sums();
    (d, ps)
}

#[test]
fn updated_column_flows_into_a_persisted_catalog() {
    // Ingest updates via the maintained histogram, then persist the fresh
    // synopsis in a catalog and answer from a reload.
    let (d, _) = dataset(48);
    let pool = MaintainedPool::new(1);
    let m = pool
        .add_column(
            "col",
            d.values(),
            ColumnBuild::Custom(Box::new(
                |_v: &[i64], ps: &PrefixSums, budget: &synoptic::core::Budget| {
                    Ok(
                        Box::new(synoptic::hist::sap0::build_sap0_with_budget(ps, 5, budget)?.0)
                            as Box<dyn RangeEstimator>,
                    )
                },
            )),
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(10)),
        )
        .unwrap();
    for t in 0..40 {
        if m.update(t % 48, 3).unwrap() {
            m.quiesce();
        }
    }
    assert_eq!(m.stats().rebuilds, 4);

    // Persist the current estimator via SAP0 capture (rebuild to a concrete
    // type for persistence).
    let live: Vec<i64> = (0..48)
        .map(|i| m.exact(RangeQuery::point(i)) as i64)
        .collect();
    let ps_live = PrefixSums::from_values(&live);
    let (h, _) = build_sap0_with_budget(&ps_live, 5, &Budget::unlimited()).unwrap();
    let mut cat = Catalog::new();
    cat.insert(
        "col",
        ColumnEntry {
            n: 48,
            total_rows: ps_live.total() as i64,
            synopsis: PersistentSynopsis::from_sap0(&h),
        },
    );
    // Persist through the durable binary store and answer from a reload.
    let dir = std::env::temp_dir().join(format!("synoptic_ext_cat_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableCatalog::open(&dir, synoptic::catalog::FsStorage::new()).unwrap();
    store.save(&cat).unwrap();
    let back = store.load().unwrap();
    // Round-trip fidelity: the reloaded synopsis answers every query as the
    // original histogram did (SAP0's inter-bucket answers use suffix/prefix
    // *means*, so they are close to—but not exactly—the truth by design).
    for q in RangeQuery::all(48) {
        let est = back.estimate("col", q).unwrap();
        assert!(
            (est - h.estimate(q)).abs() <= 1e-9 * (1.0 + h.estimate(q).abs()),
            "{q:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_snapshot_round_trips_through_persistence() {
    let (d, _) = dataset(32);
    let mut sr = StreamingRangeOptimal::new(d.values()).unwrap();
    for i in 0..32 {
        sr.update(i, (i % 5) as i64).unwrap();
    }
    let snap = sr.snapshot(8);
    let p = PersistentSynopsis::from_wavelet_range(&snap);
    let loaded = p.load().unwrap();
    for q in RangeQuery::all(32) {
        assert!((snap.estimate(q) - loaded.estimate(q)).abs() < 1e-9);
    }
}

#[test]
fn workload_tuning_beats_generic_on_restricted_classes() {
    let (d, ps) = dataset(64);
    let _ = d;
    let b = Bucketing::equi_width(64, 8).unwrap();
    for (label, workload) in [
        ("prefix", prefix_queries(64)),
        ("dyadic", dyadic_ranges(64)),
    ] {
        let tuned = reoptimize_for_workload(&b, &ps, &workload, label).unwrap();
        let generic =
            synoptic::hist::reopt::reoptimize_with_budget(&b, &ps, "all", &Budget::unlimited())
                .unwrap();
        let t = sse_workload(&tuned, &ps, &workload);
        let g = sse_workload(&generic.histogram, &ps, &workload);
        assert!(t <= g + 1e-6, "{label}: tuned {t} vs generic {g}");
    }
}

#[test]
fn full_workload_pipeline_with_boundary_search() {
    let (_, ps) = dataset(48);
    let workload = dyadic_ranges(48);
    let seed = Bucketing::equi_width(48, 6).unwrap();
    let r = optimize_for_workload(seed, &ps, &workload, 30, "DY").unwrap();
    assert!(r.sse <= r.seed_sse + 1e-6);
    assert!(r.sse.is_finite());
}

#[test]
fn sampling_baseline_loses_to_opt_a_at_equal_words_on_skewed_data() {
    let (d, ps) = dataset(127);
    let words = 32;
    let sample = SampleEstimator::build(&d, &ps, words, 5).unwrap();
    let opta = synoptic::hist::opta::build_opt_a(
        &ps,
        &synoptic::hist::opta::OptAConfig::exact(words / 2, RoundingMode::None),
    )
    .unwrap();
    let s_sse = sse_brute(&sample, &ps);
    let o_sse = opta.sse;
    assert!(
        o_sse < s_sse,
        "OPT-A ({o_sse}) should beat a {words}-row sample ({s_sse}) on Zipf data"
    );
}

#[test]
fn budget_allocation_end_to_end_over_real_curves() {
    // Two columns, real SAP0 curves, exact DP allocation; the allocation
    // must dominate the naive even split at the same total budget.
    let (a, pa) = dataset(48);
    let noise = synoptic::data::generators::uniform(48, 0, 5, 3);
    let pn = noise.prefix_sums();
    let _ = a;
    let grid = [3usize, 6, 9, 12, 18, 24];
    let curve = |name: &str, ps: &PrefixSums, weight: f64| ColumnCurve {
        name: name.into(),
        weight,
        points: grid
            .iter()
            .map(|&w| {
                let (h, _) =
                    build_sap0_with_budget(ps, (w / 3).max(1), &Budget::unlimited()).unwrap();
                (w, sse_brute(&h, ps))
            })
            .collect(),
    };
    let curves = vec![curve("zipf", &pa, 1.0), curve("noise", &pn, 1.0)];
    let total = 24;
    let alloc = allocate_budget(&curves, total).unwrap();
    assert!(alloc.total_words <= total);
    // Even split: 12 words each.
    let even: f64 = curves
        .iter()
        .map(|c| {
            c.points
                .iter()
                .filter(|&&(w, _)| w <= total / 2)
                .map(|&(_, s)| s)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    assert!(
        alloc.total_weighted_sse <= even + 1e-6,
        "DP ({}) must not lose to the even split ({even})",
        alloc.total_weighted_sse
    );
    // The skewed column deserves at least as many words as the noise one.
    let words_of = |name: &str| {
        alloc
            .choices
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, w, _)| w)
            .unwrap()
    };
    assert!(
        words_of("zipf") >= words_of("noise"),
        "allocation: {:?}",
        alloc.choices
    );
}

#[test]
fn two_d_methods_agree_with_one_d_on_a_single_row() {
    // A 1×n grid degenerates to the 1-D problem: the 2-D grid histogram
    // with 1×g tiles must match the 1-D equi-width histogram.
    use synoptic::twod::{Grid2D, GridHistogram, RectEstimator, RectQuery};
    let (d, ps) = dataset(16);
    let g2 = Grid2D::new(1, 16, d.values().to_vec()).unwrap();
    let ps2 = g2.prefix_sums();
    let h2 = GridHistogram::build(&ps2, 1, 4).unwrap();
    let h1 = synoptic::hist::heuristics::build_equi_width(&ps, 4).unwrap();
    for lo in 0..16 {
        for hi in lo..16 {
            let q1 = RangeQuery { lo, hi };
            let q2 = RectQuery::new(0, 0, lo, hi).unwrap();
            assert!(
                (h1.estimate(q1) - h2.estimate(q2)).abs() < 1e-9,
                "({lo},{hi})"
            );
        }
    }
}
