//! Integration tests that pin the paper's concrete artifacts: the worked
//! example of §2.1.1, the storage theorems, and the headline experimental
//! shapes on the full 127-key dataset.
//!
//! These are the tests a referee would run: they encode what the paper
//! *states*, not what the code happens to do.

use synoptic::core::sse::sse_brute;
use synoptic::data::zipf::{paper_dataset, zipf_frequencies, ZipfConfig};
use synoptic::eval::methods::{exact_sse, MethodSpec};
use synoptic::prelude::*;

/// Paper §2.1.1 worked example: A = (1,3,5,11), two equal buckets with
/// averages 2 and 8 give Λ = 4 and Λ₂ = 10.
#[test]
fn section_2_1_worked_example() {
    let ps = PrefixSums::from_values(&[1, 3, 5, 11]);
    let b = Bucketing::new(4, vec![0, 2]).unwrap();
    let h = OptAHistogram::new(b.clone(), &ps, RoundingMode::NearestInt).unwrap();
    assert_eq!(h.avg(0), 2.0);
    assert_eq!(h.avg(1), 8.0);
    let (mut lambda, mut lambda2) = (0.0f64, 0.0f64);
    for t in 0..4 {
        let r = b.right(b.bucket_of(t));
        let u = ps.range_sum(t, r) as f64 - h.suffix_piece(b.bucket_of(t), t);
        lambda += u;
        lambda2 += u * u;
    }
    assert_eq!(lambda, 4.0, "paper's Λ");
    assert_eq!(lambda2, 10.0, "paper's Λ₂");
}

/// Storage theorems: OPT-A/A0 2B words (Thm 4.2/10), SAP0 3B (Thm 7),
/// SAP1 5B (Thm 8).
#[test]
fn storage_theorems() {
    let d = paper_dataset(&ZipfConfig {
        n: 40,
        ..ZipfConfig::default()
    });
    let ps = d.prefix_sums();
    let b = 4;
    let opta = synoptic::hist::opta::build_opt_a(
        &ps,
        &synoptic::hist::opta::OptAConfig::exact(b, RoundingMode::None),
    )
    .unwrap();
    assert_eq!(opta.histogram.storage_words(), 2 * b);
    let a0 = synoptic::hist::a0::build_a0(&ps, b).unwrap();
    assert_eq!(a0.storage_words(), 2 * a0.bucketing().num_buckets());
    let unlimited = Budget::unlimited();
    let (s0, _) = synoptic::hist::sap0::build_sap0_with_budget(&ps, b, &unlimited).unwrap();
    assert_eq!(s0.storage_words(), 3 * s0.bucketing().num_buckets());
    let (s1, _) = synoptic::hist::sap1::build_sap1_with_budget(&ps, b, &unlimited).unwrap();
    assert_eq!(s1.storage_words(), 5 * s1.bucketing().num_buckets());
}

/// SAP1 storage-vs-quality trade (paper end of §2.2.2): at the *same bucket
/// count* SAP1 is never worse than OPT-A; at the same *storage* OPT-A wins
/// on this dataset ("using more buckets is better than incorporating more
/// complex statistics within each bucket").
#[test]
fn sap1_bucket_vs_storage_tradeoff() {
    let d = paper_dataset(&ZipfConfig {
        n: 64,
        ..ZipfConfig::default()
    });
    let ps = d.prefix_sums();
    let b = 6;
    let opta = synoptic::hist::opta::build_opt_a(
        &ps,
        &synoptic::hist::opta::OptAConfig::exact(b, RoundingMode::None),
    )
    .unwrap();
    let sap1 = synoptic::hist::sap1::build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
    // Same bucket count: SAP1 ≥ free parameters ⇒ SSE ≤ OPT-A's.
    assert!(
        sap1.1 <= opta.sse * (1.0 + 1e-9) + 1e-9,
        "SAP1@B={b} ({}) vs OPT-A@B={b} ({})",
        sap1.1,
        opta.sse
    );
    // Same storage (5B words → OPT-A gets 2.5× buckets): OPT-A wins here.
    let opta_words = synoptic::hist::opta::build_opt_a(
        &ps,
        &synoptic::hist::opta::OptAConfig::exact(5 * b / 2, RoundingMode::None),
    )
    .unwrap();
    assert!(
        opta_words.sse <= sap1.1,
        "equal-storage OPT-A ({}) should beat SAP1 ({})",
        opta_words.sse,
        sap1.1
    );
}

/// The four §4 claims on the full paper-scale dataset (shape, not absolute
/// numbers): ratios in the right directions.
#[test]
fn headline_claims_on_paper_dataset() {
    let d = paper_dataset(&ZipfConfig::default());
    let ps = d.prefix_sums();
    assert_eq!(d.n(), 127);
    let budget = 32;
    let sse = |m: MethodSpec| {
        exact_sse(
            m.build_at_budget(d.values(), &ps, budget).unwrap().as_ref(),
            &ps,
        )
    };
    let (naive, point, opta, sap0, sap1, a0) = (
        sse(MethodSpec::Naive),
        sse(MethodSpec::PointOpt),
        sse(MethodSpec::OptA),
        sse(MethodSpec::Sap0),
        sse(MethodSpec::Sap1),
        sse(MethodSpec::A0),
    );
    // T1 direction: POINT-OPT multiple times worse than OPT-A.
    assert!(point / opta >= 2.0, "T1: {point} vs {opta}");
    // T2 direction: OPT-A at least 2× better than SAP1 at equal storage.
    assert!(sap1 / opta >= 2.0, "T2: {sap1} vs {opta}");
    // T3: SAP0 worst of the range-aware histograms.
    assert!(sap0 > opta && sap0 > a0 && sap0 > sap1, "T3");
    // NAIVE is the upper anchor.
    assert!(naive > 10.0 * point, "NAIVE anchors the top of the figure");
    // A0 lands close to OPT-A ("heuristics … perform very well"). How
    // close is sensitive to the dataset's random ±½ rounding realization:
    // across seeds the ratio ranges from ~1.00 to ~1.5, and the canonical
    // seed measures ~1.13, so assert the qualitative claim — A0 within 15%
    // of the optimum and far below the non-range-aware methods (T3 above
    // already pins A0 under SAP0).
    assert!(a0 <= opta * 1.15, "A0 ({a0}) close to OPT-A ({opta})");
}

/// T4 on the paper dataset: reopt gain is substantial (paper: up to 41%).
#[test]
fn reopt_gain_is_substantial_on_paper_dataset() {
    use synoptic::hist::reopt::reoptimize_with_budget;
    let d = paper_dataset(&ZipfConfig::default());
    let ps = d.prefix_sums();
    let mut best_gain = 0.0f64;
    let unlimited = Budget::unlimited();
    for b in [4usize, 8, 16, 24] {
        let base = synoptic::hist::opta::build_opt_a(
            &ps,
            &synoptic::hist::opta::OptAConfig::exact(b, RoundingMode::None),
        )
        .unwrap();
        let re = reoptimize_with_budget(base.histogram.bucketing(), &ps, "O", &unlimited).unwrap();
        best_gain = best_gain.max(1.0 - re.sse / base.sse);
    }
    assert!(
        best_gain > 0.10,
        "expected a double-digit reopt gain somewhere, got {:.1}%",
        best_gain * 100.0
    );
}

/// Dataset recipe checks: 127 keys, Zipf(1.8) shape, rounding moved each
/// frequency by at most 1.
#[test]
fn dataset_recipe_matches_paper() {
    let cfg = ZipfConfig::default();
    let d = paper_dataset(&cfg);
    assert_eq!(d.n(), 127);
    assert!(d.is_non_negative());
    let floats = zipf_frequencies(127, 1.8, cfg.total_mass);
    assert!((floats[0] / floats[1] - 2f64.powf(1.8)).abs() < 1e-9);
    for (f, &v) in floats.iter().zip(d.values()) {
        assert!((v as f64 - f).abs() <= 1.0);
    }
}

/// The wavelet series sits well above the optimized histograms (the paper:
/// "qualitatively worse than histogram-methods"), yet far below NAIVE.
#[test]
fn wavelets_are_qualitatively_worse_than_histograms() {
    let d = paper_dataset(&ZipfConfig::default());
    let ps = d.prefix_sums();
    let budget = 32;
    let sse = |m: MethodSpec| {
        exact_sse(
            m.build_at_budget(d.values(), &ps, budget).unwrap().as_ref(),
            &ps,
        )
    };
    let topbb = sse(MethodSpec::WaveletRange);
    let opta = sse(MethodSpec::OptA);
    let naive = sse(MethodSpec::Naive);
    assert!(topbb > 10.0 * opta, "TOPBB {topbb} vs OPT-A {opta}");
    assert!(topbb < naive, "TOPBB still beats NAIVE");
}

/// Rounded-mode OPT-A on the paper dataset: DP objective equals measured
/// SSE, and the histogram's integral answers are within one unit of the
/// unrounded ones.
#[test]
fn integral_answering_on_paper_dataset() {
    let d = paper_dataset(&ZipfConfig::default());
    let ps = d.prefix_sums();
    let r = synoptic::hist::opta::build_opt_a(
        &ps,
        &synoptic::hist::opta::OptAConfig::exact(8, RoundingMode::NearestInt),
    )
    .unwrap();
    assert!((r.dp_objective - r.sse).abs() <= 1e-6 * (1.0 + r.sse));
    assert!(!r.stats.approximate);
    let brute = sse_brute(&r.histogram, &ps);
    assert!((brute - r.sse).abs() <= 1e-6 * (1.0 + r.sse));
}
