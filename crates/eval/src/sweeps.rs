//! Extended ablations A1–A4 (see DESIGN.md §6 and EXPERIMENTS.md).

use synoptic_core::{Budget, DataArray, Result, RoundingMode};
use synoptic_data::generators::{normal_mixture, steps, uniform};
use synoptic_data::zipf::{paper_dataset, ZipfConfig};
use synoptic_hist::opta::{build_opt_a, OptAConfig};
use synoptic_hist::opta_rounded::build_opt_a_rounded_with_budget;

use crate::json::{JsonValue, ToJson};
use crate::methods::{exact_sse, MethodSpec};

/// A1 — OPT-A-ROUNDED: quality and DP-state shrinkage vs the data scale `x`.
#[derive(Debug, Clone)]
pub struct RoundingSweepRow {
    /// Data scale `x`.
    pub scale: i64,
    /// SSE of the rounded construction.
    pub sse: f64,
    /// SSE ratio vs the exact OPT-A at the same bucket count.
    pub ratio_vs_exact: f64,
    /// DP states kept on the scaled data.
    pub states_kept: u64,
    /// DP seconds on the scaled data.
    pub seconds: f64,
}

impl ToJson for RoundingSweepRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("scale", self.scale.to_json()),
            ("sse", self.sse.to_json()),
            ("ratio_vs_exact", self.ratio_vs_exact.to_json()),
            ("states_kept", self.states_kept.to_json()),
            ("seconds", self.seconds.to_json()),
        ])
    }
}

/// Runs ablation A1 on the paper dataset with `buckets` buckets.
pub fn rounding_sweep(
    dataset: &ZipfConfig,
    buckets: usize,
    scales: &[i64],
) -> Result<Vec<RoundingSweepRow>> {
    let data = paper_dataset(dataset);
    let ps = data.prefix_sums();
    let exact = build_opt_a(&ps, &OptAConfig::exact(buckets, RoundingMode::NearestInt))?;
    let unlimited = Budget::unlimited();
    scales
        .iter()
        .map(|&scale| {
            let r =
                build_opt_a_rounded_with_budget(&ps, data.values(), buckets, scale, &unlimited)?;
            Ok(RoundingSweepRow {
                scale,
                sse: r.sse,
                ratio_vs_exact: if exact.sse > 0.0 {
                    r.sse / exact.sse
                } else {
                    1.0
                },
                states_kept: r.stats.states_kept,
                seconds: r.stats.seconds,
            })
        })
        .collect()
}

/// A2 — hull-pruned DP state counts vs the paper's `Λ*`-table bound.
#[derive(Debug, Clone)]
pub struct StatesSweepRow {
    /// Domain size.
    pub n: usize,
    /// Bucket budget.
    pub buckets: usize,
    /// States the hull-pruned DP kept.
    pub states_kept: u64,
    /// Largest single hull.
    pub max_hull: usize,
    /// The paper's per-`(i,k)` table width `2Λ* + 1` with `Λ* ≈ n·s[1,n]` —
    /// what the pseudo-polynomial table would allocate *per DP cell*.
    pub paper_table_width: u128,
    /// DP seconds.
    pub seconds: f64,
    /// SSE found (exactness anchor: equals the rounded optimum).
    pub sse: f64,
    /// Largest |Λ| among kept states; the paper notes `Λ* ≤ OPT`.
    pub max_abs_lambda: f64,
}

impl ToJson for StatesSweepRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("n", self.n.to_json()),
            ("buckets", self.buckets.to_json()),
            ("states_kept", self.states_kept.to_json()),
            ("max_hull", self.max_hull.to_json()),
            ("paper_table_width", self.paper_table_width.to_json()),
            ("seconds", self.seconds.to_json()),
            ("sse", self.sse.to_json()),
            ("max_abs_lambda", self.max_abs_lambda.to_json()),
        ])
    }
}

/// Runs ablation A2 across domain sizes.
pub fn states_sweep(ns: &[usize], buckets: usize, seed: u64) -> Result<Vec<StatesSweepRow>> {
    ns.iter()
        .map(|&n| {
            let data = paper_dataset(&ZipfConfig {
                n,
                seed,
                ..ZipfConfig::default()
            });
            let ps = data.prefix_sums();
            let b = buckets.min(n);
            let r = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::NearestInt))?;
            Ok(StatesSweepRow {
                n,
                buckets: b,
                states_kept: r.stats.states_kept,
                max_hull: r.stats.max_hull_size,
                paper_table_width: 2 * (n as u128) * (data.total().unsigned_abs()) + 1,
                seconds: r.stats.seconds,
                sse: r.sse,
                max_abs_lambda: r.stats.max_abs_lambda,
            })
        })
        .collect()
}

/// A3 — wavelet strategy comparison row.
#[derive(Debug, Clone)]
pub struct WaveletSweepRow {
    /// Storage budget in words.
    pub budget_words: usize,
    /// SSE per strategy, keyed by method name.
    pub sse: Vec<(String, f64)>,
}

impl ToJson for WaveletSweepRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("budget_words", self.budget_words.to_json()),
            ("sse", self.sse.to_json()),
        ])
    }
}

/// Runs ablation A3: the three wavelet strategies plus OPT-A across budgets.
pub fn wavelet_sweep(dataset: &ZipfConfig, budgets: &[usize]) -> Result<Vec<WaveletSweepRow>> {
    let data = paper_dataset(dataset);
    let ps = data.prefix_sums();
    let methods = [
        MethodSpec::WaveletPoint,
        MethodSpec::WaveletPrefix,
        MethodSpec::WaveletRange,
        MethodSpec::WaveletRangeGreedy,
        MethodSpec::OptA,
    ];
    budgets
        .iter()
        .map(|&budget| {
            let mut sse = Vec::new();
            for m in methods {
                let est = m.build_at_budget(data.values(), &ps, budget)?;
                sse.push((m.name().to_string(), exact_sse(est.as_ref(), &ps)));
            }
            Ok(WaveletSweepRow {
                budget_words: budget,
                sse,
            })
        })
        .collect()
}

/// A4 — dataset-family sensitivity row.
#[derive(Debug, Clone)]
pub struct DatasetSweepRow {
    /// Dataset family label.
    pub dataset: String,
    /// Domain size.
    pub n: usize,
    /// SSE per method at the fixed budget, keyed by method name.
    pub sse: Vec<(String, f64)>,
}

impl ToJson for DatasetSweepRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("dataset", self.dataset.to_json()),
            ("n", self.n.to_json()),
            ("sse", self.sse.to_json()),
        ])
    }
}

/// The dataset families of ablation A4.
pub fn ablation_datasets(n: usize, seed: u64) -> Vec<(String, DataArray)> {
    let zipf = |alpha: f64| {
        paper_dataset(&ZipfConfig {
            n,
            alpha,
            seed,
            ..ZipfConfig::default()
        })
    };
    vec![
        ("zipf(0.5)".to_string(), zipf(0.5)),
        ("zipf(1.0)".to_string(), zipf(1.0)),
        ("zipf(1.8)".to_string(), zipf(1.8)),
        ("uniform".to_string(), uniform(n, 0, 200, seed)),
        ("normal-mix".to_string(), normal_mixture(n, 3, 150.0, seed)),
        ("steps".to_string(), steps(n, 8.min(n), 200, seed)),
    ]
}

/// Runs ablation A4 at a fixed storage budget.
pub fn dataset_sweep(
    n: usize,
    budget_words: usize,
    seed: u64,
    methods: &[MethodSpec],
) -> Result<Vec<DatasetSweepRow>> {
    ablation_datasets(n, seed)
        .into_iter()
        .map(|(label, data)| {
            let ps = data.prefix_sums();
            let mut sse = Vec::new();
            for m in methods {
                let est = m.build_at_budget(data.values(), &ps, budget_words)?;
                sse.push((m.name().to_string(), exact_sse(est.as_ref(), &ps)));
            }
            Ok(DatasetSweepRow {
                dataset: label,
                n,
                sse,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ZipfConfig {
        ZipfConfig {
            n: 24,
            ..ZipfConfig::default()
        }
    }

    #[test]
    fn rounding_sweep_states_shrink_with_scale() {
        let rows = rounding_sweep(&small(), 4, &[1, 4, 16]).unwrap();
        assert_eq!(rows.len(), 3);
        // Hull-vertex counts are not strictly monotone in the data scale
        // (different Λ landscapes reshape the hulls), but coarsening must
        // not blow the state set up: allow modest slack.
        assert!(
            rows[2].states_kept <= rows[0].states_kept * 3 / 2 + 8,
            "{} vs {}",
            rows[2].states_kept,
            rows[0].states_kept
        );
        for r in &rows {
            assert!(r.states_kept > 0);
            assert!(r.ratio_vs_exact >= 0.0 && r.sse.is_finite());
        }
    }

    #[test]
    fn states_sweep_is_far_below_paper_bound() {
        let rows = states_sweep(&[16, 24], 4, 2001).unwrap();
        for r in &rows {
            assert!(
                (r.states_kept as u128) < r.paper_table_width,
                "hull kept {} vs paper per-cell width {}",
                r.states_kept,
                r.paper_table_width
            );
        }
    }

    #[test]
    fn wavelet_sweep_has_all_methods() {
        let rows = wavelet_sweep(&small(), &[8, 16]).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.sse.len(), 5);
        }
    }

    #[test]
    fn dataset_sweep_covers_families() {
        let rows = dataset_sweep(
            24,
            12,
            7,
            &[MethodSpec::Naive, MethodSpec::OptA, MethodSpec::Sap0],
        )
        .unwrap();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            // OPT-A must beat NAIVE on every family (it can always fall back
            // to one bucket).
            let get = |name: &str| {
                row.sse
                    .iter()
                    .find(|(m, _)| m == name)
                    .map(|&(_, s)| s)
                    .unwrap()
            };
            assert!(
                get("OPT-A") <= get("NAIVE") + 1e-6,
                "{}: OPT-A {} vs NAIVE {}",
                row.dataset,
                get("OPT-A"),
                get("NAIVE")
            );
        }
    }

    #[test]
    fn steps_family_is_nearly_free_for_opt_a() {
        // A piecewise-constant dataset with ≤ 6 segments: OPT-A with ≥ 6
        // buckets has tiny intra error (still inter-bucket end-piece error
        // can be zero since buckets are constant ⇒ u ≡ 0). SSE ≈ 0.
        let rows = dataset_sweep(24, 16, 3, &[MethodSpec::OptA]).unwrap();
        let steps_row = rows.iter().find(|r| r.dataset == "steps").unwrap();
        let sse = steps_row.sse[0].1;
        assert!(sse < 1e-6, "steps SSE should vanish, got {sse}");
    }
}

/// A5 — certified-interval width vs budget for the bounded histogram
/// (extension; see `synoptic_core::histogram::bounded`).
#[derive(Debug, Clone)]
pub struct BoundsSweepRow {
    /// Storage budget in words.
    pub budget_words: usize,
    /// Mean certified width over all ranges.
    pub mean_width: f64,
    /// Max certified width.
    pub max_width: f64,
    /// Fraction of ranges answered exactly (zero width).
    pub exact_fraction: f64,
    /// RMSE of the midpoint estimate, for scale.
    pub rmse: f64,
}

impl ToJson for BoundsSweepRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("budget_words", self.budget_words.to_json()),
            ("mean_width", self.mean_width.to_json()),
            ("max_width", self.max_width.to_json()),
            ("exact_fraction", self.exact_fraction.to_json()),
            ("rmse", self.rmse.to_json()),
        ])
    }
}

/// Runs ablation A5 on the paper dataset.
pub fn bounds_sweep(dataset: &ZipfConfig, budgets: &[usize]) -> Result<Vec<BoundsSweepRow>> {
    use crate::metrics::{error_profile_all_ranges, interval_profile};
    use synoptic_core::BoundedHistogram;
    use synoptic_hist::opta::{build_opt_a, OptAConfig};

    let data = paper_dataset(dataset);
    let ps = data.prefix_sums();
    budgets
        .iter()
        .map(|&budget| {
            let b = (budget / 4).clamp(1, ps.n());
            let base = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None))?;
            let h =
                BoundedHistogram::build(base.histogram.bucketing().clone(), data.values(), &ps)?;
            let ip = interval_profile(&h, &ps);
            let ep = error_profile_all_ranges(&h, &ps);
            Ok(BoundsSweepRow {
                budget_words: budget,
                mean_width: ip.mean_width,
                max_width: ip.max_width,
                exact_fraction: ip.exact_fraction,
                rmse: ep.rmse,
            })
        })
        .collect()
}

#[cfg(test)]
mod bounds_tests {
    use super::*;

    #[test]
    fn bounds_sweep_tightens_with_budget() {
        let rows = bounds_sweep(
            &ZipfConfig {
                n: 32,
                ..ZipfConfig::default()
            },
            &[8, 16, 32],
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        assert!(
            rows[2].mean_width <= rows[0].mean_width + 1e-9,
            "{} vs {}",
            rows[2].mean_width,
            rows[0].mean_width
        );
        for r in &rows {
            assert!(r.exact_fraction > 0.0 && r.exact_fraction <= 1.0);
            assert!(r.mean_width <= r.max_width + 1e-9);
        }
    }
}

#[cfg(test)]
mod lambda_bound_tests {
    use super::*;

    /// The paper remarks that each |Λ| explored is at most OPT (the optimal
    /// error). Check the observed max |Λ| against the found SSE.
    #[test]
    fn observed_lambda_respects_the_paper_bound() {
        let rows = states_sweep(&[24, 48], 6, 2001).unwrap();
        for r in &rows {
            assert!(
                r.max_abs_lambda <= r.sse + 1e-6,
                "n={}: max|Λ| {} exceeds OPT {}",
                r.n,
                r.max_abs_lambda,
                r.sse
            );
        }
    }
}

/// A6 — hull-cap ablation: quality/speed impact of capping the per-cell
/// state hull (the `max_hull_states` knob of `OptAConfig`), the one
/// approximation lever DESIGN.md §4.1 introduces on top of the paper.
#[derive(Debug, Clone)]
pub struct HullCapSweepRow {
    /// Cap (0 = unlimited = exact).
    pub cap: usize,
    /// SSE of the constructed histogram.
    pub sse: f64,
    /// Ratio vs the exact optimum.
    pub ratio_vs_exact: f64,
    /// States kept under the cap.
    pub states_kept: u64,
    /// DP seconds.
    pub seconds: f64,
}

impl ToJson for HullCapSweepRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("cap", self.cap.to_json()),
            ("sse", self.sse.to_json()),
            ("ratio_vs_exact", self.ratio_vs_exact.to_json()),
            ("states_kept", self.states_kept.to_json()),
            ("seconds", self.seconds.to_json()),
        ])
    }
}

/// Runs ablation A6 on the paper dataset with `buckets` buckets.
pub fn hull_cap_sweep(
    dataset: &ZipfConfig,
    buckets: usize,
    caps: &[usize],
) -> Result<Vec<HullCapSweepRow>> {
    use synoptic_hist::opta::OptAConfig;
    let data = paper_dataset(dataset);
    let ps = data.prefix_sums();
    let exact = build_opt_a(&ps, &OptAConfig::exact(buckets, RoundingMode::None))?;
    caps.iter()
        .map(|&cap| {
            let r = build_opt_a(
                &ps,
                &OptAConfig {
                    buckets,
                    mode: RoundingMode::None,
                    lambda_quantum: 0.0,
                    max_hull_states: cap,
                },
            )?;
            Ok(HullCapSweepRow {
                cap,
                sse: r.sse,
                ratio_vs_exact: if exact.sse > 0.0 {
                    r.sse / exact.sse
                } else {
                    1.0
                },
                states_kept: r.stats.states_kept,
                seconds: r.stats.seconds,
            })
        })
        .collect()
}

#[cfg(test)]
mod hull_cap_tests {
    use super::*;

    #[test]
    fn caps_are_never_better_than_exact_and_converge() {
        let rows = hull_cap_sweep(
            &ZipfConfig {
                n: 48,
                ..ZipfConfig::default()
            },
            6,
            &[1, 2, 8, 64, 0],
        )
        .unwrap();
        for r in &rows {
            assert!(
                r.ratio_vs_exact >= 1.0 - 1e-9,
                "cap {} beat the exact optimum: {}",
                r.cap,
                r.ratio_vs_exact
            );
        }
        // Unlimited cap is exact; a generous cap should match it here.
        let unlimited = rows.iter().find(|r| r.cap == 0).unwrap();
        assert!((unlimited.ratio_vs_exact - 1.0).abs() < 1e-9);
        let generous = rows.iter().find(|r| r.cap == 64).unwrap();
        assert!(
            generous.ratio_vs_exact < 1.01,
            "cap 64 should be near-exact: {}",
            generous.ratio_vs_exact
        );
    }
}

/// A7 — cost of partialization: how much quality the segment-merge path
/// gives up relative to monolithic builds, per segment count.
#[derive(Debug, Clone)]
pub struct SegmentsSweepRow {
    /// Number of equi-width segments.
    pub segments: usize,
    /// Max |stitched − monolithic-on-stitched-bucketing| over all ranges
    /// (the histogram merge operator's exactness claim: must be 0.0).
    pub stitch_max_dev: f64,
    /// SSE of the stitched per-segment SAP0 histograms.
    pub sse_stitched: f64,
    /// SSE of the monolithic SAP0 DP at the same total bucket count.
    pub sse_monolithic: f64,
    /// `sse_stitched / sse_monolithic` — ≥ 1 up to float noise; the gap
    /// is the price of forbidding buckets across segment edges.
    pub sse_ratio: f64,
    /// Min over ranges of `bound − |merged(q) − union(q)|` for the Haar
    /// coefficient-union merge at the same segmentation (the documented
    /// re-truncation bound: must be ≥ 0 up to float noise).
    pub haar_bound_min_slack: f64,
}

impl ToJson for SegmentsSweepRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("segments", self.segments.to_json()),
            ("stitch_max_dev", self.stitch_max_dev.to_json()),
            ("sse_stitched", self.sse_stitched.to_json()),
            ("sse_monolithic", self.sse_monolithic.to_json()),
            ("sse_ratio", self.sse_ratio.to_json()),
            ("haar_bound_min_slack", self.haar_bound_min_slack.to_json()),
        ])
    }
}

/// Runs ablation A7 on a power-of-two Zipf dataset (`n` must be divisible
/// by every entry of `segment_counts` so the Haar merge sees equal
/// power-of-two segments; 128 with counts {1,2,4,8,16} is the default in
/// `sweep`). `buckets` is the total bucket count, split evenly.
pub fn segments_sweep(
    dataset: &ZipfConfig,
    buckets: usize,
    segment_counts: &[usize],
) -> Result<Vec<SegmentsSweepRow>> {
    use synoptic_core::{Bucketing, RangeEstimator, RangeQuery, Sap0Histogram, SegmentLayout};
    use synoptic_hist::sap0::build_sap0_with_budget;
    use synoptic_hist::{build_sap0_partials, merge_sap0};
    use synoptic_wavelet::{merge_point_wavelets, PointWaveletSynopsis};

    let data = paper_dataset(dataset);
    let values = data.values();
    let n = values.len();
    let ps = data.prefix_sums();
    let unlimited = Budget::unlimited();
    let (mono, _) = build_sap0_with_budget(&ps, buckets, &unlimited)?;
    let sse_monolithic = exact_sse(&mono, &ps);
    segment_counts
        .iter()
        .map(|&segments| {
            let layout = SegmentLayout::equi_width(n, segments)?;
            // Histogram half: partial builds + prefix-sum stitching.
            let per_seg = (buckets / segments).max(1);
            let parts = build_sap0_partials(
                values,
                &layout,
                &vec![per_seg; segments],
                &Budget::unlimited(),
            )?;
            let merged = merge_sap0(&parts)?;
            let mut starts = Vec::new();
            for ((l, _), part) in layout.iter().zip(&parts) {
                starts.extend(part.bucketing().starts().iter().map(|s| l + s));
            }
            let mono_stitched = Sap0Histogram::optimal_values(Bucketing::new(n, starts)?, &ps)?;
            let mut stitch_max_dev = 0.0_f64;
            for q in RangeQuery::all(n) {
                stitch_max_dev =
                    stitch_max_dev.max((merged.estimate(q) - mono_stitched.estimate(q)).abs());
            }
            let sse_stitched = exact_sse(&merged, &ps);
            // Haar half: per-segment point-wavelet synopses, coefficient
            // union + re-truncation, bound verified against the untruncated
            // union.
            let b_total = buckets; // coefficient budget, same accounting
            let waves: Vec<PointWaveletSynopsis> = layout
                .iter()
                .map(|(l, r)| {
                    PointWaveletSynopsis::build_with_budget(&values[l..=r], b_total, &unlimited)
                })
                .collect::<Result<_>>()?;
            let refs: Vec<&PointWaveletSynopsis> = waves.iter().collect();
            let (merged_w, outcome) = merge_point_wavelets(&refs, b_total)?;
            let (union_w, _) = merge_point_wavelets(&refs, usize::MAX)?;
            let mut haar_bound_min_slack = f64::INFINITY;
            for q in RangeQuery::all(n) {
                let err = (merged_w.estimate(q) - union_w.estimate(q)).abs();
                let slack = outcome.retruncation_bound(q) - err;
                haar_bound_min_slack = haar_bound_min_slack.min(slack);
            }
            Ok(SegmentsSweepRow {
                segments,
                stitch_max_dev,
                sse_stitched,
                sse_monolithic,
                sse_ratio: if sse_monolithic > 0.0 {
                    sse_stitched / sse_monolithic
                } else {
                    1.0
                },
                haar_bound_min_slack,
            })
        })
        .collect()
}

#[cfg(test)]
mod segments_tests {
    use super::*;

    #[test]
    fn partialization_is_exact_on_stitched_buckets_and_bounded_for_haar() {
        let rows = segments_sweep(
            &ZipfConfig {
                n: 64,
                ..ZipfConfig::default()
            },
            8,
            &[1, 2, 4, 8],
        )
        .unwrap();
        for r in &rows {
            assert_eq!(
                r.stitch_max_dev, 0.0,
                "stitching must be exact at S={}",
                r.segments
            );
            assert!(
                r.haar_bound_min_slack > -1e-6,
                "re-truncation bound violated at S={}: slack {}",
                r.segments,
                r.haar_bound_min_slack
            );
            assert!(
                r.sse_ratio >= 1.0 - 1e-9,
                "S={}: {}",
                r.segments,
                r.sse_ratio
            );
        }
        // One segment is the monolithic build itself.
        assert!((rows[0].sse_ratio - 1.0).abs() < 1e-9);
    }
}
