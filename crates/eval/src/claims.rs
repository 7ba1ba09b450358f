//! The paper's four quantitative narrative claims (§4), each reproduced as
//! a checkable "table".

use synoptic_core::{Budget, Result, RoundingMode};
use synoptic_data::zipf::{paper_dataset, ZipfConfig};
use synoptic_hist::opta::{build_opt_a, OptAConfig};
use synoptic_hist::reopt::reoptimize_with_budget;

use crate::figure1::{run_figure1, Fig1Config, Fig1Result};
use crate::json::{JsonValue, ToJson};
use crate::methods::MethodSpec;

/// The measured counterpart of one narrative claim.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Claim id (T1–T4 in EXPERIMENTS.md).
    pub id: String,
    /// The paper's wording.
    pub paper: String,
    /// Our measured statistic(s), human-readable.
    pub measured: String,
    /// Key ratios backing the statement (per budget where applicable).
    pub ratios: Vec<(usize, f64)>,
    /// Whether the measured shape supports the paper's claim.
    pub holds: bool,
}

/// All four claims, computed from one Figure 1 run (plus a dedicated reopt
/// pass for T4).
#[derive(Debug, Clone)]
pub struct ClaimsReport {
    /// Individual claim outcomes.
    pub claims: Vec<ClaimResult>,
}

impl ToJson for ClaimResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("id", self.id.to_json()),
            ("paper", self.paper.to_json()),
            ("measured", self.measured.to_json()),
            ("ratios", self.ratios.to_json()),
            ("holds", self.holds.to_json()),
        ])
    }
}

impl ToJson for ClaimsReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([("claims", self.claims.to_json())])
    }
}

fn ratio_series(fig: &Fig1Result, num: &str, den: &str) -> Vec<(usize, f64)> {
    fig.budgets()
        .into_iter()
        .filter_map(|b| {
            let n = fig.sse_of(num, b)?;
            let d = fig.sse_of(den, b)?;
            (d > 0.0).then_some((b, n / d))
        })
        .collect()
}

/// T1: "the point optimal histogram is up to 8 times worse than OPT-A …
/// on average, OPT-A is more than three times better."
pub fn point_opt_vs_opt_a(fig: &Fig1Result) -> ClaimResult {
    let ratios = ratio_series(fig, "POINT-OPT", "OPT-A");
    let max = ratios.iter().map(|&(_, r)| r).fold(0.0, f64::max);
    let avg = ratios.iter().map(|&(_, r)| r).sum::<f64>() / ratios.len().max(1) as f64;
    ClaimResult {
        id: "T1".into(),
        paper: "POINT-OPT up to 8× worse than OPT-A; on average OPT-A >3× better".into(),
        measured: format!("max ratio {max:.2}×, mean ratio {avg:.2}×"),
        holds: max >= 2.0 && avg >= 1.5,
        ratios,
    }
}

/// T2: "In our tests OPT-A is 2–4 times better than SAP1, with respect to
/// SSE for a given space bound."
pub fn opt_a_vs_sap1(fig: &Fig1Result) -> ClaimResult {
    let ratios = ratio_series(fig, "SAP1", "OPT-A");
    let min = ratios.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
    let max = ratios.iter().map(|&(_, r)| r).fold(0.0, f64::max);
    ClaimResult {
        id: "T2".into(),
        paper: "OPT-A 2–4× better SSE than SAP1 at equal storage".into(),
        measured: format!("SAP1/OPT-A SSE ratio ∈ [{min:.2}, {max:.2}]"),
        holds: max >= 1.5, // SAP1 pays 2.5× words per bucket; OPT-A should win
        ratios,
    }
}

/// T3: "The SAP0 approximation … was inferior (in terms of SSE per unit
/// storage) to all other histograms that we tested."
pub fn sap0_inferior(fig: &Fig1Result) -> ClaimResult {
    let budgets = fig.budgets();
    let mut worst_count = 0usize;
    let mut comparable = 0usize;
    let mut ratios = Vec::new();
    for &b in &budgets {
        let Some(sap0) = fig.sse_of("SAP0", b) else {
            continue;
        };
        let others: Vec<f64> = ["OPT-A", "A0", "SAP1"]
            .iter()
            .filter_map(|m| fig.sse_of(m, b))
            .collect();
        if others.is_empty() {
            continue;
        }
        comparable += 1;
        let best_other = others.iter().copied().fold(f64::INFINITY, f64::min);
        if best_other > 0.0 {
            ratios.push((b, sap0 / best_other));
        }
        if others.iter().all(|&o| sap0 >= o - 1e-9) {
            worst_count += 1;
        }
    }
    ClaimResult {
        id: "T3".into(),
        paper: "SAP0 inferior per unit storage to the other range histograms".into(),
        measured: format!(
            "SAP0 worst of the range histograms at {worst_count}/{comparable} budgets"
        ),
        holds: comparable > 0 && worst_count * 2 >= comparable,
        ratios,
    }
}

/// T4: "We did a preliminary experiment with A-reopt … it was superior and
/// up to 41% better than OPT-A, with respect to the SSE."
///
/// Measured directly (not via Figure 1): for each bucket count, re-optimize
/// the OPT-A boundaries and compare.
pub fn reopt_gain(dataset: &ZipfConfig, bucket_counts: &[usize]) -> Result<ClaimResult> {
    let data = paper_dataset(dataset);
    let ps = data.prefix_sums();
    let mut ratios = Vec::new();
    let mut best_gain = 0.0f64;
    for &b in bucket_counts {
        let base = build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None))?;
        let re = reoptimize_with_budget(
            base.histogram.bucketing(),
            &ps,
            "OPT-A",
            &Budget::unlimited(),
        )?;
        if base.sse > 0.0 {
            let gain = 1.0 - re.sse / base.sse;
            best_gain = best_gain.max(gain);
            ratios.push((2 * b, gain));
        }
    }
    Ok(ClaimResult {
        id: "T4".into(),
        paper: "A-reopt up to 41% better than OPT-A (preliminary)".into(),
        measured: format!("max SSE reduction {:.1}%", best_gain * 100.0),
        holds: best_gain > 0.0,
        ratios,
    })
}

/// Runs everything with the paper's dataset configuration.
pub fn run_all_claims(cfg: &Fig1Config) -> Result<ClaimsReport> {
    let mut methods = cfg.methods.clone();
    for needed in [
        MethodSpec::PointOpt,
        MethodSpec::OptA,
        MethodSpec::Sap0,
        MethodSpec::Sap1,
    ] {
        if !methods.contains(&needed) {
            methods.push(needed);
        }
    }
    let fig = run_figure1(&Fig1Config {
        dataset: cfg.dataset.clone(),
        budgets: cfg.budgets.clone(),
        methods,
    })?;
    let bucket_counts: Vec<usize> = cfg.budgets.iter().map(|&w| (w / 2).max(1)).collect();
    Ok(ClaimsReport {
        claims: vec![
            point_opt_vs_opt_a(&fig),
            opt_a_vs_sap1(&fig),
            sap0_inferior(&fig),
            reopt_gain(&cfg.dataset, &bucket_counts)?,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Fig1Config {
        Fig1Config {
            dataset: ZipfConfig {
                n: 32,
                ..ZipfConfig::default()
            },
            budgets: vec![10, 16, 24],
            methods: MethodSpec::paper_figure1(),
        }
    }

    #[test]
    fn all_claims_run_and_reopt_always_helps() {
        let report = run_all_claims(&small_cfg()).unwrap();
        assert_eq!(report.claims.len(), 4);
        let t4 = &report.claims[3];
        assert_eq!(t4.id, "T4");
        assert!(t4.holds, "reopt must never hurt: {}", t4.measured);
        for (_, gain) in &t4.ratios {
            assert!(*gain >= -1e-9, "negative reopt gain {gain}");
        }
    }

    #[test]
    fn t1_ratios_are_positive_and_a0_never_beats_opt_a() {
        // POINT-OPT stores *weighted means*, which live outside OPT-A's
        // average-valued family, so its ratio can dip below 1 on tiny
        // domains; assert positivity for it, and assert the strict
        // guarantee where one exists: A0 shares OPT-A's representation, so
        // OPT-A (the optimum of that family) is never worse.
        let fig = run_figure1(&small_cfg()).unwrap();
        let t1 = point_opt_vs_opt_a(&fig);
        assert!(!t1.ratios.is_empty());
        for (b, r) in &t1.ratios {
            assert!(r.is_finite() && *r > 0.0, "budget {b}: ratio {r}");
        }
        for b in fig.budgets() {
            let (a0, opta) = (
                fig.sse_of("A0", b).unwrap(),
                fig.sse_of("OPT-A", b).unwrap(),
            );
            assert!(
                opta <= a0 + 1e-6 + 1e-9 * a0,
                "budget {b}: OPT-A {opta} vs A0 {a0}"
            );
        }
    }

    #[test]
    fn claims_serialize() {
        let report = run_all_claims(&small_cfg()).unwrap();
        let js = crate::json::to_string_pretty(&report);
        assert!(js.contains("T1") && js.contains("T4"));
    }
}
