//! Uniform access to every synopsis family at a given storage budget.

use synoptic_core::{Budget, BuildOutcome, PrefixSums, RangeEstimator, Result};
use synoptic_hist::builder::{
    build_with_budget, fallback_ladder, run_ladder, AnytimeParams, HistogramMethod,
};
use synoptic_wavelet::{
    coeffs_for_budget, PointWaveletSynopsis, PrefixWaveletSynopsis, RangeOptimalWavelet,
};

/// Every method the harness can evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodSpec {
    /// Single global average.
    Naive,
    /// Equi-width histogram.
    EquiWidth,
    /// Equi-depth histogram.
    EquiDepth,
    /// Max-diff histogram.
    MaxDiff,
    /// Classical V-optimal point histogram (uniform weights).
    VOptUniform,
    /// The paper's POINT-OPT baseline (range-inclusion weights).
    PointOpt,
    /// The paper's A0 heuristic.
    A0,
    /// Range-optimal SAP0 (3 words/bucket).
    Sap0,
    /// Range-optimal SAP1 (5 words/bucket).
    Sap1,
    /// Range-optimal OPT-A, unrounded answering.
    OptA,
    /// Range-optimal OPT-A, integral (paper) answering.
    OptAIntegral,
    /// OPT-A-ROUNDED with parameter ε.
    OptARounded(f64),
    /// OPT-A boundaries + §5 re-optimized values.
    OptAReopt,
    /// A0 boundaries + §5 re-optimized values.
    A0Reopt,
    /// OPT-A boundaries + per-bucket min/max (certified intervals;
    /// 4 words/bucket, extension).
    BoundedOptA,
    /// Top-B Haar coefficients of `A` (Matias–Vitter–Wang).
    WaveletPoint,
    /// Top-B Haar coefficients of the prefix sums.
    WaveletPrefix,
    /// The paper's range-optimal virtual-matrix wavelets (Theorem 9); the
    /// figure's `TOPBB` series.
    WaveletRange,
    /// OMP-style greedy selection + value re-fit over the same family
    /// (extension; see `synoptic_wavelet::range_greedy`).
    WaveletRangeGreedy,
}

impl MethodSpec {
    /// Display name used in tables and CSV headers; histogram variants use
    /// [`HistogramMethod::name`].
    pub fn name(&self) -> &'static str {
        match self {
            MethodSpec::WaveletPoint => "WAVELET-POINT",
            MethodSpec::WaveletPrefix => "WAVELET-PREFIX",
            MethodSpec::WaveletRange => "TOPBB",
            MethodSpec::WaveletRangeGreedy => "TOPBB-GREEDY",
            hist => hist
                .histogram_method()
                .expect("wavelets handled above; everything else is a histogram")
                .name(),
        }
    }

    /// The method set plotted in the paper's Figure 1.
    pub fn paper_figure1() -> Vec<MethodSpec> {
        vec![
            MethodSpec::Naive,
            MethodSpec::PointOpt,
            MethodSpec::A0,
            MethodSpec::Sap0,
            MethodSpec::Sap1,
            MethodSpec::OptA,
            MethodSpec::WaveletRange,
        ]
    }

    /// Everything, for the extended sweeps.
    pub fn all() -> Vec<MethodSpec> {
        vec![
            MethodSpec::Naive,
            MethodSpec::EquiWidth,
            MethodSpec::EquiDepth,
            MethodSpec::MaxDiff,
            MethodSpec::VOptUniform,
            MethodSpec::PointOpt,
            MethodSpec::A0,
            MethodSpec::Sap0,
            MethodSpec::Sap1,
            MethodSpec::OptA,
            MethodSpec::OptAIntegral,
            MethodSpec::OptARounded(0.25),
            MethodSpec::OptAReopt,
            MethodSpec::A0Reopt,
            MethodSpec::BoundedOptA,
            MethodSpec::WaveletPoint,
            MethodSpec::WaveletPrefix,
            MethodSpec::WaveletRange,
            MethodSpec::WaveletRangeGreedy,
        ]
    }

    /// Builds the estimator within `budget_words` of storage. Wavelet
    /// methods keep [`coeffs_for_budget`] coefficients (index + value per
    /// coefficient); histogram methods use their per-bucket word accounting.
    pub fn build_at_budget(
        &self,
        values: &[i64],
        ps: &PrefixSums,
        budget_words: usize,
    ) -> Result<Box<dyn RangeEstimator>> {
        let budget = Budget::unlimited();
        match self.histogram_method() {
            Some(hm) => build_with_budget(hm, values, ps, budget_words, &budget),
            None => self.build_wavelet_with_budget(
                values,
                ps,
                coeffs_for_budget(budget_words)?,
                &budget,
            ),
        }
    }

    /// The histogram-builder equivalent, `None` for wavelet methods.
    pub fn histogram_method(&self) -> Option<HistogramMethod> {
        Some(match self {
            MethodSpec::Naive => HistogramMethod::Naive,
            MethodSpec::EquiWidth => HistogramMethod::EquiWidth,
            MethodSpec::EquiDepth => HistogramMethod::EquiDepth,
            MethodSpec::MaxDiff => HistogramMethod::MaxDiff,
            MethodSpec::VOptUniform => HistogramMethod::VOptUniform,
            MethodSpec::PointOpt => HistogramMethod::PointOpt,
            MethodSpec::A0 => HistogramMethod::A0,
            MethodSpec::Sap0 => HistogramMethod::Sap0,
            MethodSpec::Sap1 => HistogramMethod::Sap1,
            MethodSpec::OptA => HistogramMethod::OptA,
            MethodSpec::OptAIntegral => HistogramMethod::OptAIntegral,
            MethodSpec::OptARounded(eps) => HistogramMethod::OptARounded { eps: *eps },
            MethodSpec::OptAReopt => HistogramMethod::OptAReopt,
            MethodSpec::A0Reopt => HistogramMethod::A0Reopt,
            MethodSpec::BoundedOptA => HistogramMethod::BoundedOptA,
            MethodSpec::WaveletPoint
            | MethodSpec::WaveletPrefix
            | MethodSpec::WaveletRange
            | MethodSpec::WaveletRangeGreedy => return None,
        })
    }

    /// Builds the wavelet family of `self` with `b` retained coefficients
    /// under `budget`. Panics on histogram variants (callers dispatch those
    /// to the histogram ladder first).
    fn build_wavelet_with_budget(
        &self,
        values: &[i64],
        ps: &PrefixSums,
        b: usize,
        budget: &Budget,
    ) -> Result<Box<dyn RangeEstimator>> {
        Ok(match self {
            MethodSpec::WaveletPoint => {
                Box::new(PointWaveletSynopsis::build_with_budget(values, b, budget)?)
            }
            MethodSpec::WaveletPrefix => {
                Box::new(PrefixWaveletSynopsis::build_with_budget(ps, b, budget)?)
            }
            MethodSpec::WaveletRange => {
                Box::new(RangeOptimalWavelet::build_with_budget(ps, b, budget)?)
            }
            MethodSpec::WaveletRangeGreedy => Box::new(
                synoptic_wavelet::build_range_greedy_with_budget(ps, b, budget)?,
            ),
            _ => unreachable!("histograms handled above"),
        })
    }

    /// Like [`MethodSpec::build_at_budget`] but under execution control,
    /// returning the estimator together with its [`BuildOutcome`]
    /// provenance. Everything runs through one [`run_ladder`], so the
    /// step-down rule is the runner's. A histogram method descends its
    /// [`fallback_ladder`]. A wavelet method's ladder first retries the
    /// *same* family at half the coefficient count — truncating to the top
    /// `B/2` coefficients is the wavelet-native degradation, typically far
    /// cheaper than the full-B selection — and then falls into the
    /// histogram ladder at the equi-depth tier. Every abandoned rung is
    /// recorded in [`BuildOutcome::attempts`] (the truncation rung as
    /// `"NAME(B/2)"`). Unconstrained `params` reproduce
    /// [`MethodSpec::build_at_budget`] bit-for-bit.
    pub fn build_tracked(
        &self,
        values: &[i64],
        ps: &PrefixSums,
        budget_words: usize,
        params: &AnytimeParams,
    ) -> Result<(Box<dyn RangeEstimator>, BuildOutcome)> {
        let histogram_rungs = |hm| {
            fallback_ladder(hm)
                .into_iter()
                .map(|(m, e)| (Rung::Histogram(m), e))
        };
        let ladder: Vec<(Rung, bool)> = match self.histogram_method() {
            Some(hm) => histogram_rungs(hm).collect(),
            None => {
                let b = coeffs_for_budget(budget_words)?;
                let truncated = (b / 2 >= 1).then_some((Rung::Truncated(b / 2), true));
                std::iter::once((Rung::Wavelet(b), true))
                    .chain(truncated)
                    .chain(histogram_rungs(HistogramMethod::EquiDepth))
                    .collect()
            }
        };
        run_ladder(
            self.name(),
            &ladder,
            params,
            |rung| match rung {
                Rung::Wavelet(_) => self.name().to_string(),
                Rung::Truncated(_) => format!("{}(B/2)", self.name()),
                Rung::Histogram(m) => m.name().to_string(),
            },
            |rung, budget| match *rung {
                Rung::Wavelet(c) | Rung::Truncated(c) => {
                    self.build_wavelet_with_budget(values, ps, c, budget)
                }
                Rung::Histogram(m) => build_with_budget(m, values, ps, budget_words, budget),
            },
        )
    }
}

/// One rung of [`MethodSpec::build_tracked`]'s ladder.
enum Rung {
    /// The requested wavelet family at its full coefficient count.
    Wavelet(usize),
    /// The same family truncated to half the coefficients.
    Truncated(usize),
    /// A histogram method at the full word budget.
    Histogram(HistogramMethod),
}

/// Exact all-ranges SSE of an estimator (brute force through the public
/// interface — `O(n²)` queries, exact for every answering procedure, and
/// cheap at the paper's scale).
pub fn exact_sse(est: &dyn RangeEstimator, ps: &PrefixSums) -> f64 {
    synoptic_core::sse::sse_brute(&est, ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_data::zipf::{paper_dataset, ZipfConfig};

    #[test]
    fn every_method_builds_on_the_paper_dataset() {
        let cfg = ZipfConfig {
            n: 32, // keep the unit test quick; binaries use the full 127
            ..ZipfConfig::default()
        };
        let d = paper_dataset(&cfg);
        let ps = d.prefix_sums();
        for m in MethodSpec::all() {
            let est = m.build_at_budget(d.values(), &ps, 12).unwrap();
            let sse = exact_sse(est.as_ref(), &ps);
            assert!(sse.is_finite() && sse >= 0.0, "{}", m.name());
        }
    }

    #[test]
    fn budgets_are_respected() {
        let cfg = ZipfConfig {
            n: 32,
            ..ZipfConfig::default()
        };
        let d = paper_dataset(&cfg);
        let ps = d.prefix_sums();
        for m in MethodSpec::all() {
            for budget in [6, 10, 20] {
                let est = m.build_at_budget(d.values(), &ps, budget).unwrap();
                assert!(
                    est.storage_words() <= budget,
                    "{} at {budget}: used {}",
                    m.name(),
                    est.storage_words()
                );
            }
        }
    }

    #[test]
    fn tiny_budgets_error_cleanly() {
        let d = paper_dataset(&ZipfConfig {
            n: 16,
            ..ZipfConfig::default()
        });
        let ps = d.prefix_sums();
        assert!(MethodSpec::Sap1
            .build_at_budget(d.values(), &ps, 3)
            .is_err());
        assert!(MethodSpec::WaveletRange
            .build_at_budget(d.values(), &ps, 1)
            .is_err());
    }

    #[test]
    fn tracked_unconstrained_matches_build_at_budget() {
        use synoptic_core::RangeQuery;
        let d = paper_dataset(&ZipfConfig {
            n: 32,
            ..ZipfConfig::default()
        });
        let ps = d.prefix_sums();
        for m in MethodSpec::all() {
            let plain = m.build_at_budget(d.values(), &ps, 14).unwrap();
            let (tracked, outcome) = m
                .build_tracked(d.values(), &ps, 14, &AnytimeParams::unconstrained())
                .unwrap();
            assert!(!outcome.is_degraded(), "{}: {outcome}", m.name());
            assert_eq!(outcome.used, m.name());
            for q in RangeQuery::all(32) {
                assert_eq!(
                    plain.estimate(q).to_bits(),
                    tracked.estimate(q).to_bits(),
                    "{} at {q:?}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn tracked_wavelet_falls_into_histogram_ladder_under_tiny_cap() {
        let d = paper_dataset(&ZipfConfig {
            n: 32,
            ..ZipfConfig::default()
        });
        let ps = d.prefix_sums();
        let params = AnytimeParams::unconstrained().with_max_cells(1);
        for m in [
            MethodSpec::WaveletRange,
            MethodSpec::WaveletPoint,
            MethodSpec::WaveletPrefix,
            MethodSpec::WaveletRangeGreedy,
        ] {
            let (est, outcome) = m.build_tracked(d.values(), &ps, 14, &params).unwrap();
            assert!(outcome.is_degraded(), "{}: {outcome}", m.name());
            assert_eq!(outcome.requested, m.name());
            assert_eq!(outcome.attempts.first().unwrap().method, m.name());
            // The B/2 truncation rung is tried (and abandoned) before the
            // histogram ladder takes over.
            assert_eq!(
                outcome.attempts[1].method,
                format!("{}(B/2)", m.name()),
                "{outcome}"
            );
            assert!(outcome.tier >= 2, "{outcome}");
            assert!(exact_sse(est.as_ref(), &ps).is_finite());
        }
    }

    #[test]
    fn tracked_wavelet_b_half_rung_catches_a_mid_sized_cap() {
        use synoptic_core::Budget;
        let d = paper_dataset(&ZipfConfig {
            n: 32,
            ..ZipfConfig::default()
        });
        let ps = d.prefix_sums();
        // Greedy selection charges per round, so the B/2 build is strictly
        // cheaper than the full-B build. Meter both to pick a cap that
        // kills full B but admits B/2.
        let full = Budget::unlimited();
        synoptic_wavelet::build_range_greedy_with_budget(&ps, 7, &full).unwrap();
        let half = Budget::unlimited();
        synoptic_wavelet::build_range_greedy_with_budget(&ps, 3, &half).unwrap();
        let (c_full, c_half) = (full.cells_used(), half.cells_used());
        assert!(
            c_half < c_full,
            "need separable costs: {c_half} vs {c_full}"
        );
        let params = AnytimeParams::unconstrained().with_max_cells(c_full - 1);
        let (est, outcome) = MethodSpec::WaveletRangeGreedy
            .build_tracked(d.values(), &ps, 14, &params)
            .unwrap();
        assert_eq!(outcome.used, "TOPBB-GREEDY(B/2)", "{outcome}");
        assert_eq!(outcome.tier, 1, "{outcome}");
        assert_eq!(outcome.attempts.len(), 1);
        assert_eq!(outcome.attempts[0].method, "TOPBB-GREEDY");
        assert!(est.storage_words() <= 14);
        assert!(exact_sse(est.as_ref(), &ps).is_finite());
    }

    #[test]
    fn tracked_cancellation_propagates() {
        use synoptic_core::{CancelToken, SynopticError};
        let d = paper_dataset(&ZipfConfig {
            n: 32,
            ..ZipfConfig::default()
        });
        let ps = d.prefix_sums();
        let token = CancelToken::new();
        token.cancel();
        let params = AnytimeParams::unconstrained().with_cancel_token(token);
        for m in [MethodSpec::OptA, MethodSpec::WaveletRange] {
            let err = m
                .build_tracked(d.values(), &ps, 14, &params)
                .err()
                .expect("cancellation must propagate");
            assert!(matches!(err, SynopticError::Cancelled), "{}", m.name());
        }
    }

    #[test]
    fn figure1_set_matches_paper() {
        let names: Vec<&str> = MethodSpec::paper_figure1()
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(
            names,
            vec!["NAIVE", "POINT-OPT", "A0", "SAP0", "SAP1", "OPT-A", "TOPBB"]
        );
    }
}
