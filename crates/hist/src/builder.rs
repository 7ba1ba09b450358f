//! A unified, budget-aware construction facade.
//!
//! Experiments compare methods at equal **storage budgets** (machine words),
//! not equal bucket counts, because the representations store different
//! numbers of values per bucket (paper §4, Figure 1's x-axis). This module
//! maps `(method, budget)` to a concrete construction with
//! `B = ⌊budget / words_per_bucket⌋` buckets.

use std::time::{Duration, Instant};

use synoptic_core::{
    Budget, BuildAttempt, BuildOutcome, CancelToken, NaiveEstimator, PrefixSums, RangeEstimator,
    Result, RoundingMode, SynopticError,
};

use crate::a0::build_a0_with_budget;
use crate::heuristics::{build_equi_depth, build_equi_width, build_max_diff};
use crate::opta::{build_opt_a_with_budget, OptAConfig};
use crate::opta_rounded::build_opt_a_rounded_eps_with_budget;
use crate::reopt::reoptimize_with_budget;
use crate::sap0::build_sap0_with_budget;
use crate::sap1::build_sap1_with_budget;
use crate::vopt::{build_point_opt_with_budget, PointWeighting};

/// The histogram families exposed through [`build_with_budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HistogramMethod {
    /// Single global average (1 word).
    Naive,
    /// Equal-width buckets (2 words/bucket).
    EquiWidth,
    /// Mass-balanced buckets (2 words/bucket).
    EquiDepth,
    /// Boundaries at the largest adjacent differences (2 words/bucket).
    MaxDiff,
    /// Classical point-query V-optimal histogram (2 words/bucket).
    VOptUniform,
    /// The paper's POINT-OPT: V-optimal with range-inclusion weights
    /// (2 words/bucket).
    PointOpt,
    /// The paper's A0 heuristic (2 words/bucket).
    A0,
    /// Range-optimal SAP0 (3 words/bucket).
    Sap0,
    /// Range-optimal SAP1 (5 words/bucket).
    Sap1,
    /// Range-optimal OPT-A, unrounded answering (2 words/bucket).
    OptA,
    /// Range-optimal OPT-A with the paper's integral answering
    /// (2 words/bucket).
    OptAIntegral,
    /// OPT-A-ROUNDED with approximation parameter ε (2 words/bucket).
    OptARounded {
        /// Target approximation parameter.
        eps: f64,
    },
    /// OPT-A boundaries with §5 re-optimized values (2 words/bucket).
    OptAReopt,
    /// A0 boundaries with §5 re-optimized values (2 words/bucket).
    A0Reopt,
    /// OPT-A boundaries with per-bucket min/max for certified error
    /// intervals (4 words/bucket; extension).
    BoundedOptA,
}

impl HistogramMethod {
    /// Storage accounting: words consumed per bucket (paper's convention).
    pub fn words_per_bucket(&self) -> usize {
        match self {
            HistogramMethod::Naive => 1,
            HistogramMethod::Sap0 => 3,
            HistogramMethod::BoundedOptA => 4,
            HistogramMethod::Sap1 => 5,
            _ => 2,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            HistogramMethod::Naive => "NAIVE",
            HistogramMethod::EquiWidth => "EQUI-WIDTH",
            HistogramMethod::EquiDepth => "EQUI-DEPTH",
            HistogramMethod::MaxDiff => "MAX-DIFF",
            HistogramMethod::VOptUniform => "V-OPT",
            HistogramMethod::PointOpt => "POINT-OPT",
            HistogramMethod::A0 => "A0",
            HistogramMethod::Sap0 => "SAP0",
            HistogramMethod::Sap1 => "SAP1",
            HistogramMethod::OptA => "OPT-A",
            HistogramMethod::OptAIntegral => "OPT-A(int)",
            HistogramMethod::OptARounded { .. } => "OPT-A-ROUNDED",
            HistogramMethod::OptAReopt => "OPT-A-reopt",
            HistogramMethod::A0Reopt => "A0-reopt",
            HistogramMethod::BoundedOptA => "BOUNDED",
        }
    }

    /// Bucket count affordable within `budget_words`, clamped to `[1, n]`.
    /// Refuses an empty domain and a budget below one bucket's words.
    pub fn buckets_for_budget(&self, budget_words: usize, n: usize) -> Result<usize> {
        if n == 0 {
            return Err(SynopticError::EmptyInput);
        }
        let wpb = self.words_per_bucket();
        if budget_words < wpb {
            return Err(SynopticError::BudgetTooSmall {
                words: budget_words,
                minimum: wpb,
            });
        }
        Ok((budget_words / wpb).clamp(1, n))
    }
}

/// Builds the requested method within `budget_words` of storage. Every DP
/// inside the requested method charges `budget` at its checkpoints and
/// aborts with the budget's error once it is exhausted; pass
/// [`Budget::unlimited`] for an unconstrained build.
pub fn build_with_budget(
    method: HistogramMethod,
    values: &[i64],
    ps: &PrefixSums,
    budget_words: usize,
    budget: &Budget,
) -> Result<Box<dyn RangeEstimator>> {
    let n = ps.n();
    let b = method.buckets_for_budget(budget_words, n)?;
    Ok(match method {
        HistogramMethod::Naive => {
            budget.check()?;
            Box::new(NaiveEstimator::new(ps))
        }
        HistogramMethod::EquiWidth => {
            budget.charge(n as u64)?;
            Box::new(build_equi_width(ps, b)?)
        }
        HistogramMethod::EquiDepth => {
            budget.charge(n as u64)?;
            Box::new(build_equi_depth(ps, b)?)
        }
        HistogramMethod::MaxDiff => {
            budget.charge(n as u64)?;
            Box::new(build_max_diff(values, ps, b)?)
        }
        HistogramMethod::VOptUniform => {
            Box::new(build_point_opt_with_budget(values, b, PointWeighting::Uniform, budget)?.0)
        }
        HistogramMethod::PointOpt => Box::new(
            build_point_opt_with_budget(values, b, PointWeighting::RangeInclusion, budget)?.0,
        ),
        HistogramMethod::A0 => Box::new(build_a0_with_budget(ps, b, budget)?.0),
        HistogramMethod::Sap0 => Box::new(build_sap0_with_budget(ps, b, budget)?.0),
        HistogramMethod::Sap1 => Box::new(build_sap1_with_budget(ps, b, budget)?.0),
        HistogramMethod::OptA => Box::new(
            build_opt_a_with_budget(ps, &OptAConfig::exact(b, RoundingMode::None), budget)?
                .histogram,
        ),
        HistogramMethod::OptAIntegral => Box::new(
            build_opt_a_with_budget(ps, &OptAConfig::exact(b, RoundingMode::NearestInt), budget)?
                .histogram,
        ),
        HistogramMethod::OptARounded { eps } => {
            Box::new(build_opt_a_rounded_eps_with_budget(ps, values, b, eps, budget)?.histogram)
        }
        HistogramMethod::OptAReopt => {
            let base =
                build_opt_a_with_budget(ps, &OptAConfig::exact(b, RoundingMode::None), budget)?;
            Box::new(
                reoptimize_with_budget(base.histogram.bucketing(), ps, "OPT-A", budget)?.histogram,
            )
        }
        HistogramMethod::A0Reopt => {
            let (base, _) = build_a0_with_budget(ps, b, budget)?;
            Box::new(reoptimize_with_budget(base.bucketing(), ps, "A0", budget)?.histogram)
        }
        HistogramMethod::BoundedOptA => {
            let base =
                build_opt_a_with_budget(ps, &OptAConfig::exact(b, RoundingMode::None), budget)?;
            budget.charge(n as u64)?; // min/max scan
            Box::new(synoptic_core::BoundedHistogram::build(
                base.histogram.bucketing().clone(),
                values,
                ps,
            )?)
        }
    })
}

/// Execution-control parameters for an anytime build: constraints applied
/// *per ladder rung* (each attempt gets a fresh allowance), plus a shared
/// cancellation token that aborts the whole ladder.
#[derive(Debug, Clone, Default)]
pub struct AnytimeParams {
    /// Wall-clock allowance per attempt. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// DP-cell allowance per attempt. `None` = no cap.
    pub max_cells: Option<u64>,
    /// Cooperative cancellation, observed at every checkpoint of every
    /// rung. Cancellation *propagates* — the ladder never substitutes a
    /// weaker synopsis for an explicit abort.
    pub cancel: Option<CancelToken>,
}

impl AnytimeParams {
    /// No constraints: [`build_anytime`] behaves exactly like
    /// [`build_with_budget`] with [`Budget::unlimited`].
    pub fn unconstrained() -> Self {
        Self::default()
    }

    /// Sets the per-attempt wall-clock allowance.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Sets the per-attempt DP-cell allowance.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: u64) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// Attaches a cancellation token shared by every rung.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether any constraint is configured.
    pub fn is_unconstrained(&self) -> bool {
        self.deadline.is_none() && self.max_cells.is_none() && self.cancel.is_none()
    }

    /// A fresh [`Budget`] for one attempt. When `enforce` is false only
    /// the cancel token applies: a terminal ladder rung must not fail on
    /// resources, or a tiny deadline could leave nothing to serve.
    pub fn budget_for_attempt(&self, enforce: bool) -> Budget {
        let mut budget = Budget::unlimited();
        if enforce {
            if let Some(d) = self.deadline {
                budget = budget.with_deadline(d);
            }
            if let Some(c) = self.max_cells {
                budget = budget.with_max_cells(c);
            }
        }
        if let Some(token) = &self.cancel {
            budget = budget.with_cancel_token(token.clone());
        }
        budget
    }
}

/// A synopsis together with its construction provenance.
pub struct AnytimeResult {
    /// The best synopsis the ladder completed.
    pub estimator: Box<dyn RangeEstimator>,
    /// Which rung produced it, what was abandoned, and what it cost.
    pub outcome: BuildOutcome,
}

/// The quality ladder for a requested method: the method itself first, then
/// progressively cheaper constructions, ending in the greedy/naive safety
/// net. The boolean marks rungs where the per-attempt constraints are
/// *enforced*; the terminal greedy/naive rungs run them off (they are
/// `O(n log n)` / `O(1)`), so the ladder always bottoms out with a usable
/// synopsis instead of failing on an already-spent deadline.
pub fn fallback_ladder(method: HistogramMethod) -> Vec<(HistogramMethod, bool)> {
    let mut ladder: Vec<(HistogramMethod, bool)> = vec![(method, true)];
    match method {
        HistogramMethod::OptA
        | HistogramMethod::OptAIntegral
        | HistogramMethod::OptAReopt
        | HistogramMethod::BoundedOptA => {
            ladder.push((HistogramMethod::OptARounded { eps: 0.25 }, true));
            ladder.push((HistogramMethod::Sap0, true));
            ladder.push((HistogramMethod::A0, true));
        }
        HistogramMethod::OptARounded { .. } => {
            ladder.push((HistogramMethod::Sap0, true));
            ladder.push((HistogramMethod::A0, true));
        }
        HistogramMethod::Sap1 => {
            ladder.push((HistogramMethod::Sap0, true));
        }
        HistogramMethod::Sap0
        | HistogramMethod::A0
        | HistogramMethod::A0Reopt
        | HistogramMethod::VOptUniform
        | HistogramMethod::PointOpt => {}
        HistogramMethod::EquiWidth
        | HistogramMethod::EquiDepth
        | HistogramMethod::MaxDiff
        | HistogramMethod::Naive => {
            // Already at (or below) the greedy tier; fall straight to naive.
        }
    }
    if method != HistogramMethod::EquiDepth && method != HistogramMethod::Naive {
        ladder.push((HistogramMethod::EquiDepth, false));
    }
    // Always terminate with an unconstrained naive rung (even when naive
    // itself was requested): O(1) work, so the ladder can guarantee a
    // usable synopsis under any deadline short of explicit cancellation.
    ladder.push((HistogramMethod::Naive, false));
    ladder
}

/// Builds `method` under the paper's anytime quality ladder
/// (OPT-A → OPT-A-ROUNDED → SAP0/A0 → greedy → naive).
///
/// Semantics:
/// * **Unconstrained** ([`AnytimeParams::unconstrained`]): bit-identical to
///   [`build_with_budget`] with [`Budget::unlimited`] — same code path,
///   never degrades, `tier = 0`.
/// * **Deadline / cell cap exhausted** on a rung: the attempt is recorded
///   in the returned [`BuildOutcome`] and the next (cheaper) rung runs with
///   a fresh allowance. The terminal greedy/naive rungs run without
///   resource constraints, so the ladder always returns *some* synopsis.
/// * **Cancellation**: propagates immediately as
///   [`SynopticError::Cancelled`] — explicit user intent is never papered
///   over with a weaker synopsis.
/// * Non-budget build errors on a rung (e.g. a storage budget too small
///   for that representation's words-per-bucket) also descend the ladder,
///   because a cheaper representation may fit; if even the naive rung
///   fails, its error propagates.
pub fn build_anytime(
    method: HistogramMethod,
    values: &[i64],
    ps: &PrefixSums,
    budget_words: usize,
    params: &AnytimeParams,
) -> Result<AnytimeResult> {
    let started = Instant::now();
    let mut attempts: Vec<BuildAttempt> = Vec::new();
    let mut total_cells: u64 = 0;
    let ladder = fallback_ladder(method);
    let last = ladder.len() - 1;
    for (tier, &(rung, enforce)) in ladder.iter().enumerate() {
        let budget = params.budget_for_attempt(enforce);
        let attempt_started = Instant::now();
        match build_with_budget(rung, values, ps, budget_words, &budget) {
            Ok(estimator) => {
                total_cells = total_cells.saturating_add(budget.cells_used());
                let outcome = BuildOutcome {
                    requested: method.name().to_string(),
                    used: rung.name().to_string(),
                    tier,
                    attempts,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                    cells: total_cells,
                };
                return Ok(AnytimeResult { estimator, outcome });
            }
            Err(SynopticError::Cancelled) => return Err(SynopticError::Cancelled),
            Err(err) if tier < last => {
                total_cells = total_cells.saturating_add(budget.cells_used());
                attempts.push(BuildAttempt {
                    method: rung.name().to_string(),
                    error: err.to_string(),
                    elapsed_ms: attempt_started.elapsed().as_millis() as u64,
                    cells: budget.cells_used(),
                });
            }
            Err(err) => return Err(err),
        }
    }
    unreachable!("ladder always has at least one rung")
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::sse_brute;

    fn all_methods() -> Vec<HistogramMethod> {
        vec![
            HistogramMethod::Naive,
            HistogramMethod::EquiWidth,
            HistogramMethod::EquiDepth,
            HistogramMethod::MaxDiff,
            HistogramMethod::VOptUniform,
            HistogramMethod::PointOpt,
            HistogramMethod::A0,
            HistogramMethod::Sap0,
            HistogramMethod::Sap1,
            HistogramMethod::OptA,
            HistogramMethod::OptAIntegral,
            HistogramMethod::OptARounded { eps: 0.25 },
            HistogramMethod::OptAReopt,
            HistogramMethod::A0Reopt,
            HistogramMethod::BoundedOptA,
        ]
    }

    #[test]
    fn every_method_builds_within_budget() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1, 7, 7, 3, 9];
        let ps = PrefixSums::from_values(&vals);
        for m in all_methods() {
            let est = build_with_budget(m, &vals, &ps, 12, &Budget::unlimited()).unwrap();
            assert!(
                est.storage_words() <= 12 || matches!(m, HistogramMethod::Naive),
                "{} used {} words",
                m.name(),
                est.storage_words()
            );
            let sse = sse_brute(&est, &ps);
            assert!(sse.is_finite() && sse >= 0.0, "{}", m.name());
        }
    }

    #[test]
    fn empty_domain_is_refused_not_panicked_by_every_method() {
        let ps = PrefixSums::from_values(&[]);
        let params = AnytimeParams::unconstrained().with_max_cells(1_000);
        for m in all_methods() {
            let direct = build_with_budget(m, &[], &ps, 12, &Budget::unlimited());
            assert_eq!(
                direct.err(),
                Some(SynopticError::EmptyInput),
                "{}",
                m.name()
            );
            let anytime = build_anytime(m, &[], &ps, 12, &params);
            assert_eq!(
                anytime.err(),
                Some(SynopticError::EmptyInput),
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn budget_accounting_matches_words_per_bucket() {
        assert_eq!(
            HistogramMethod::Sap0.buckets_for_budget(12, 100).unwrap(),
            4
        );
        assert_eq!(
            HistogramMethod::Sap1.buckets_for_budget(12, 100).unwrap(),
            2
        );
        assert_eq!(
            HistogramMethod::OptA.buckets_for_budget(12, 100).unwrap(),
            6
        );
        assert_eq!(HistogramMethod::OptA.buckets_for_budget(12, 4).unwrap(), 4);
        assert!(HistogramMethod::Sap1.buckets_for_budget(4, 100).is_err());
    }

    #[test]
    fn optimal_methods_dominate_naive() {
        let vals = vec![40i64, 1, 2, 1, 0, 0, 33, 35, 2, 1, 1, 0, 28, 3, 1, 2];
        let ps = PrefixSums::from_values(&vals);
        let unlimited = Budget::unlimited();
        let naive = build_with_budget(HistogramMethod::Naive, &vals, &ps, 2, &unlimited).unwrap();
        let naive = sse_brute(&naive, &ps);
        for m in [
            HistogramMethod::OptA,
            HistogramMethod::Sap0,
            HistogramMethod::Sap1,
            HistogramMethod::OptAReopt,
        ] {
            let sse = sse_brute(
                &build_with_budget(m, &vals, &ps, 12, &unlimited).unwrap(),
                &ps,
            );
            assert!(
                sse < naive,
                "{} at 12 words ({sse}) should beat NAIVE ({naive})",
                m.name()
            );
        }
    }

    #[test]
    fn reopt_never_worse_than_its_base() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1];
        let ps = PrefixSums::from_values(&vals);
        let unlimited = Budget::unlimited();
        let base = build_with_budget(HistogramMethod::OptA, &vals, &ps, 8, &unlimited).unwrap();
        let re = build_with_budget(HistogramMethod::OptAReopt, &vals, &ps, 8, &unlimited).unwrap();
        let (base, re) = (sse_brute(&base, &ps), sse_brute(&re, &ps));
        assert!(re <= base + 1e-6, "reopt {re} vs base {base}");
    }

    #[test]
    fn anytime_unconstrained_is_bit_identical_to_build() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1, 7, 7, 3, 9];
        let ps = PrefixSums::from_values(&vals);
        for m in all_methods() {
            let direct = build_with_budget(m, &vals, &ps, 12, &Budget::unlimited()).unwrap();
            let anytime =
                build_anytime(m, &vals, &ps, 12, &AnytimeParams::unconstrained()).unwrap();
            assert_eq!(anytime.outcome.tier, 0, "{}", m.name());
            assert!(!anytime.outcome.is_degraded(), "{}", m.name());
            assert_eq!(anytime.outcome.used, m.name());
            assert_eq!(anytime.outcome.requested, m.name());
            assert!(anytime.outcome.attempts.is_empty());
            // Bit-identical estimates on every range.
            for q in synoptic_core::RangeQuery::all(vals.len()) {
                assert_eq!(
                    direct.estimate(q).to_bits(),
                    anytime.estimator.estimate(q).to_bits(),
                    "{} at {q:?}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn anytime_tiny_cell_cap_descends_the_ladder_with_provenance() {
        let vals: Vec<i64> = (0..48).map(|i| (i * i * 31 + 7 * i) % 97).collect();
        let ps = PrefixSums::from_values(&vals);
        // A cap that kills every DP rung but spares nothing: the ladder must
        // bottom out at the unconstrained greedy tier.
        let params = AnytimeParams::unconstrained().with_max_cells(3);
        let r = build_anytime(HistogramMethod::OptA, &vals, &ps, 12, &params).unwrap();
        assert!(r.outcome.is_degraded());
        assert_eq!(r.outcome.requested, "OPT-A");
        assert!(
            r.outcome.used == "EQUI-DEPTH" || r.outcome.used == "NAIVE",
            "used {}",
            r.outcome.used
        );
        assert_eq!(r.outcome.attempts.len(), r.outcome.tier);
        assert_eq!(r.outcome.attempts[0].method, "OPT-A");
        assert!(r.outcome.attempts[0].error.contains("cell budget"));
        // The synopsis is usable.
        let sse = sse_brute(&r.estimator, &ps);
        assert!(sse.is_finite() && sse >= 0.0);
    }

    #[test]
    fn anytime_generous_cap_stops_at_an_intermediate_rung() {
        let vals: Vec<i64> = (0..48)
            .map(|i| (i * 13 + (i % 5) * 40) as i64 % 83)
            .collect();
        let ps = PrefixSums::from_values(&vals);
        // Measure what each rung needs, then pick a cap between SAP0's need
        // and OPT-A's need so the ladder stops exactly at SAP0.
        let opta_cost = {
            let b = Budget::unlimited();
            build_with_budget(HistogramMethod::OptA, &vals, &ps, 12, &b).unwrap();
            b.cells_used()
        };
        let sap0_cost = {
            let b = Budget::unlimited();
            build_with_budget(HistogramMethod::Sap0, &vals, &ps, 12, &b).unwrap();
            b.cells_used()
        };
        let rounded_cost = {
            let b = Budget::unlimited();
            build_with_budget(
                HistogramMethod::OptARounded { eps: 0.25 },
                &vals,
                &ps,
                12,
                &b,
            )
            .unwrap();
            b.cells_used()
        };
        assert!(sap0_cost < opta_cost, "{sap0_cost} vs {opta_cost}");
        if sap0_cost < rounded_cost && rounded_cost.min(opta_cost) > sap0_cost {
            let cap = sap0_cost.max(1);
            let params = AnytimeParams::unconstrained().with_max_cells(cap);
            let r = build_anytime(HistogramMethod::OptA, &vals, &ps, 12, &params).unwrap();
            assert!(r.outcome.is_degraded());
            assert_eq!(r.outcome.used, "SAP0", "outcome {:?}", r.outcome);
        }
    }

    #[test]
    fn anytime_cancellation_propagates_instead_of_degrading() {
        use synoptic_core::CancelToken;
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let ps = PrefixSums::from_values(&vals);
        let token = CancelToken::new();
        token.cancel();
        let params = AnytimeParams::unconstrained().with_cancel_token(token);
        match build_anytime(HistogramMethod::OptA, &vals, &ps, 12, &params) {
            Err(SynopticError::Cancelled) => {}
            other => panic!("expected Cancelled, got {:?}", other.map(|r| r.outcome)),
        }
    }

    #[test]
    fn ladder_shapes_are_sensible() {
        let l = fallback_ladder(HistogramMethod::OptA);
        let names: Vec<&str> = l.iter().map(|(m, _)| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "OPT-A",
                "OPT-A-ROUNDED",
                "SAP0",
                "A0",
                "EQUI-DEPTH",
                "NAIVE"
            ]
        );
        // Constraints enforced on DP rungs, lifted on the safety net.
        assert!(l[..4].iter().all(|&(_, e)| e));
        assert!(l[4..].iter().all(|&(_, e)| !e));
        // Every ladder terminates in an unconstrained naive rung.
        for m in all_methods() {
            let l = fallback_ladder(m);
            let (last, enforce) = *l.last().unwrap();
            assert_eq!(last.name(), "NAIVE", "{}", m.name());
            assert!(!enforce);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(HistogramMethod::OptA.name(), "OPT-A");
        assert_eq!(
            HistogramMethod::OptARounded { eps: 0.1 }.name(),
            "OPT-A-ROUNDED"
        );
    }
}
