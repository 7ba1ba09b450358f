//! Cancellation is *clean* at every checkpoint: a seeded sweep arms
//! [`CancelToken::cancel_after_checks`] at each checkpoint index an OPT-A
//! anytime build observes, and asserts the result is always either a
//! bit-identical complete synopsis (token never tripped) or a bare
//! [`SynopticError::Cancelled`] — never a partial DP table leaking into an
//! estimator, and never a silent downgrade papering over an explicit abort.
//!
//! A second sweep drives the *resource* failure mode (the DP-cell cap)
//! through every possible exhaustion point and asserts the anytime ladder
//! always lands on a usable, budget-respecting synopsis with consistent
//! provenance.

use synoptic_core::rng::Rng;
use synoptic_core::{Budget, CancelToken, PrefixSums, RangeEstimator, RangeQuery, SynopticError};
use synoptic_hist::builder::{build_anytime, build_with_budget, AnytimeParams, HistogramMethod};

const BUDGET_WORDS: usize = 10;

fn rand_values(rng: &mut Rng) -> Vec<i64> {
    let n = rng.usize_in(5, 14);
    (0..n).map(|_| rng.i64_in(0, 99)).collect()
}

/// Every range estimate of `est`, as exact bit patterns.
fn all_estimates_bits(est: &dyn RangeEstimator, n: usize) -> Vec<u64> {
    let mut bits = Vec::with_capacity(n * (n + 1) / 2);
    for lo in 0..n {
        for hi in lo..n {
            bits.push(est.estimate(RangeQuery { lo, hi }).to_bits());
        }
    }
    bits
}

/// Checkpoints observed by an unconstrained tier-0 OPT-A build. Each
/// [`Budget::charge`] is exactly one checkpoint and (when a token is
/// attached) exactly one token observation, so this is also the number of
/// observations a never-tripping token would see on the direct path.
fn opt_a_checkpoints(values: &[i64], ps: &PrefixSums) -> u64 {
    let budget = Budget::unlimited();
    build_with_budget(HistogramMethod::OptA, values, ps, BUDGET_WORDS, &budget)
        .expect("unconstrained OPT-A build succeeds");
    budget.checks_performed()
}

#[test]
fn cancellation_at_every_checkpoint_is_all_or_nothing() {
    for case in 0..8u64 {
        let mut rng = Rng::new(0x005E_EDC0 + case);
        let values = rand_values(&mut rng);
        let n = values.len();
        let ps = PrefixSums::from_values(&values);
        let total = opt_a_checkpoints(&values, &ps);
        assert!(total > 0, "case {case}: OPT-A observed no checkpoints");

        let reference = build_with_budget(
            HistogramMethod::OptA,
            &values,
            &ps,
            BUDGET_WORDS,
            &Budget::unlimited(),
        )
        .unwrap();
        let reference_bits = all_estimates_bits(reference.as_ref(), n);

        // k < total: the token trips mid-build. The contract is a bare
        // `Cancelled` — the ladder must not substitute a weaker synopsis
        // for an explicit abort, and no partial DP state may escape.
        // k >= total: the token never trips and the result must be
        // bit-identical to the unconstrained build.
        for k in 0..=total {
            let token = CancelToken::new();
            token.cancel_after_checks(k);
            let params = AnytimeParams::unconstrained().with_cancel_token(token);
            let result = build_anytime(HistogramMethod::OptA, &values, &ps, BUDGET_WORDS, &params);
            if k < total {
                match result {
                    Err(SynopticError::Cancelled) => {}
                    Err(other) => {
                        panic!("case {case}, k={k}: expected Cancelled, got {other}")
                    }
                    Ok(r) => panic!(
                        "case {case}, k={k}: cancellation was papered over with {}",
                        r.outcome
                    ),
                }
            } else {
                let r = result.unwrap_or_else(|e| {
                    panic!("case {case}, k={k}: untripped token failed build: {e}")
                });
                assert_eq!(r.outcome.tier, 0, "case {case}: degraded without cause");
                assert_eq!(r.outcome.used, "OPT-A");
                assert!(r.outcome.attempts.is_empty());
                assert_eq!(
                    all_estimates_bits(r.estimator.as_ref(), n),
                    reference_bits,
                    "case {case}: untripped token changed the synopsis"
                );
            }
        }
    }
}

#[test]
fn cell_cap_at_every_exhaustion_point_yields_valid_synopsis() {
    for case in 0..4u64 {
        let mut rng = Rng::new(0x005E_EDD0 + case);
        let values = rand_values(&mut rng);
        let n = values.len();
        let ps = PrefixSums::from_values(&values);

        // Total cells the direct OPT-A path charges; capping anywhere at
        // or beyond this never degrades, capping below may.
        let probe = Budget::unlimited();
        build_with_budget(HistogramMethod::OptA, &values, &ps, BUDGET_WORDS, &probe).unwrap();
        let direct_cells = probe.cells_used();
        assert!(direct_cells > 0);

        for cap in 0..=direct_cells {
            let params = AnytimeParams::unconstrained().with_max_cells(cap);
            let r = build_anytime(HistogramMethod::OptA, &values, &ps, BUDGET_WORDS, &params)
                .unwrap_or_else(|e| panic!("case {case}, cap={cap}: ladder failed: {e}"));

            // Provenance is internally consistent: every abandoned rung is
            // on record, and the winning rung names itself.
            assert_eq!(r.outcome.requested, "OPT-A");
            assert_eq!(
                r.outcome.attempts.len(),
                r.outcome.tier,
                "case {case}, cap={cap}: tier/attempt mismatch ({})",
                r.outcome
            );
            if cap >= direct_cells {
                assert_eq!(r.outcome.tier, 0, "case {case}, cap={cap}: {}", r.outcome);
            }

            // Whatever rung won, the synopsis is whole: every range
            // estimate is finite and the storage contract holds.
            assert!(
                r.estimator.storage_words() <= BUDGET_WORDS,
                "case {case}, cap={cap}: {} words from {}",
                r.estimator.storage_words(),
                r.outcome.used
            );
            for &bits in &all_estimates_bits(r.estimator.as_ref(), n) {
                assert!(
                    f64::from_bits(bits).is_finite(),
                    "case {case}, cap={cap}: non-finite estimate from {}",
                    r.outcome.used
                );
            }
        }
    }
}
