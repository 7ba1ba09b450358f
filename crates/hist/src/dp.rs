//! The shared dynamic program for *bucket-additive* objectives: O(n²)
//! cost-oracle calls plus O(n²B) f64 min-plus steps, O(nB) memory plus an
//! O(n) column.
//!
//! When a histogram's total error is a sum of per-bucket costs that depend
//! only on the bucket's own `[l, r]` (plus the global `n`) — which the
//! paper's Decomposition Lemma establishes for SAP0/SAP1, which holds
//! trivially for point-query objectives, and which A0 *pretends* holds — the
//! optimal boundaries follow from the classical interval-partition DP of
//! Jagadish et al. (the paper's ref. 6):
//!
//! ```text
//! E(i, k) = min_{k−1 ≤ j < i}  E(j, k−1) + cost(j, i−1)
//! ```
//!
//! where `E(i, k)` is the best cost of covering the prefix `[0, i)` with
//! exactly `k` buckets and `cost(l, r)` is the (O(1)-oracle) cost of a bucket
//! over the inclusive index window `[l, r]`.
//!
//! The table is filled with the right end `i` outermost. For each `i` the
//! column `cost(j, i−1)`, `0 ≤ j < i`, is evaluated once and then shared by
//! the min-plus scans of every bucket count `k`, so each window's exact
//! (i128-backed) cost is computed once instead of once per `k`.

use synoptic_core::{Bucketing, Budget, Result, SynopticError};

/// Result of the bucket-additive DP: boundaries, the DP objective value, and
/// the number of buckets actually used.
#[derive(Debug, Clone)]
pub struct DpSolution {
    /// The optimal bucketing.
    pub bucketing: Bucketing,
    /// The DP objective value (the true SSE only when the objective is
    /// genuinely bucket-additive, e.g. SAP0/SAP1 — not A0).
    pub objective: f64,
}

/// Runs the interval-partition DP for a bucket-additive cost.
///
/// `cost(l, r)` must return the cost of a single bucket covering the
/// inclusive window `[l, r]`, `0 ≤ l ≤ r < n`. Uses **at most** `max_buckets`
/// buckets (fewer if that is cheaper, which can happen for costs that are not
/// monotone in the partition refinement).
///
/// # Complexity
///
/// `O(n²)` cost-oracle calls (each window once; only the `n` windows
/// starting at 0 when `max_buckets == 1`) plus `O(n² · max_buckets)` f64
/// min-plus steps, `O(n · max_buckets)` memory plus an `O(n)` column.
pub fn optimal_bucketing<C>(n: usize, max_buckets: usize, cost: C) -> Result<DpSolution>
where
    C: Fn(usize, usize) -> f64,
{
    optimal_bucketing_with_budget(n, max_buckets, cost, &Budget::unlimited())
}

/// [`optimal_bucketing`] under execution control: the DP charges its
/// [`Budget`] one checkpoint per `(k, i)` cell (counting the candidate
/// split points examined as work units) and aborts with the budget's error
/// at the first exhausted constraint. With [`Budget::unlimited`] this is
/// bit-identical to [`optimal_bucketing`].
pub fn optimal_bucketing_with_budget<C>(
    n: usize,
    max_buckets: usize,
    cost: C,
    budget: &Budget,
) -> Result<DpSolution>
where
    C: Fn(usize, usize) -> f64,
{
    if n == 0 {
        return Err(SynopticError::EmptyInput);
    }
    if max_buckets == 0 || max_buckets > n {
        return Err(SynopticError::InvalidBucketCount {
            buckets: max_buckets,
            n,
        });
    }
    let b = max_buckets;
    // e[k][i]: best cost covering [0, i) with exactly k buckets; usize::MAX
    // parents mark unreachable states.
    let mut e = vec![vec![f64::INFINITY; n + 1]; b + 1];
    let mut parent = vec![vec![usize::MAX; n + 1]; b + 1];
    e[0][0] = 0.0;
    // col[j] = cost(j, i − 1) for the current right end i.
    let mut col = vec![f64::INFINITY; n];
    for i in 1..=n {
        // With one bucket only E(0, 0) is finite, so only [0, i−1] is read.
        let reach = if b == 1 { 1 } else { i };
        for (j, c) in col.iter_mut().enumerate().take(reach) {
            *c = cost(j, i - 1);
        }
        // With k buckets we can cover at least k and at most n positions.
        for k in 1..=b.min(i) {
            budget.charge((i - (k - 1)) as u64)?;
            let mut best = f64::INFINITY;
            let mut best_j = usize::MAX;
            let (prev_row, col) = (&e[k - 1][..i], &col[..i]);
            #[allow(clippy::needless_range_loop)] // j is an index *and* a boundary value
            for j in (k - 1)..i {
                let prev = prev_row[j];
                if !prev.is_finite() {
                    continue;
                }
                let c = prev + col[j];
                if c < best {
                    best = c;
                    best_j = j;
                }
            }
            e[k][i] = best;
            parent[k][i] = best_j;
        }
    }
    best_solution(n, &e, &parent)
}

/// The best of the filled tables' "at most `b` buckets" states, with its
/// boundaries reconstructed from `parent`.
fn best_solution(n: usize, e: &[Vec<f64>], parent: &[Vec<usize>]) -> Result<DpSolution> {
    // Best over "at most b buckets".
    let (mut best_k, mut best) = (1, e[1][n]);
    for (k, ek) in e.iter().enumerate().skip(2) {
        if ek[n] < best {
            best = ek[n];
            best_k = k;
        }
    }
    // Reconstruct boundaries.
    let mut starts = Vec::with_capacity(best_k);
    let (mut i, mut k) = (n, best_k);
    while k > 0 {
        let j = parent[k][i];
        debug_assert_ne!(j, usize::MAX, "unreachable DP state in reconstruction");
        starts.push(j);
        i = j;
        k -= 1;
    }
    starts.reverse();
    Ok(DpSolution {
        bucketing: Bucketing::new(n, starts)?,
        objective: best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: enumerate all bucketings with ≤ b buckets.
    fn brute<C: Fn(usize, usize) -> f64 + Copy>(n: usize, b: usize, cost: C) -> f64 {
        fn rec<C: Fn(usize, usize) -> f64 + Copy>(
            start: usize,
            n: usize,
            left: usize,
            cost: C,
        ) -> f64 {
            if start == n {
                return 0.0;
            }
            if left == 0 {
                return f64::INFINITY;
            }
            let mut best = f64::INFINITY;
            for end in start..n {
                let c = cost(start, end) + rec(end + 1, n, left - 1, cost);
                if c < best {
                    best = c;
                }
            }
            best
        }
        rec(0, n, b, cost)
    }

    /// The `k`-outer fill order, which calls `cost(j, i−1)` afresh for
    /// every `k`: the differential reference for
    /// [`optimal_bucketing_with_budget`]'s column order.
    fn k_outer_reference<C: Fn(usize, usize) -> f64>(
        n: usize,
        b: usize,
        cost: C,
        budget: &Budget,
    ) -> Result<DpSolution> {
        let mut e = vec![vec![f64::INFINITY; n + 1]; b + 1];
        let mut parent = vec![vec![usize::MAX; n + 1]; b + 1];
        e[0][0] = 0.0;
        for k in 1..=b {
            for i in k..=n {
                budget.charge((i - (k - 1)) as u64)?;
                let mut best = f64::INFINITY;
                let mut best_j = usize::MAX;
                #[allow(clippy::needless_range_loop)]
                for j in (k - 1)..i {
                    let prev = e[k - 1][j];
                    if !prev.is_finite() {
                        continue;
                    }
                    let c = prev + cost(j, i - 1);
                    if c < best {
                        best = c;
                        best_j = j;
                    }
                }
                e[k][i] = best;
                parent[k][i] = best_j;
            }
        }
        best_solution(n, &e, &parent)
    }

    /// A seeded `n × n` table of window costs: `kind` 0 draws real costs,
    /// 1 draws small integers (so many bucketings tie), 2 draws real costs
    /// and makes about one window in five infinitely expensive (windows
    /// starting at 0 stay finite, so every `b` has a finite bucketing).
    fn seeded_costs(n: usize, kind: u8, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = synoptic_core::Rng::new(seed);
        (0..n)
            .map(|l| {
                (0..n)
                    .map(|r| match kind {
                        _ if r < l => f64::NAN,
                        0 => rng.f64_in(0.0, 100.0) * (r - l + 1) as f64,
                        1 => rng.i64_in(0, 4) as f64,
                        _ if l > 0 && rng.usize_in(0, 5) == 0 => f64::INFINITY,
                        _ => rng.f64_in(0.0, 10.0),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn column_dp_matches_k_outer_reference_bit_for_bit() {
        for n in 1..=48usize {
            for kind in 0..3u8 {
                let table = seeded_costs(n, kind, 0xD1FF_0000 + 3 * n as u64 + kind as u64);
                let cost = |l: usize, r: usize| table[l][r];
                for b in 1..=n {
                    let (got_budget, want_budget) = (Budget::unlimited(), Budget::unlimited());
                    let got = optimal_bucketing_with_budget(n, b, cost, &got_budget).unwrap();
                    let want = k_outer_reference(n, b, cost, &want_budget).unwrap();
                    assert_eq!(
                        got.bucketing.starts(),
                        want.bucketing.starts(),
                        "n={n} b={b} kind={kind}"
                    );
                    assert_eq!(
                        got.objective.to_bits(),
                        want.objective.to_bits(),
                        "n={n} b={b} kind={kind}"
                    );
                    assert_eq!(
                        got_budget.cells_used(),
                        want_budget.cells_used(),
                        "n={n} b={b} kind={kind}"
                    );
                    // Σ_{k=1..b} Σ_{i=k..n} (i−k+1) = Σ_{k=1..b} m(m+1)/2 with
                    // m = n−k+1: the work units behind `hist.sap0_cells`
                    // and `BuildOutcome.cells`.
                    let closed_form: u64 = (1..=b)
                        .map(|k| {
                            let m = (n - k + 1) as u64;
                            m * (m + 1) / 2
                        })
                        .sum();
                    assert_eq!(got_budget.cells_used(), closed_form, "n={n} b={b}");
                }
            }
        }
    }

    #[test]
    fn validates_inputs() {
        assert!(optimal_bucketing(0, 1, |_, _| 0.0).is_err());
        assert!(optimal_bucketing(5, 0, |_, _| 0.0).is_err());
        assert!(optimal_bucketing(5, 6, |_, _| 0.0).is_err());
    }

    #[test]
    fn single_bucket_when_b_is_one() {
        let sol = optimal_bucketing(7, 1, |l, r| ((r - l) as f64).powi(2)).unwrap();
        assert_eq!(sol.bucketing.num_buckets(), 1);
        assert_eq!(sol.objective, 36.0);
    }

    #[test]
    fn matches_brute_force_on_random_costs() {
        // A deterministic but irregular cost function.
        let cost = |l: usize, r: usize| {
            let x = (l * 31 + r * 17) % 13;
            (x as f64) + (r - l) as f64 * 1.5
        };
        for n in 1..=9usize {
            for b in 1..=n {
                let sol = optimal_bucketing(n, b, cost).unwrap();
                let want = brute(n, b, cost);
                assert!(
                    (sol.objective - want).abs() < 1e-9,
                    "n={n} b={b}: {} vs {want}",
                    sol.objective
                );
                // Reconstructed bucketing must reproduce the objective.
                let recon: f64 = sol.bucketing.iter().map(|(l, r)| cost(l, r)).sum();
                assert!((recon - sol.objective).abs() < 1e-9, "n={n} b={b}");
                assert!(sol.bucketing.num_buckets() <= b);
            }
        }
    }

    #[test]
    fn splitting_helps_with_convex_costs() {
        // cost = (width)², so more buckets always help; with b = n the
        // optimum is 0 … wait, width 1 ⇒ cost 1. Use (width − 1)² so
        // singleton buckets are free.
        let cost = |l: usize, r: usize| ((r - l) as f64).powi(2);
        let sol = optimal_bucketing(6, 6, cost).unwrap();
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.bucketing.num_buckets(), 6);
    }

    #[test]
    fn budgeted_dp_matches_unbudgeted_and_aborts_cleanly() {
        use std::cell::Cell;
        use synoptic_core::{CancelToken, SynopticError};
        let cost = |l: usize, r: usize| ((r - l) as f64) * 1.25 + ((l * 7 + r) % 5) as f64;
        let free = optimal_bucketing(12, 4, cost).unwrap();
        let metered = Budget::unlimited();
        let budgeted = optimal_bucketing_with_budget(12, 4, cost, &metered).unwrap();
        assert_eq!(free.bucketing.starts(), budgeted.bucketing.starts());
        assert_eq!(free.objective, budgeted.objective);
        assert!(metered.cells_used() > 0);
        // A pre-cancelled token aborts at the first cell, after costing at
        // most the one window that cell needs.
        let token = CancelToken::new();
        token.cancel();
        let calls = Cell::new(0u32);
        let counted = |l: usize, r: usize| {
            calls.set(calls.get() + 1);
            cost(l, r)
        };
        let cancelled = Budget::unlimited().with_cancel_token(token);
        match optimal_bucketing_with_budget(12, 4, counted, &cancelled) {
            Err(SynopticError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(
            calls.get() <= 1,
            "{} cost calls before cancelling",
            calls.get()
        );
        // A cap below the metered usage must abort with the budget error.
        let capped = Budget::unlimited().with_max_cells(metered.cells_used() / 2);
        match optimal_bucketing_with_budget(12, 4, cost, &capped) {
            Err(SynopticError::CellBudgetExceeded { .. }) => {}
            other => panic!("expected CellBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn may_use_fewer_buckets_when_cheaper() {
        // Penalize narrow buckets: cost = 1/width. Optimal is one wide bucket
        // even when more are allowed.
        let cost = |l: usize, r: usize| 1.0 / (r - l + 1) as f64;
        let sol = optimal_bucketing(8, 4, cost).unwrap();
        assert_eq!(sol.bucketing.num_buckets(), 1);
        assert!((sol.objective - 0.125).abs() < 1e-12);
    }
}
