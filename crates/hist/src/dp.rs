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
//! (i128-backed) cost is computed once instead of once per `k`. The costs
//! come through [`ColumnCost`], one column per call, so an objective whose
//! windows of one right end share work (SAP0's running moments) can fill
//! the column at once; any `Fn(l, r) -> f64` fills it window by window.
//!
//! # Min-plus
//!
//! The result is bit-identical to the serial scan that visits `j` in
//! ascending order, skips a non-finite `E(j, k−1)` and keeps a candidate
//! only when it is strictly below the best so far. Only the entries that
//! scan's answer depends on are computed, and those in lanes:
//!
//! - **Row 1** has one candidate, since `E(0, 0) = 0` is row 0's only
//!   finite entry: `E(i, 1) = E(0, 0) + cost(0, i−1)` when that is below
//!   +∞. It costs O(1) per `i` and reads the single window `[0, i−1]`.
//! - **Row B** is filled only at `i = n`: the optimum and the parent walk
//!   never read `E(i, B)` for `i < n`. With `B ≤ 2`, every column before
//!   `n` is therefore cut to the windows row 1 reads (none when `B = 1`).
//! - **Rows 2..B** run an 8-lane scan: lane `s` takes every `j ≡ s (mod
//!   8)` and keeps its minimum and the first `j` that reached it; the lanes
//!   then combine to the smallest minimum, the smallest `j` on a tie, and
//!   the few `j` past the last whole block follow serially. The winner's
//!   sum is recomputed at its `j`, so the stored cost has the serial
//!   scan's bits, the sign of a zero included.
//!
//! The lane scan needs no `is_finite` test because below `i = n` a
//! non-finite `E(i, k)` is stored as +∞ — entries there are read only as
//! parents. A masked parent's sum is then +∞ or NaN, and neither wins,
//! exactly as the serial scan skips it. A minimum over values that are
//! never NaN does not depend on the order in which they are met, and the
//! index rule picks the same first `j` among exact ties. `E(n, k)` keeps
//! its value unmasked, so a −∞ optimum is still reported.
//!
//! Every `(k, i)` cell charges the [`Budget`] its `i − (k−1)` candidates,
//! the rows skipped above included, so `cells_used` and the anytime
//! ladder's decisions do not depend on how much of the table is filled.

use synoptic_core::{Bucketing, Budget, Result, SynopticError};

/// The window costs of the DP, one column of fixed right end at a time.
pub trait ColumnCost {
    /// Fills `col[l] = cost(l, r)` for every `l < col.len()`, where
    /// `col.len() ≤ r + 1`.
    fn fill(&self, r: usize, col: &mut [f64]);
}

impl<F: Fn(usize, usize) -> f64> ColumnCost for F {
    fn fill(&self, r: usize, col: &mut [f64]) {
        for (l, c) in col.iter_mut().enumerate() {
            *c = self(l, r);
        }
    }
}

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

/// Runs the interval-partition DP for a bucket-additive cost under
/// execution control.
///
/// `cost` must give the cost of a single bucket covering the inclusive
/// window `[l, r]`, `0 ≤ l ≤ r < n` (any `Fn(l, r) -> f64` does). Uses
/// **at most** `max_buckets` buckets (fewer if that is cheaper, which can
/// happen for costs that are not monotone in the partition refinement).
///
/// The DP charges its [`Budget`] one checkpoint per `(k, i)` cell (counting
/// the cell's candidate split points as work units, whether or not the
/// cell is filled) and aborts with the
/// budget's error at the first exhausted constraint; pass
/// [`Budget::unlimited`] for an unconstrained run.
///
/// # Complexity
///
/// `O(n²)` cost-oracle calls (each window at most once; one when
/// `max_buckets == 1` and `2n − 1` when it is 2) plus `O(n² · max_buckets)`
/// f64 min-plus steps, 8 lanes at a time, `O(n · max_buckets)` memory plus
/// an `O(n)` column. Row 1 costs O(1) per right end and row `max_buckets`
/// is filled only at `n` (see "Min-plus" in the module docs).
pub fn optimal_bucketing_with_budget<C>(
    n: usize,
    max_buckets: usize,
    cost: C,
    budget: &Budget,
) -> Result<DpSolution>
where
    C: ColumnCost,
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
    // parents mark unreachable states. Below i = n a non-finite cost is
    // stored as +∞: there e[k][i] is only ever read as a parent, and a
    // non-finite parent never wins (see "Min-plus" in the module docs).
    let mut e = vec![vec![f64::INFINITY; n + 1]; b + 1];
    let mut parent = vec![vec![usize::MAX; n + 1]; b + 1];
    e[0][0] = 0.0;
    // col[j] = cost(j, i − 1) for the current right end i.
    let mut col = vec![f64::INFINITY; n];
    for i in 1..=n {
        // Rows 1..=rows are filled at this i; row b only at i = n, the one
        // entry of it `best_solution` reads. Row 1 reads only the window
        // [0, i−1], every later row the whole column.
        let top = if i < n { b - 1 } else { b };
        let rows = top.min(i);
        let reach = if rows > 1 { i } else { rows };
        cost.fill(i - 1, &mut col[..reach]);
        // With k buckets we can cover at least k and at most n positions.
        for k in 1..=b.min(i) {
            budget.charge((i - (k - 1)) as u64)?;
            if k > rows {
                continue;
            }
            let j = match k {
                // Row 0's only finite entry is E(0, 0): one candidate.
                1 => 0,
                _ => match argmin(&e[k - 1][k - 1..i], &col[k - 1..i]) {
                    Some(j) => k - 1 + j,
                    None => continue,
                },
            };
            // Summed again at the chosen j, the cost has the serial scan's
            // bits, the sign of a zero included.
            let best = e[k - 1][j] + col[j];
            if best < f64::INFINITY {
                e[k][i] = if i < n && best == f64::NEG_INFINITY {
                    f64::INFINITY
                } else {
                    best
                };
                parent[k][i] = j;
            }
        }
    }
    best_solution(n, &e, &parent)
}

/// Lanes of the min-plus scan.
const LANES: usize = 8;

/// The first `j` minimizing `prev[j] + col[j]` over the values below +∞
/// (NaN never wins), or `None` when there is none: the serial scan's
/// strict-`<` choice, found in `LANES` independent lanes. `prev` holds no
/// NaN or −∞ (non-finite parents are stored as +∞).
fn argmin(prev: &[f64], col: &[f64]) -> Option<usize> {
    let len = prev.len();
    let col = &col[..len];
    // Lane s takes j ≡ s (mod LANES); `at[s]` is the block of its
    // minimum, the first block to reach it.
    let mut acc = [f64::INFINITY; LANES];
    let mut at = [usize::MAX; LANES];
    for (block, (p, c)) in prev
        .chunks_exact(LANES)
        .zip(col.chunks_exact(LANES))
        .enumerate()
    {
        for s in 0..LANES {
            let v = p[s] + c[s];
            let lower = v < acc[s];
            acc[s] = if lower { v } else { acc[s] };
            at[s] = if lower { block } else { at[s] };
        }
    }
    // The smallest lane minimum, the smallest index on a tie; then the
    // tail past the last whole block, whose indices are all larger.
    let (mut best, mut best_j) = (f64::INFINITY, usize::MAX);
    for s in 0..LANES {
        if at[s] != usize::MAX {
            let j = at[s] * LANES + s;
            if acc[s] < best || (acc[s] == best && j < best_j) {
                (best, best_j) = (acc[s], j);
            }
        }
    }
    for j in len - len % LANES..len {
        let v = prev[j] + col[j];
        if v < best {
            (best, best_j) = (v, j);
        }
    }
    (best_j != usize::MAX).then_some(best_j)
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

    /// A seeded `n × n` table that stresses the lane scan's exactness:
    /// small integers and signed zeros (so many sums tie exactly), with
    /// NaN, +∞ and −∞ windows mixed in. Windows starting at 0 are never
    /// NaN or +∞, so one bucket always covers the domain.
    fn hostile_costs(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = synoptic_core::Rng::new(seed);
        (0..n)
            .map(|l| {
                (0..n)
                    .map(|r| match rng.usize_in(0, 19) {
                        _ if r < l => f64::NAN,
                        0 => -0.0,
                        1 => 0.0,
                        2 if l > 0 => f64::NAN,
                        3 if l > 0 => f64::INFINITY,
                        4 => f64::NEG_INFINITY,
                        _ => rng.i64_in(0, 3) as f64,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lane_min_plus_matches_k_outer_reference_on_hostile_costs() {
        let mut cases: Vec<(usize, usize)> = (1..=48usize)
            .flat_map(|n| (1..=n).map(move |b| (n, b)))
            .collect();
        for n in [64usize, 65, 71, 257] {
            cases.extend([1, 2, 3, 8, n].map(|b| (n, b)));
        }
        let mut tables = std::collections::BTreeMap::new();
        for (n, b) in cases {
            let table = tables
                .entry(n)
                .or_insert_with(|| hostile_costs(n, 0x1A4E_0000 + n as u64));
            let cost = |l: usize, r: usize| table[l][r];
            let (got_budget, want_budget) = (Budget::unlimited(), Budget::unlimited());
            let got = optimal_bucketing_with_budget(n, b, cost, &got_budget).unwrap();
            let want = k_outer_reference(n, b, cost, &want_budget).unwrap();
            assert_eq!(
                got.bucketing.starts(),
                want.bucketing.starts(),
                "n={n} b={b}"
            );
            assert_eq!(
                got.objective.to_bits(),
                want.objective.to_bits(),
                "n={n} b={b}"
            );
            assert_eq!(
                got_budget.cells_used(),
                want_budget.cells_used(),
                "n={n} b={b}"
            );
        }
    }

    #[test]
    fn validates_inputs() {
        assert!(optimal_bucketing_with_budget(0, 1, |_, _| 0.0, &Budget::unlimited()).is_err());
        assert!(optimal_bucketing_with_budget(5, 0, |_, _| 0.0, &Budget::unlimited()).is_err());
        assert!(optimal_bucketing_with_budget(5, 6, |_, _| 0.0, &Budget::unlimited()).is_err());
    }

    #[test]
    fn single_bucket_when_b_is_one() {
        let cost = |l: usize, r: usize| ((r - l) as f64).powi(2);
        let sol = optimal_bucketing_with_budget(7, 1, cost, &Budget::unlimited()).unwrap();
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
                let sol = optimal_bucketing_with_budget(n, b, cost, &Budget::unlimited()).unwrap();
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
        let sol = optimal_bucketing_with_budget(6, 6, cost, &Budget::unlimited()).unwrap();
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.bucketing.num_buckets(), 6);
    }

    #[test]
    fn budgeted_dp_matches_unbudgeted_and_aborts_cleanly() {
        use std::cell::Cell;
        use synoptic_core::{CancelToken, SynopticError};
        let cost = |l: usize, r: usize| ((r - l) as f64) * 1.25 + ((l * 7 + r) % 5) as f64;
        let metered = Budget::unlimited();
        optimal_bucketing_with_budget(12, 4, cost, &metered).unwrap();
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
        let sol = optimal_bucketing_with_budget(8, 4, cost, &Budget::unlimited()).unwrap();
        assert_eq!(sol.bucketing.num_buckets(), 1);
        assert!((sol.objective - 0.125).abs() < 1e-12);
    }
}
