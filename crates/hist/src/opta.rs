//! OPT-A: the range-optimal classical histogram (paper §2.1, Theorems 1–2).
//!
//! ## The dynamic program
//!
//! The total SSE of an OPT-A histogram splits into per-bucket *intra* costs
//! plus, over inter-bucket queries `(a, b)`, terms `(u(a) + v(b))²` where
//! `u(a)` / `v(b)` are the suffix/prefix end-piece errors determined by the
//! endpoint's own bucket. Charging `u(a)²·(n−1−right(a))` and
//! `v(b)²·left(b)` when a bucket closes, the only interaction between
//! buckets is the cross term `2·Σ_{p<q} U₁(p)·V₁(q)`, so the DP state is the
//! paper's `F*(i, k, Λ)` with `Λ = Σ_{a<i} u(a)`:
//!
//! ```text
//! F*(i, k, λ + U₁(j,i−1)) ≤ F*(j, k−1, λ) + intra(j,i−1)
//!                          + U₂(j,i−1)·(n−i) + V₂(j,i−1)·j + 2·λ·V₁(j,i−1)
//! ```
//!
//! ## Convex-hull pruning (exact)
//!
//! For any fixed completion `S` of the histogram to the right of `i`, the
//! final SSE equals `F + C(S) + 2Λ·V₁ᵗᵃⁱˡ(S)` — *affine in Λ*. A linear
//! functional over a finite point set `{(Λ, F)}` is minimized at a vertex of
//! the lower convex hull, so keeping only hull vertices per `(i, k)` is
//! lossless. This replaces the paper's `Λ ∈ [−Λ*, Λ*]` table (the source of
//! the pseudo-polynomial bound) with a state set that is tiny in practice,
//! and it extends the exact algorithm to the *unrounded* answering procedure
//! (real-valued Λ), which an integral table cannot index. The paper's bound
//! remains the worst case: the hull can never exceed the number of distinct
//! reachable Λ values, which is at most `2Λ* + 1` in rounded mode.

use std::time::Instant;

use synoptic_core::sse::sse_brute;
use synoptic_core::window::WindowOracle;
use synoptic_core::{
    Bucketing, Budget, OptAHistogram, PrefixSums, RangeEstimator, Result, RoundingMode,
    SynopticError,
};

/// Configuration for the OPT-A construction.
#[derive(Debug, Clone)]
pub struct OptAConfig {
    /// Maximum number of buckets `B`.
    pub buckets: usize,
    /// Answering-procedure rounding. [`RoundingMode::NearestInt`] matches the
    /// paper's integral setting; [`RoundingMode::None`] optimizes the
    /// real-valued procedure shared with the other methods (default).
    pub mode: RoundingMode,
    /// If positive, snap every Λ to a multiple of this quantum. `0.0`
    /// (default) keeps the DP exact; positive values trade optimality for
    /// fewer states, in the spirit of OPT-A-ROUNDED's intermediate-value
    /// rounding.
    pub lambda_quantum: f64,
    /// If positive, cap each `(i, k)` hull at this many states (keeping the
    /// cheapest plus the extremes). `0` (default) = unlimited = exact.
    pub max_hull_states: usize,
}

impl OptAConfig {
    /// Exact construction with `buckets` buckets and the given rounding mode.
    pub fn exact(buckets: usize, mode: RoundingMode) -> Self {
        Self {
            buckets,
            mode,
            lambda_quantum: 0.0,
            max_hull_states: 0,
        }
    }
}

/// Diagnostics from the DP run (ablation A2 in EXPERIMENTS.md).
#[derive(Debug, Clone, Default)]
pub struct DpStats {
    /// Candidate states generated across all `(i, k)`.
    pub states_generated: u64,
    /// States surviving hull pruning.
    pub states_kept: u64,
    /// Largest single hull.
    pub max_hull_size: usize,
    /// Largest |Λ| value among kept states — the paper bounds this by
    /// `min(OPT, n·s[1,n])`; recorded so ablation A2 can compare.
    pub max_abs_lambda: f64,
    /// Wall-clock seconds spent in the DP.
    pub seconds: f64,
    /// Whether quantization or hull capping made the run approximate.
    pub approximate: bool,
}

/// Result of an OPT-A construction.
#[derive(Debug, Clone)]
pub struct OptAResult {
    /// The constructed histogram (answering under the configured mode).
    pub histogram: OptAHistogram,
    /// Exact SSE of `histogram` over all ranges (re-evaluated, not trusted
    /// from the DP).
    pub sse: f64,
    /// The DP's own objective value; equals `sse` up to float tolerance when
    /// the run was exact (asserted in tests).
    pub dp_objective: f64,
    /// DP diagnostics.
    pub stats: DpStats,
}

/// Per-window cost ingredients for one candidate bucket.
#[derive(Debug, Clone, Copy, Default)]
struct WindowCost {
    intra: f64,
    u1: f64,
    u2: f64,
    v1: f64,
    v2: f64,
}

/// Cost provider abstracting over the two rounding modes.
enum Costs<'a> {
    /// O(1) closed forms from the window oracle.
    Unrounded(&'a WindowOracle),
    /// Precomputed table of rounded-piece costs, indexed by `(l, r)`.
    Rounded { n: usize, table: Vec<WindowCost> },
}

impl<'a> Costs<'a> {
    fn get(&self, l: usize, r: usize) -> WindowCost {
        match self {
            Costs::Unrounded(oracle) => {
                let agg = oracle.endpoint_aggregates(l, r);
                WindowCost {
                    intra: oracle.intra_avg_sse(l, r),
                    u1: agg.u1,
                    u2: agg.u2,
                    v1: agg.v1,
                    v2: agg.v2,
                }
            }
            Costs::Rounded { n, table } => {
                let idx = l * *n - l * (l + 1) / 2 + r; // row-major upper triangle
                table[idx]
            }
        }
    }
}

/// Builds the rounded-mode window-cost table: O(len) per window for the
/// endpoint pieces plus O(len²) for the rounded intra SSE, `O(n⁴/12)` total —
/// the price of the paper's integral answering procedure. Practical for
/// `n` in the hundreds (the paper's own experiment uses `n = 127` for
/// exactly this reason).
fn rounded_table(ps: &PrefixSums, budget: &Budget) -> Result<Vec<WindowCost>> {
    use synoptic_core::rounding::round_scaled;
    let n = ps.n();
    let p = ps.table();
    let mut table = vec![WindowCost::default(); n * (n + 1) / 2];
    for l in 0..n {
        for r in l..n {
            // One checkpoint per window; its cost is quadratic in the width
            // (the rounded intra-SSE double loop below).
            let width = (r - l + 1) as u64;
            budget.charge(width * width)?;
            let len = (r - l + 1) as i128;
            let s = p[r + 1] - p[l];
            let (mut u1, mut u2, mut v1, mut v2) = (0i128, 0i128, 0i128, 0i128);
            for a in l..=r {
                let t = (r - a + 1) as i128;
                let u = (p[r + 1] - p[a]) - round_scaled(t, s, len);
                u1 += u;
                u2 += u * u;
                let t = (a - l + 1) as i128;
                let v = (p[a + 1] - p[l]) - round_scaled(t, s, len);
                v1 += v;
                v2 += v * v;
            }
            let mut intra = 0i128;
            for d in 1..=(r - l + 1) {
                let piece = round_scaled(d as i128, s, len);
                for a in l..=(r + 1 - d) {
                    let delta = (p[a + d] - p[a]) - piece;
                    intra += delta * delta;
                }
            }
            let idx = l * n - l * (l + 1) / 2 + r;
            table[idx] = WindowCost {
                intra: intra as f64,
                u1: u1 as f64,
                u2: u2 as f64,
                v1: v1 as f64,
                v2: v2 as f64,
            };
        }
    }
    Ok(table)
}

/// One DP state: a vertex of the `(Λ, F)` lower hull with its predecessor.
#[derive(Debug, Clone, Copy)]
struct State {
    lambda: f64,
    cost: f64,
    parent_j: u32,
    parent_idx: u32,
}

/// Lower convex hull of candidate states (sorted by Λ, min cost per Λ,
/// convex minorant vertices only). Exactness argument in the module docs.
fn lower_hull(mut cands: Vec<State>) -> Vec<State> {
    if cands.len() <= 1 {
        return cands;
    }
    cands.sort_by(|a, b| {
        a.lambda
            .total_cmp(&b.lambda)
            .then(a.cost.total_cmp(&b.cost))
    });
    let mut hull: Vec<State> = Vec::with_capacity(cands.len().min(64));
    for c in cands {
        if let Some(last) = hull.last() {
            if last.lambda == c.lambda {
                // Same Λ: sorted order guarantees `last` is the cheaper one.
                continue;
            }
        }
        while hull.len() >= 2 {
            let p1 = &hull[hull.len() - 2];
            let p2 = &hull[hull.len() - 1];
            // Pop p2 unless it lies strictly below segment p1–c.
            let cross = (p2.lambda - p1.lambda) * (c.cost - p1.cost)
                - (p2.cost - p1.cost) * (c.lambda - p1.lambda);
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(c);
    }
    hull
}

/// Caps a hull at `cap` states, keeping the two extreme-Λ vertices and then
/// the cheapest of the rest (an approximation; only used when
/// `max_hull_states > 0`).
fn cap_hull(hull: Vec<State>, cap: usize) -> Vec<State> {
    if cap == 0 || hull.len() <= cap {
        return hull;
    }
    if cap == 1 {
        // Keep the single cheapest state.
        let best = hull
            .into_iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .expect("non-empty hull");
        return vec![best];
    }
    let first = hull[0];
    let last = hull[hull.len() - 1];
    let mut rest: Vec<State> = hull[1..hull.len() - 1].to_vec();
    rest.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    rest.truncate(cap.saturating_sub(2));
    let mut out = Vec::with_capacity(cap);
    out.push(first);
    out.extend(rest);
    if hull.len() > 1 {
        out.push(last);
    }
    out.sort_by(|a, b| a.lambda.total_cmp(&b.lambda));
    out
}

/// [`build_opt_a_with_budget`] with [`Budget::unlimited`]. Kept only
/// because the repository benchmark (`perfbench`) pins this signature.
pub fn build_opt_a(ps: &PrefixSums, cfg: &OptAConfig) -> Result<OptAResult> {
    build_opt_a_with_budget(ps, cfg, &Budget::unlimited())
}

/// Builds the OPT-A histogram with optimal bucket boundaries for the
/// configured answering procedure (paper Theorems 1–2).
///
/// The returned [`OptAResult::sse`] is re-measured on the constructed
/// histogram with an exact evaluator, so it is trustworthy even under
/// quantization or hull capping.
///
/// Execution control (deadline / cell cap / cancellation): checkpoints are
/// charged once per `(k, i)` DP cell — and, in rounded mode, once per
/// window of the `O(n⁴)` cost table, the actual hot spot — so an exhausted
/// budget aborts within one cell-group of work. Pass [`Budget::unlimited`]
/// for an unconstrained run.
pub fn build_opt_a_with_budget(
    ps: &PrefixSums,
    cfg: &OptAConfig,
    budget: &Budget,
) -> Result<OptAResult> {
    let n = ps.n();
    if cfg.buckets == 0 || cfg.buckets > n {
        return Err(SynopticError::InvalidBucketCount {
            buckets: cfg.buckets,
            n,
        });
    }
    if cfg.lambda_quantum < 0.0 {
        return Err(SynopticError::InvalidParameter(
            "lambda_quantum must be ≥ 0".into(),
        ));
    }
    let started = Instant::now();
    let oracle;
    let costs = match cfg.mode {
        RoundingMode::None => {
            oracle = WindowOracle::new(ps);
            Costs::Unrounded(&oracle)
        }
        RoundingMode::NearestInt => Costs::Rounded {
            n,
            table: rounded_table(ps, budget)?,
        },
    };

    let b = cfg.buckets;
    let mut stats = DpStats {
        approximate: cfg.lambda_quantum > 0.0 || cfg.max_hull_states > 0,
        ..DpStats::default()
    };
    // hulls[k][i]: states covering [0, i) with exactly k buckets.
    let mut hulls: Vec<Vec<Vec<State>>> = vec![vec![Vec::new(); n + 1]; b + 1];
    hulls[0][0] = vec![State {
        lambda: 0.0,
        cost: 0.0,
        parent_j: u32::MAX,
        parent_idx: u32::MAX,
    }];

    let snap = |lambda: f64| {
        if cfg.lambda_quantum > 0.0 {
            (lambda / cfg.lambda_quantum).round() * cfg.lambda_quantum
        } else {
            lambda
        }
    };

    for k in 1..=b {
        for i in k..=n {
            budget.charge((i - (k - 1)) as u64)?;
            let mut cands: Vec<State> = Vec::new();
            #[allow(clippy::needless_range_loop)] // j is an index *and* a boundary value
            for j in (k - 1)..i {
                if hulls[k - 1][j].is_empty() {
                    continue;
                }
                let wc = costs.get(j, i - 1);
                let base = wc.intra + wc.u2 * (n - i) as f64 + wc.v2 * j as f64;
                for (idx, st) in hulls[k - 1][j].iter().enumerate() {
                    cands.push(State {
                        lambda: snap(st.lambda + wc.u1),
                        cost: st.cost + base + 2.0 * st.lambda * wc.v1,
                        parent_j: j as u32,
                        parent_idx: idx as u32,
                    });
                }
            }
            stats.states_generated += cands.len() as u64;
            let hull = cap_hull(lower_hull(cands), cfg.max_hull_states);
            stats.states_kept += hull.len() as u64;
            stats.max_hull_size = stats.max_hull_size.max(hull.len());
            for st in &hull {
                stats.max_abs_lambda = stats.max_abs_lambda.max(st.lambda.abs());
            }
            hulls[k][i] = hull;
        }
    }

    // Best final state over "at most b buckets" (Λ is irrelevant at i = n:
    // there are no queries extending past the end).
    let mut best: Option<(usize, usize, f64)> = None; // (k, idx, cost)
    for (k, hk) in hulls.iter().enumerate().take(b + 1).skip(1) {
        for (idx, st) in hk[n].iter().enumerate() {
            if best.is_none() || st.cost < best.unwrap().2 {
                best = Some((k, idx, st.cost));
            }
        }
    }
    let (mut k, mut idx, dp_objective) =
        best.expect("DP always reaches i = n with k = 1 (single bucket)");

    // Reconstruct boundaries by walking parents.
    let mut starts = Vec::with_capacity(k);
    let mut i = n;
    while k > 0 {
        let st = hulls[k][i][idx];
        starts.push(st.parent_j as usize);
        i = st.parent_j as usize;
        idx = st.parent_idx as usize;
        k -= 1;
    }
    starts.reverse();
    stats.seconds = started.elapsed().as_secs_f64();

    let bucketing = Bucketing::new(n, starts)?;
    let histogram = OptAHistogram::new(bucketing, ps, cfg.mode)?;
    let sse = match cfg.mode {
        // For the unrounded procedure the O(n) closed form applies; brute
        // force otherwise. Both are exact.
        RoundingMode::None => {
            let vh = synoptic_core::ValueHistogram::with_averages(
                histogram.bucketing().clone(),
                ps,
                "tmp",
            )?;
            synoptic_core::sse::sse_value_histogram(vh.xprefix(), ps)
        }
        RoundingMode::NearestInt => sse_brute(&histogram, ps),
    };
    debug_assert_eq!(histogram.n(), n);
    Ok(OptAResult {
        histogram,
        sse,
        dp_objective,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive_optimal;
    use synoptic_core::sse::sse_value_histogram;
    use synoptic_core::ValueHistogram;

    fn ps(vals: &[i64]) -> PrefixSums {
        PrefixSums::from_values(vals)
    }

    fn datasets() -> Vec<Vec<i64>> {
        vec![
            vec![1, 3, 5, 11, 12, 13],
            vec![12, 9, 4, 1, 1, 0, 2, 14, 13, 6],
            vec![5, 5, 5, 5, 5, 5],
            vec![100, 1, 1, 1, 1, 1, 1, 90],
            vec![0, 7, 0, 7, 0, 7, 0, 7, 0],
        ]
    }

    #[test]
    fn dp_objective_matches_true_sse_unrounded() {
        for vals in datasets() {
            let p = ps(&vals);
            for b in 1..=4 {
                let r = build_opt_a(&p, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
                assert!(
                    (r.dp_objective - r.sse).abs() <= 1e-6 * (1.0 + r.sse),
                    "vals={vals:?} b={b}: dp={} sse={}",
                    r.dp_objective,
                    r.sse
                );
                assert!(!r.stats.approximate);
            }
        }
    }

    #[test]
    fn dp_objective_matches_true_sse_rounded() {
        for vals in datasets() {
            let p = ps(&vals);
            for b in 1..=4 {
                let r = build_opt_a(&p, &OptAConfig::exact(b, RoundingMode::NearestInt)).unwrap();
                assert!(
                    (r.dp_objective - r.sse).abs() <= 1e-6 * (1.0 + r.sse),
                    "vals={vals:?} b={b}: dp={} sse={}",
                    r.dp_objective,
                    r.sse
                );
            }
        }
    }

    #[test]
    fn unrounded_optimum_matches_exhaustive_search() {
        for vals in datasets() {
            let p = ps(&vals);
            let n = vals.len();
            for b in 1..=3.min(n) {
                let r = build_opt_a(&p, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
                let (_, best) = exhaustive_optimal(n, b, |bk| {
                    let vh = ValueHistogram::with_averages(bk.clone(), &p, "cand").unwrap();
                    sse_value_histogram(vh.xprefix(), &p)
                })
                .unwrap();
                assert!(
                    r.sse <= best + 1e-6 * (1.0 + best),
                    "vals={vals:?} b={b}: DP {} vs exhaustive {best}",
                    r.sse
                );
            }
        }
    }

    #[test]
    fn rounded_optimum_matches_exhaustive_search() {
        for vals in datasets() {
            let p = ps(&vals);
            let n = vals.len();
            for b in 1..=3.min(n) {
                let r = build_opt_a(&p, &OptAConfig::exact(b, RoundingMode::NearestInt)).unwrap();
                let (_, best) = exhaustive_optimal(n, b, |bk| {
                    let h = OptAHistogram::new(bk.clone(), &p, RoundingMode::NearestInt).unwrap();
                    sse_brute(&h, &p)
                })
                .unwrap();
                assert!(
                    r.sse <= best + 1e-6 * (1.0 + best),
                    "vals={vals:?} b={b}: DP {} vs exhaustive {best}",
                    r.sse
                );
            }
        }
    }

    #[test]
    fn more_buckets_never_hurt() {
        let vals = vec![9i64, 0, 0, 9, 9, 0, 0, 9, 5, 5, 1, 7];
        let p = ps(&vals);
        let mut prev = f64::INFINITY;
        for b in 1..=6 {
            let r = build_opt_a(&p, &OptAConfig::exact(b, RoundingMode::None)).unwrap();
            assert!(r.sse <= prev + 1e-9, "b={b}");
            prev = r.sse;
        }
    }

    #[test]
    fn quantized_lambda_is_close_but_flagged_approximate() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let p = ps(&vals);
        let exact = build_opt_a(&p, &OptAConfig::exact(3, RoundingMode::None)).unwrap();
        let approx = build_opt_a(
            &p,
            &OptAConfig {
                buckets: 3,
                mode: RoundingMode::None,
                lambda_quantum: 4.0,
                max_hull_states: 0,
            },
        )
        .unwrap();
        assert!(approx.stats.approximate);
        assert!(approx.sse >= exact.sse - 1e-9, "approx cannot beat exact");
        assert!(
            approx.sse <= exact.sse * 2.0 + 1e-9,
            "coarse quantum should still be in the ballpark: {} vs {}",
            approx.sse,
            exact.sse
        );
    }

    #[test]
    fn hull_capping_is_flagged_and_sane() {
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8];
        let p = ps(&vals);
        let exact = build_opt_a(&p, &OptAConfig::exact(4, RoundingMode::None)).unwrap();
        let capped = build_opt_a(
            &p,
            &OptAConfig {
                buckets: 4,
                mode: RoundingMode::None,
                lambda_quantum: 0.0,
                max_hull_states: 2,
            },
        )
        .unwrap();
        assert!(capped.stats.approximate);
        assert!(capped.stats.max_hull_size <= 2);
        assert!(capped.sse >= exact.sse - 1e-9);
    }

    #[test]
    fn stats_are_populated() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14];
        let p = ps(&vals);
        let r = build_opt_a(&p, &OptAConfig::exact(3, RoundingMode::None)).unwrap();
        assert!(r.stats.states_generated > 0);
        assert!(r.stats.states_kept > 0);
        assert!(r.stats.states_kept <= r.stats.states_generated);
        assert!(r.stats.max_hull_size >= 1);
    }

    #[test]
    fn validates_bucket_count() {
        let p = ps(&[1, 2, 3]);
        assert!(build_opt_a(&p, &OptAConfig::exact(0, RoundingMode::None)).is_err());
        assert!(build_opt_a(&p, &OptAConfig::exact(4, RoundingMode::None)).is_err());
    }

    #[test]
    fn single_bucket_equals_naive_shape() {
        let vals = vec![4i64, 9, 2, 7];
        let p = ps(&vals);
        let r = build_opt_a(&p, &OptAConfig::exact(1, RoundingMode::None)).unwrap();
        assert_eq!(r.histogram.bucketing().num_buckets(), 1);
        // One-bucket OPT-A (unrounded) ≡ NAIVE.
        let nv = synoptic_core::NaiveEstimator::new(&p);
        let brute = sse_brute(&nv, &p);
        assert!((r.sse - brute).abs() < 1e-9);
    }

    #[test]
    fn budgeted_build_is_identical_when_unconstrained_and_aborts_when_capped() {
        use synoptic_core::CancelToken;
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let p = ps(&vals);
        let cfg = OptAConfig::exact(3, RoundingMode::None);
        let free = build_opt_a(&p, &cfg).unwrap();
        let metered = Budget::unlimited();
        let tracked = build_opt_a_with_budget(&p, &cfg, &metered).unwrap();
        assert_eq!(
            free.histogram.bucketing().starts(),
            tracked.histogram.bucketing().starts()
        );
        assert_eq!(free.sse.to_bits(), tracked.sse.to_bits());
        assert!(metered.cells_used() > 0);
        // Cell cap below usage ⇒ clean abort with the budget error.
        let capped = Budget::unlimited().with_max_cells(metered.cells_used() / 2);
        match build_opt_a_with_budget(&p, &cfg, &capped) {
            Err(SynopticError::CellBudgetExceeded { .. }) => {}
            other => panic!("expected CellBudgetExceeded, got {other:?}"),
        }
        // Pre-cancelled token ⇒ Cancelled at the first checkpoint.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Budget::unlimited().with_cancel_token(token);
        match build_opt_a_with_budget(&p, &cfg, &cancelled) {
            Err(SynopticError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn rounded_mode_charges_the_cost_table() {
        let vals = vec![5i64, 1, 7, 2, 6, 3];
        let p = ps(&vals);
        let cfg = OptAConfig::exact(2, RoundingMode::NearestInt);
        let metered = Budget::unlimited();
        build_opt_a_with_budget(&p, &cfg, &metered).unwrap();
        // The O(n⁴) table dominates: far more cells than the DP alone.
        assert!(metered.cells_used() > 100, "{}", metered.cells_used());
        let capped = Budget::unlimited().with_max_cells(10);
        assert!(matches!(
            build_opt_a_with_budget(&p, &cfg, &capped),
            Err(SynopticError::CellBudgetExceeded { .. })
        ));
    }

    #[test]
    fn lower_hull_keeps_minorant_vertices_only() {
        let mk = |lambda: f64, cost: f64| State {
            lambda,
            cost,
            parent_j: 0,
            parent_idx: 0,
        };
        let hull = lower_hull(vec![
            mk(0.0, 0.0),
            mk(1.0, 5.0), // above segment (0,0)–(2,0): pruned
            mk(2.0, 0.0),
            mk(1.5, -3.0), // below: kept
            mk(1.5, -1.0), // duplicate Λ, worse cost: pruned
        ]);
        let lam: Vec<f64> = hull.iter().map(|s| s.lambda).collect();
        assert_eq!(lam, vec![0.0, 1.5, 2.0]);
    }
}
