//! Greedy range-SSE coefficient selection over the virtual-matrix family —
//! an orthogonal-matching-pursuit (OMP) style extension of Theorem 9.
//!
//! Theorem 9's top-B-by-magnitude rule is optimal for the *virtual matrix's*
//! Frobenius norm, which double-counts ranges and includes padding
//! (DESIGN.md §4.6) — ablation A3 shows it can trail even the point-wise
//! heuristic on the true objective. This module keeps the same O(N)
//! structured estimator family (`ŝ[a,b] = F(b) + G(a)`, `F`/`G` spanned by
//! first-row/first-column Haar terms) but:
//!
//! 1. **selects** coefficients greedily by the *exact all-ranges SSE* after
//!    a least-squares re-fit of all selected values (OMP), and
//! 2. **re-fits** the stored values to the range objective, instead of
//!    keeping the raw transform values.
//!
//! The objective is the quadratic `Σ_{a≤b}(e[b] − d[a])²` over the residual
//! arrays; each coefficient contributes the feature
//! `f_c(a,b) = pe_c[b] + pd_c[a]` (one side zero), so the fit is ordinary
//! least squares under the all-pairs inner product, whose Gram entries and
//! right-hand sides are O(n) bilinear forms. A greedy round costs
//! `O(N·(k·n + k³))` for `k` already-selected terms — trivial at synopsis
//! scales.
//!
//! Unlike magnitude selection, the result is *monotone in B by
//! construction* (adding a feature cannot raise the refit optimum) and, by
//! the same argument, never worse than the empty synopsis. The returned
//! value is a regular [`RangeOptimalWavelet`] (label `"TOPBB-GREEDY"`);
//! note its `virtual_matrix_error` diagnostic reports the Parseval energy of
//! the *unkept transform coefficients*, which no longer equals this
//! estimator's reconstruction error because the kept values are re-fit.

use crate::haar::{forward, next_pow2, BasisFn};
use crate::range_optimal::{CoeffSlot, RangeOptimalWavelet};
use synoptic_core::{Budget, PrefixSums, Result};
use synoptic_linalg::{solve_spd_with_ridge, Matrix};

/// One selectable coefficient: its slot label, raw transform value (for the
/// dropped-energy diagnostic) and dense endpoint profiles.
struct Feature {
    slot: CoeffSlot,
    raw_value: f64,
    /// Effect on the `e` side (right endpoints), length n.
    pe: Vec<f64>,
    /// Effect on the `d` side (left endpoints), length n.
    pd: Vec<f64>,
}

/// The all-pairs bilinear form
/// `⟨(e1,d1),(e2,d2)⟩ = Σ_{0≤a≤b<n} (e1[b] − d1[a])·(e2[b] − d2[a])`,
/// computed in O(n) with running moments.
fn bilinear(e1: &[f64], d1: &[f64], e2: &[f64], d2: &[f64]) -> f64 {
    let mut s_d1 = 0.0;
    let mut s_d2 = 0.0;
    let mut s_d12 = 0.0;
    let mut acc = 0.0;
    for b in 0..e1.len() {
        s_d1 += d1[b];
        s_d2 += d2[b];
        s_d12 += d1[b] * d2[b];
        let cnt = (b + 1) as f64;
        acc += e1[b] * e2[b] * cnt - e1[b] * s_d2 - e2[b] * s_d1 + s_d12;
    }
    acc
}

/// Builds a `b`-coefficient synopsis by OMP-style greedy selection with
/// per-round least-squares value re-fitting on the exact all-ranges SSE.
/// Checkpoints at feature setup, the rhs/gram precompute, and once per
/// greedy round (the candidate scan, the hot loop); aborts with the
/// budget's error once `budget` is exhausted.
pub fn build_range_greedy_with_budget(
    ps: &PrefixSums,
    b: usize,
    budget: &Budget,
) -> Result<RangeOptimalWavelet> {
    let n = ps.n();
    let nn = next_pow2(n + 1);
    budget.charge(2 * nn as u64)?;
    let total = ps.total() as f64;
    let mut hp: Vec<f64> = (0..nn)
        .map(|j| if j < n { ps.p(j + 1) as f64 } else { total })
        .collect();
    let mut hq: Vec<f64> = (0..nn)
        .map(|i| if i <= n { ps.p(i) as f64 } else { total })
        .collect();
    forward(&mut hp);
    forward(&mut hq);
    let sqrt_n = (nn as f64).sqrt();
    let inv_sqrt = 1.0 / sqrt_n;

    // Candidate features. The answering formula is
    //   F(j) += value·(corner: 1/N | row c: h_c(j)/√N),
    //   G(i) += value·(col r: h_r(i)/√N),
    // and the residuals are e[b] = P[b+1] − F(b), d[a] = P[a] + G(a), so a
    // unit of value adds f(a,b) = pe[b] + pd[a] to (e − d)'s *negation*;
    // signs fold into the profiles below so the fit is a plain LS.
    let mut features: Vec<Feature> = Vec::with_capacity(2 * nn - 1);
    {
        let pe = vec![1.0 / nn as f64; n];
        features.push(Feature {
            slot: CoeffSlot::Corner,
            raw_value: sqrt_n * (hp[0] - hq[0]),
            pe,
            pd: vec![0.0; n],
        });
    }
    for (c, &v) in hp.iter().enumerate().skip(1) {
        let basis = BasisFn::for_index(c, nn);
        let pe: Vec<f64> = (0..n).map(|j| inv_sqrt * basis.eval(j)).collect();
        if pe.iter().all(|&x| x == 0.0) {
            continue; // supported entirely in the padding
        }
        features.push(Feature {
            slot: CoeffSlot::Row(c as u32),
            raw_value: sqrt_n * v,
            pe,
            pd: vec![0.0; n],
        });
    }
    for (r, &v) in hq.iter().enumerate().skip(1) {
        let basis = BasisFn::for_index(r, nn);
        // A unit of column-coefficient value moves G(a) — hence d[a] — by
        // +h_r(a)/√N. The feature function is f_c(a,b) = pe[b] + pd[a]; the
        // bilinear helper represents it as the pair (pe, −pd), which the
        // call sites build via `negate`.
        let pd: Vec<f64> = (0..n).map(|i| inv_sqrt * basis.eval(i)).collect();
        if pd.iter().all(|&x| x == 0.0) {
            continue;
        }
        features.push(Feature {
            slot: CoeffSlot::Col(r as u32),
            raw_value: -sqrt_n * v,
            pe: vec![0.0; n],
            pd,
        });
    }

    // Residual target: with no coefficients, e0[b] = P[b+1], d0[a] = P[a].
    let e0: Vec<f64> = (0..n).map(|bq| ps.p(bq + 1) as f64).collect();
    let d0: Vec<f64> = (0..n).map(|a| ps.p(a) as f64).collect();
    let sse0 = bilinear(&e0, &d0, &e0, &d0);

    // Precompute each feature's rhs ⟨r0, f⟩ and self-gram ⟨f, f⟩; maintain
    // the gram rows against the selected set incrementally.
    let m = features.len();
    budget.charge(2 * (m * n) as u64)?;
    let rhs_all: Vec<f64> = features
        .iter()
        .map(|f| bilinear(&e0, &d0, &f.pe, &negate(&f.pd)))
        .collect();
    // Note: the bilinear form treats its pair as (e, d) with residual
    // e[b] − d[a]; a feature enters the residual as −value·(pe[b] + pd[a]),
    // i.e. as "e-profile pe, d-profile −pd" in the form's convention.
    let gram_self: Vec<f64> = features
        .iter()
        .map(|f| bilinear(&f.pe, &negate(&f.pd), &f.pe, &negate(&f.pd)))
        .collect();
    let mut cross: Vec<Vec<f64>> = Vec::new(); // cross[k][c] = ⟨f_sel[k], f_c⟩
    let mut selected: Vec<usize> = Vec::new();
    let mut gram_sel: Vec<Vec<f64>> = Vec::new(); // gram among selected
    let mut current = sse0;

    for _ in 0..b.min(m) {
        let k = selected.len();
        // One checkpoint per greedy round, charging the candidate scan.
        budget.charge((m * (k + 1)) as u64)?;
        let mut best: Option<(usize, f64, Vec<f64>)> = None;
        for c in 0..m {
            if selected.contains(&c) || gram_self[c] <= 1e-12 {
                continue;
            }
            // Assemble the (k+1) system for S ∪ {c}.
            let mut g = Matrix::zeros(k + 1, k + 1);
            let mut r = vec![0.0; k + 1];
            for i in 0..k {
                r[i] = rhs_all[selected[i]];
                for j in 0..k {
                    g[(i, j)] = gram_sel[i][j];
                }
                g[(i, k)] = cross[i][c];
                g[(k, i)] = cross[i][c];
            }
            g[(k, k)] = gram_self[c];
            r[k] = rhs_all[c];
            let Ok(x) = solve_spd_with_ridge(&g, &r) else {
                continue;
            };
            // SSE after fit = sse0 − xᵀ·rhs (standard LS identity).
            let fitted: f64 = sse0 - x.iter().zip(&r).map(|(a, bb)| a * bb).sum::<f64>();
            // Stop threshold is relative to the *original* scale so float
            // noise near zero residual does not manufacture endless picks.
            if fitted < current - 1e-9 * (1.0 + sse0)
                && best.as_ref().map(|&(_, s, _)| fitted < s).unwrap_or(true)
            {
                best = Some((c, fitted, x));
            }
        }
        let Some((c, fitted, x)) = best else { break };
        // Commit: extend gram/cross structures.
        let fc = &features[c];
        let fc_e = fc.pe.clone();
        let fc_d = negate(&fc.pd);
        let mut new_cross = vec![0.0; m];
        for (cc, fo) in features.iter().enumerate() {
            new_cross[cc] = bilinear(&fc_e, &fc_d, &fo.pe, &negate(&fo.pd));
        }
        for (i, &s) in selected.iter().enumerate() {
            let v = new_cross[s];
            gram_sel[i].push(v);
            let _ = i;
        }
        let mut own_row: Vec<f64> = selected.iter().map(|&s| new_cross[s]).collect();
        own_row.push(gram_self[c]);
        gram_sel.push(own_row);
        cross.push(new_cross);
        selected.push(c);
        current = fitted;
        let _ = x; // final values re-fit once below
    }

    // Final re-fit over the selected support.
    let k = selected.len();
    let values: Vec<f64> = if k == 0 {
        Vec::new()
    } else {
        let mut g = Matrix::zeros(k, k);
        let mut r = vec![0.0; k];
        for i in 0..k {
            r[i] = rhs_all[selected[i]];
            for j in 0..k {
                g[(i, j)] = gram_sel[i][j];
            }
        }
        solve_spd_with_ridge(&g, &r).unwrap_or_else(|_| vec![0.0; k])
    };

    let kept: Vec<(CoeffSlot, f64)> = selected
        .iter()
        .zip(&values)
        .map(|(&c, &v)| (features[c].slot, v))
        .collect();
    let dropped: f64 = (0..m)
        .filter(|c| !selected.contains(c))
        .map(|c| features[c].raw_value * features[c].raw_value)
        .sum();
    Ok(RangeOptimalWavelet::from_parts(n, nn, kept, dropped).with_name("TOPBB-GREEDY"))
}

fn negate(v: &[f64]) -> Vec<f64> {
    v.iter().map(|&x| -x).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::sse_brute;
    use synoptic_core::RangeEstimator;

    fn ps(vals: &[i64]) -> PrefixSums {
        PrefixSums::from_values(vals)
    }

    fn datasets() -> Vec<Vec<i64>> {
        vec![
            vec![12, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1],
            vec![100, 1, 1, 1, 1, 1, 1, 90],
            vec![40, 1, 2, 1, 0, 0, 33, 35, 2, 1, 1, 0, 28, 3, 1, 2],
            vec![5, 5, 5, 5, 5, 5],
        ]
    }

    #[test]
    fn greedy_never_loses_to_magnitude_selection_on_range_sse() {
        for vals in datasets() {
            let p = ps(&vals);
            for b in [2usize, 4, 8] {
                let greedy = build_range_greedy_with_budget(&p, b, &Budget::unlimited()).unwrap();
                let topbb =
                    RangeOptimalWavelet::build_with_budget(&p, b, &Budget::unlimited()).unwrap();
                let (g, t) = (sse_brute(&greedy, &p), sse_brute(&topbb, &p));
                assert!(
                    g <= t + 1e-6 * (1.0 + t),
                    "vals={vals:?} b={b}: greedy {g} vs topbb {t}"
                );
            }
        }
    }

    #[test]
    fn greedy_is_monotone_in_budget() {
        for vals in datasets() {
            let p = ps(&vals);
            let mut prev = f64::INFINITY;
            for b in [1usize, 2, 4, 8, 12] {
                let sse = sse_brute(
                    &build_range_greedy_with_budget(&p, b, &Budget::unlimited()).unwrap(),
                    &p,
                );
                assert!(
                    sse <= prev + 1e-6 * (1.0 + prev),
                    "vals={vals:?} b={b}: {sse} vs {prev}"
                );
                prev = sse;
            }
        }
    }

    #[test]
    fn internal_objective_matches_measured_sse() {
        // The LS identity sse0 − xᵀr must agree with the brute-force SSE of
        // the constructed estimator.
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14];
        let p = ps(&vals);
        for b in [1usize, 3, 6] {
            let w = build_range_greedy_with_budget(&p, b, &Budget::unlimited()).unwrap();
            let brute = sse_brute(&w, &p);
            // Rebuild residuals from the estimator itself.
            let (e, d) = w.endpoint_errors(&p);
            let direct = bilinear(&e, &d, &e, &d);
            assert!(
                (brute - direct).abs() <= 1e-6 * (1.0 + brute),
                "b={b}: {brute} vs {direct}"
            );
        }
    }

    #[test]
    fn full_budget_remains_exact() {
        let vals = vec![7i64, 2, 9, 4, 4, 6, 1];
        let p = ps(&vals);
        let nn = next_pow2(vals.len() + 1);
        let w = build_range_greedy_with_budget(&p, 2 * nn - 1, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &p) < 1e-5, "sse = {}", sse_brute(&w, &p));
    }

    #[test]
    fn greedy_stops_early_when_nothing_helps() {
        // All-zero data: the residual target is identically zero, so no
        // feature can improve and the synopsis must stay empty. (Note that
        // *constant* data is NOT easy for this family — F/G must then
        // approximate prefix-sum ramps, which are Haar-dense.)
        let vals = vec![0i64; 7];
        let p = ps(&vals);
        let w = build_range_greedy_with_budget(&p, 12, &Budget::unlimited()).unwrap();
        assert!(w.coeffs().is_empty(), "kept {}", w.coeffs().len());
        assert!(sse_brute(&w, &p) < 1e-9);
    }

    #[test]
    fn budgeted_build_matches_and_aborts_cleanly() {
        use synoptic_core::{Budget, SynopticError};
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14];
        let p = ps(&vals);
        let metered = Budget::unlimited();
        build_range_greedy_with_budget(&p, 4, &metered).unwrap();
        assert!(metered.cells_used() > 0);
        let capped = Budget::unlimited().with_max_cells(1);
        assert!(matches!(
            build_range_greedy_with_budget(&p, 4, &capped),
            Err(SynopticError::CellBudgetExceeded { .. })
        ));
    }

    #[test]
    fn name_and_storage() {
        let vals = vec![3i64, 1, 4, 1, 5];
        let p = ps(&vals);
        let w = build_range_greedy_with_budget(&p, 3, &Budget::unlimited()).unwrap();
        assert_eq!(w.method_name(), "TOPBB-GREEDY");
        assert!(w.storage_words() <= 6);
    }
}
