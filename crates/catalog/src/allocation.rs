//! Cross-column storage-budget allocation.
//!
//! Given per-column error curves `sse_c(w)` (error at `w` words) and a
//! global budget `W`, choose per-column budgets `w_c` with `Σ w_c ≤ W`
//! minimizing `Σ weight_c · sse_c(w_c)`. Curves are evaluated on a caller-
//! supplied grid (constructions are expensive; the grid keeps the number of
//! builds small); allocation over the grid is solved **exactly** by a
//! knapsack-style DP. The segment split of a segmented column uses it to
//! divide one column's words among its segments.

use synoptic_core::{Result, SynopticError};

/// One column's error curve over the budget grid.
#[derive(Debug, Clone)]
pub struct ColumnCurve {
    /// Column label.
    pub name: String,
    /// Relative importance of this column's error.
    pub weight: f64,
    /// `(words, sse)` points, strictly increasing in words. A virtual
    /// `(0, sse_at_zero)` anchor (e.g. NAIVE-quality or worse) should be
    /// included by the caller if "spend nothing" is permissible.
    pub points: Vec<(usize, f64)>,
}

impl ColumnCurve {
    fn validate(&self) -> Result<()> {
        if self.points.is_empty() {
            return Err(SynopticError::InvalidParameter(format!(
                "column {} has an empty curve",
                self.name
            )));
        }
        for w in self.points.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(SynopticError::InvalidParameter(format!(
                    "column {}: grid not strictly increasing",
                    self.name
                )));
            }
        }
        if self.weight < 0.0 {
            return Err(SynopticError::InvalidParameter(format!(
                "column {}: negative weight",
                self.name
            )));
        }
        Ok(())
    }
}

/// The chosen allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationResult {
    /// `(column name, words, sse at that choice)`, in input order.
    pub choices: Vec<(String, usize, f64)>,
    /// Total words spent.
    pub total_words: usize,
    /// Total weighted SSE achieved.
    pub total_weighted_sse: f64,
}

/// Exact allocation by DP over `budget` words. `O(C · budget · grid)` time,
/// `O(C · budget)` memory.
pub fn allocate_budget(curves: &[ColumnCurve], budget: usize) -> Result<AllocationResult> {
    if curves.is_empty() {
        return Err(SynopticError::InvalidParameter("no columns".into()));
    }
    for c in curves {
        c.validate()?;
    }
    let cn = curves.len();
    // dp[c][w]: best weighted SSE using columns 0..c within w words; every
    // column must pick exactly one grid point (include a 0-word anchor in
    // the curve to allow skipping a column).
    const INF: f64 = f64::INFINITY;
    let mut dp = vec![vec![INF; budget + 1]; cn + 1];
    let mut pick: Vec<Vec<usize>> = vec![vec![usize::MAX; budget + 1]; cn];
    for slot in dp[0].iter_mut() {
        *slot = 0.0;
    }
    for (c, curve) in curves.iter().enumerate() {
        for w in 0..=budget {
            for (gi, &(words, sse)) in curve.points.iter().enumerate() {
                if words > w {
                    break; // grid sorted: later points cost even more
                }
                let prev = dp[c][w - words];
                if !prev.is_finite() {
                    continue;
                }
                let cand = prev + curve.weight * sse;
                if cand < dp[c + 1][w] {
                    dp[c + 1][w] = cand;
                    pick[c][w] = gi;
                }
            }
            // Monotone envelope: allowing unused words.
            if w > 0 && dp[c + 1][w - 1] < dp[c + 1][w] {
                dp[c + 1][w] = dp[c + 1][w - 1];
                pick[c][w] = pick[c][w - 1];
            }
        }
    }
    if !dp[cn][budget].is_finite() {
        return Err(SynopticError::BudgetTooSmall {
            words: budget,
            minimum: curves.iter().map(|c| c.points[0].0).sum(),
        });
    }
    // Reconstruct.
    let mut choices = vec![(String::new(), 0usize, 0.0); cn];
    let mut w = budget;
    // Walk the monotone envelope back to the exact cell used.
    for c in (0..cn).rev() {
        while w > 0 && pick[c][w] == pick[c][w - 1] && dp[c + 1][w] == dp[c + 1][w - 1] {
            w -= 1;
        }
        let gi = pick[c][w];
        debug_assert_ne!(gi, usize::MAX);
        let (words, sse) = curves[c].points[gi];
        choices[c] = (curves[c].name.clone(), words, sse);
        w -= words;
    }
    let total_words = choices.iter().map(|&(_, w, _)| w).sum();
    let total_weighted_sse = choices
        .iter()
        .zip(curves)
        .map(|(&(_, _, s), c)| c.weight * s)
        .sum();
    Ok(AllocationResult {
        choices,
        total_words,
        total_weighted_sse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(name: &str, weight: f64, pts: &[(usize, f64)]) -> ColumnCurve {
        ColumnCurve {
            name: name.into(),
            weight,
            points: pts.to_vec(),
        }
    }

    #[test]
    fn single_column_takes_the_best_affordable_point() {
        let c = curve("a", 1.0, &[(2, 100.0), (4, 25.0), (8, 4.0)]);
        let r = allocate_budget(std::slice::from_ref(&c), 5).unwrap();
        assert_eq!(r.choices[0], ("a".into(), 4, 25.0));
        let r = allocate_budget(std::slice::from_ref(&c), 100).unwrap();
        assert_eq!(r.choices[0].1, 8);
        assert!(allocate_budget(&[c], 1).is_err());
    }

    #[test]
    fn dp_prefers_the_column_with_more_to_gain() {
        // Column a: huge error, improves fast; column b: already fine.
        let a = curve("a", 1.0, &[(2, 1000.0), (6, 10.0)]);
        let b = curve("b", 1.0, &[(2, 5.0), (6, 4.0)]);
        let r = allocate_budget(&[a, b], 8).unwrap();
        assert_eq!(r.choices[0].1, 6, "a should get the upgrade: {r:?}");
        assert_eq!(r.choices[1].1, 2);
        assert_eq!(r.total_weighted_sse, 15.0);
    }

    #[test]
    fn weights_steer_the_allocation() {
        let a = curve("a", 0.01, &[(2, 1000.0), (6, 10.0)]);
        let b = curve("b", 100.0, &[(2, 5.0), (6, 4.0)]);
        let r = allocate_budget(&[a, b], 8).unwrap();
        // Weighted: upgrading b saves 100.0; upgrading a saves 9.9.
        assert_eq!(r.choices[1].1, 6, "{r:?}");
    }

    #[test]
    fn exhaustive_check_on_small_instances() {
        let a = curve("a", 2.0, &[(1, 30.0), (3, 12.0), (5, 2.0)]);
        let b = curve("b", 1.0, &[(2, 40.0), (4, 9.0)]);
        let cset = [a.clone(), b.clone()];
        for budget in 3..=9usize {
            let dp = allocate_budget(&cset, budget).unwrap();
            // Brute force over grid choices.
            let mut best = f64::INFINITY;
            for &(wa, sa) in &a.points {
                for &(wb, sb) in &b.points {
                    if wa + wb <= budget {
                        best = best.min(2.0 * sa + sb);
                    }
                }
            }
            assert!(
                (dp.total_weighted_sse - best).abs() < 1e-9,
                "budget {budget}: dp {} vs brute {best}",
                dp.total_weighted_sse
            );
        }
    }

    #[test]
    fn validation_errors() {
        assert!(allocate_budget(&[], 10).is_err());
        let empty = curve("x", 1.0, &[]);
        assert!(allocate_budget(&[empty], 10).is_err());
        let non_monotone = curve("x", 1.0, &[(4, 1.0), (2, 2.0)]);
        assert!(allocate_budget(&[non_monotone], 10).is_err());
        let neg = curve("x", -1.0, &[(2, 1.0)]);
        assert!(allocate_budget(&[neg], 10).is_err());
    }
}
