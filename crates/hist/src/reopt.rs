//! Fixed-boundary value re-optimization — the paper's closing idea (§5,
//! "A-reopt").
//!
//! Once boundaries are fixed, eq. (1)'s `avg(i)` can be replaced by free
//! values `x(i)`; the all-ranges SSE is then a degree-2 polynomial
//! `x Q xᵀ + g xᵀ + c` minimized by solving `2Qx + g = 0`. Using the
//! telescoping form of the estimator (DESIGN.md §4.4) with per-position
//! coverage vectors `c(i) ∈ ℝᴮ` (`c(i)_t = |[0, i) ∩ bucket t|`):
//!
//! ```text
//! Q   = (n+1)·Σᵢ c(i)c(i)ᵀ − C Cᵀ          (C = Σᵢ c(i))
//! rhs = (n+1)·Σᵢ P[i]·c(i) − (Σᵢ P[i])·C    (solve Q x = rhs)
//! ```
//!
//! built in `O(nB²)` and solved in `O(B³)` — the paper's `O(N + B^{O(1)})`.
//! `Q` is positive semi-definite by construction; rank deficiency (possible
//! in principle) is handled by a ridge fallback, any minimizer being equally
//! acceptable.

use synoptic_core::sse::sse_value_histogram;
use synoptic_core::{Bucketing, Budget, PrefixSums, Result, SynopticError, ValueHistogram};
use synoptic_linalg::{solve_spd_with_ridge, Matrix};

/// Result of a re-optimization.
#[derive(Debug, Clone)]
pub struct ReoptResult {
    /// Histogram with the same boundaries and SSE-optimal values.
    pub histogram: ValueHistogram,
    /// Exact SSE of the re-optimized histogram.
    pub sse: f64,
}

/// Builds the normal-equation system `(Q, rhs)` for the given boundaries,
/// charging `budget` one checkpoint per position row (`O(B²)` work units
/// each). Exposed for tests and diagnostics.
pub fn normal_equations_with_budget(
    bucketing: &Bucketing,
    ps: &PrefixSums,
    budget: &Budget,
) -> Result<(Matrix, Vec<f64>)> {
    let n = bucketing.n();
    let nb = bucketing.num_buckets();
    let kf = (n + 1) as f64;
    let mut sum_cc = Matrix::zeros(nb, nb); // Σ c(i)c(i)ᵀ
    let mut cap_c = vec![0.0; nb]; // C = Σ c(i)
    let mut sum_dc = vec![0.0; nb]; // Σ P[i]·c(i)
    let mut cap_d = 0.0; // Σ P[i]
                         // c(i) is built incrementally: position i−1 lives in bucket b(i−1).
    let mut c = vec![0.0; nb];
    let posmap = bucketing.position_map();
    for i in 0..=n {
        budget.charge((nb * nb) as u64)?;
        if i > 0 {
            c[posmap[i - 1] as usize] += 1.0;
        }
        let d = ps.p(i) as f64;
        cap_d += d;
        for t in 0..nb {
            if c[t] == 0.0 {
                continue;
            }
            cap_c[t] += c[t];
            sum_dc[t] += d * c[t];
            for u in t..nb {
                sum_cc[(t, u)] += c[t] * c[u];
            }
        }
    }
    // Symmetrize and assemble Q = (n+1)Σccᵀ − CCᵀ.
    let mut q = Matrix::zeros(nb, nb);
    for t in 0..nb {
        for u in 0..nb {
            let cc = if u >= t {
                sum_cc[(t, u)]
            } else {
                sum_cc[(u, t)]
            };
            q[(t, u)] = kf * cc - cap_c[t] * cap_c[u];
        }
    }
    let rhs: Vec<f64> = (0..nb).map(|t| kf * sum_dc[t] - cap_d * cap_c[t]).collect();
    Ok((q, rhs))
}

/// Re-optimizes the per-bucket values of any bucketing for the all-ranges
/// SSE. `base_name` labels the result (e.g. `"OPT-A"` → `"OPT-A-reopt"`).
/// Aborts with the budget's error once `budget` is exhausted.
pub fn reoptimize_with_budget(
    bucketing: &Bucketing,
    ps: &PrefixSums,
    base_name: &str,
    budget: &Budget,
) -> Result<ReoptResult> {
    let (q, rhs) = normal_equations_with_budget(bucketing, ps, budget)?;
    let x =
        solve_spd_with_ridge(&q, &rhs).map_err(|e| SynopticError::SingularSystem(e.to_string()))?;
    let histogram = ValueHistogram::new(bucketing.clone(), x, format!("{base_name}-reopt"))?;
    let sse = sse_value_histogram(histogram.xprefix(), ps);
    Ok(ReoptResult { histogram, sse })
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::sse_brute;
    use synoptic_core::RangeEstimator;
    use synoptic_core::RangeQuery;

    fn ps(vals: &[i64]) -> PrefixSums {
        PrefixSums::from_values(vals)
    }

    /// Brute-force Q and rhs accumulated query-by-query:
    /// `SSE(x) = Σ_q (s_q − c_qᵀx)²` ⇒ `Q = Σ c_q c_qᵀ`, `rhs = Σ s_q c_q`.
    fn brute_normal_equations(bucketing: &Bucketing, p: &PrefixSums) -> (Matrix, Vec<f64>) {
        let n = bucketing.n();
        let nb = bucketing.num_buckets();
        let mut q = Matrix::zeros(nb, nb);
        let mut rhs = vec![0.0; nb];
        for query in RangeQuery::all(n) {
            let mut c = vec![0.0; nb];
            for i in query.lo..=query.hi {
                c[bucketing.bucket_of(i)] += 1.0;
            }
            let s = p.answer(query) as f64;
            for t in 0..nb {
                rhs[t] += s * c[t];
                for u in 0..nb {
                    q[(t, u)] += c[t] * c[u];
                }
            }
        }
        (q, rhs)
    }

    #[test]
    fn closed_form_normal_equations_match_brute_force() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let p = ps(&vals);
        for starts in [vec![0usize], vec![0, 4], vec![0, 2, 7], vec![0, 1, 5, 8]] {
            let b = Bucketing::new(vals.len(), starts).unwrap();
            let (q, rhs) = normal_equations_with_budget(&b, &p, &Budget::unlimited()).unwrap();
            let (bq, brhs) = brute_normal_equations(&b, &p);
            for t in 0..b.num_buckets() {
                assert!(
                    (rhs[t] - brhs[t]).abs() <= 1e-6 * (1.0 + brhs[t].abs()),
                    "rhs[{t}]"
                );
                for u in 0..b.num_buckets() {
                    assert!(
                        (q[(t, u)] - bq[(t, u)]).abs() <= 1e-6 * (1.0 + bq[(t, u)].abs()),
                        "Q[{t},{u}]: {} vs {}",
                        q[(t, u)],
                        bq[(t, u)]
                    );
                }
            }
        }
    }

    #[test]
    fn reopt_never_worse_than_averages() {
        // The average vector is feasible, so the optimum is ≤ its SSE.
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1];
        let p = ps(&vals);
        for starts in [vec![0usize, 4, 8], vec![0, 6], vec![0, 2, 5, 9]] {
            let b = Bucketing::new(vals.len(), starts).unwrap();
            let avg = ValueHistogram::with_averages(b.clone(), &p, "avg").unwrap();
            let base = sse_value_histogram(avg.xprefix(), &p);
            let r = reoptimize_with_budget(&b, &p, "OPT-A", &Budget::unlimited()).unwrap();
            assert!(
                r.sse <= base + 1e-6,
                "reopt {} must be ≤ averages {base}",
                r.sse
            );
        }
    }

    #[test]
    fn reopt_is_a_stationary_point() {
        // Perturbing any coordinate must not decrease the (convex) SSE.
        let vals = vec![5i64, 1, 8, 8, 2, 9, 0, 3];
        let p = ps(&vals);
        let b = Bucketing::new(8, vec![0, 3, 6]).unwrap();
        let r = reoptimize_with_budget(&b, &p, "X", &Budget::unlimited()).unwrap();
        let base = r.sse;
        for t in 0..3 {
            for delta in [-0.1, 0.1] {
                let mut vals2 = r.histogram.values().to_vec();
                vals2[t] += delta;
                let h = ValueHistogram::new(b.clone(), vals2, "pert").unwrap();
                let s = sse_value_histogram(h.xprefix(), &p);
                assert!(
                    s >= base - 1e-7,
                    "perturbing x[{t}] by {delta} lowered SSE: {s} < {base}"
                );
            }
        }
    }

    #[test]
    fn reopt_sse_matches_brute_force_evaluation() {
        let vals = vec![7i64, 2, 9, 4, 4, 6, 1, 8];
        let p = ps(&vals);
        let b = Bucketing::new(8, vec![0, 3, 5]).unwrap();
        let r = reoptimize_with_budget(&b, &p, "EQ", &Budget::unlimited()).unwrap();
        let brute = sse_brute(&r.histogram, &p);
        assert!((r.sse - brute).abs() <= 1e-6 * (1.0 + brute));
        assert_eq!(r.histogram.method_name(), "EQ-reopt");
    }

    #[test]
    fn single_bucket_reopt_matches_calculus() {
        // One bucket: estimate of [a,b] is (b−a+1)·x; optimal x has closed
        // form Σ len_q·s_q / Σ len_q².
        let vals = vec![4i64, 9, 2];
        let p = ps(&vals);
        let b = Bucketing::single(3).unwrap();
        let r = reoptimize_with_budget(&b, &p, "N", &Budget::unlimited()).unwrap();
        let (mut num, mut den) = (0.0, 0.0);
        for q in RangeQuery::all(3) {
            let len = q.len() as f64;
            num += len * p.answer(q) as f64;
            den += len * len;
        }
        assert!((r.histogram.values()[0] - num / den).abs() < 1e-9);
    }

    #[test]
    fn degenerate_all_zero_data() {
        let vals = vec![0i64; 6];
        let p = ps(&vals);
        let b = Bucketing::new(6, vec![0, 3]).unwrap();
        let r = reoptimize_with_budget(&b, &p, "Z", &Budget::unlimited()).unwrap();
        assert!(r.sse < 1e-9);
        for v in r.histogram.values() {
            assert!(v.abs() < 1e-9);
        }
    }
}
