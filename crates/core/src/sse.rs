//! Exact sum-squared-error evaluators.
//!
//! The paper's quality metric is the SSE over **all** `n(n+1)/2` range
//! queries. Three evaluators are provided, from slowest-and-universal to
//! fastest-and-specialised:
//!
//! 1. [`sse_brute`] — O(n² · query cost), works for any
//!    [`RangeEstimator`]; the reference every other evaluator is tested
//!    against.
//! 2. [`sse_value_histogram`] — O(n) closed form for any estimator of the
//!    telescoping form `ŝ[a,b] = X[b+1] − X[a]` (DESIGN.md §4.4).
//! 3. [`sse_endpoint_decomposed`] — O(n + B) for bucket histograms whose
//!    inter-bucket error splits as `u(a) + v(b)` (OPT-A, SAP0, SAP1, A0).
//!
//! A fourth, [`sse_two_function`], covers estimators of the form
//! `ŝ[a,b] = f(b) − g(a)` (the range-optimal wavelet synopsis).

use crate::array::PrefixSums;
use crate::bucketing::Bucketing;
use crate::estimator::RangeEstimator;
use crate::query::RangeQuery;

/// Brute-force SSE over all ranges: O(n²) queries through the estimator's
/// public interface. Exact for any estimator; use for tests, small `n`, and
/// rounded answering procedures that break the closed forms.
pub fn sse_brute<E: RangeEstimator>(est: &E, ps: &PrefixSums) -> f64 {
    let n = ps.n();
    assert_eq!(est.n(), n, "estimator and data must agree on n");
    let mut sse = 0.0;
    for q in RangeQuery::all(n) {
        let d = ps.answer(q) as f64 - est.estimate(q);
        sse += d * d;
    }
    sse
}

/// Exact O(n) SSE for *telescoping* estimators `ŝ[a,b] = X[b+1] − X[a]`,
/// given the estimate prefix table `X[0..=n]`.
///
/// With `w_i = P[i] − X[i]` the error of query `[a,b]` is `w_{b+1} − w_a`,
/// and summing over all pairs `0 ≤ x < y ≤ n`:
///
/// ```text
/// SSE = (n+1)·Σ w² − (Σ w)²
/// ```
pub fn sse_value_histogram(xprefix: &[f64], ps: &PrefixSums) -> f64 {
    let n = ps.n();
    assert_eq!(xprefix.len(), n + 1, "X table must have n+1 entries");
    let k = (n + 1) as f64;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    for (i, &x) in xprefix.iter().enumerate() {
        let w = ps.p(i) as f64 - x;
        s1 += w;
        s2 += w * w;
    }
    (k * s2 - s1 * s1).max(0.0)
}

/// Exact O(n) SSE for estimators of the form `ŝ[a,b] = f(b) − g(a)`.
///
/// `e[b]` must hold the *response-side* error `p(b) − f(b)` and `d[a]` the
/// *anchor-side* error `q(a) − g(a)`, where the true answer is
/// `s[a,b] = p(b) − q(a)` (e.g. `p(b) = P[b+1]`, `q(a) = P[a]`). The query
/// error is then `e[b] − d[a]` and
///
/// ```text
/// SSE = Σ_{a ≤ b} (e[b] − d[a])²
/// ```
///
/// computed with running moments of `d`.
pub fn sse_two_function(e: &[f64], d: &[f64]) -> f64 {
    assert_eq!(e.len(), d.len());
    let mut d1 = 0.0; // Σ_{a ≤ b} d[a]
    let mut d2 = 0.0; // Σ_{a ≤ b} d[a]²
    let mut sse = 0.0;
    for (b, &eb) in e.iter().enumerate() {
        d1 += d[b];
        d2 += d[b] * d[b];
        let cnt = (b + 1) as f64;
        sse += cnt * eb * eb - 2.0 * eb * d1 + d2;
    }
    sse.max(0.0)
}

/// Exact SSE for bucket histograms whose inter-bucket query error decomposes
/// as `u(a) + v(b)` (per-endpoint suffix/prefix errors), given those
/// per-position error arrays and the total intra-bucket SSE.
///
/// ```text
/// SSE = intra_total + Σ_{buck(a) < buck(b)} (u(a) + v(b))²
/// ```
///
/// The inter sum is computed in O(n + B) with per-bucket aggregates and a
/// left-to-right sweep.
pub fn sse_endpoint_decomposed(
    u: &[f64],
    v: &[f64],
    bucketing: &Bucketing,
    intra_total: f64,
) -> f64 {
    let nb = bucketing.num_buckets();
    assert_eq!(u.len(), bucketing.n());
    assert_eq!(v.len(), bucketing.n());
    let mut u1 = vec![0.0; nb];
    let mut u2 = vec![0.0; nb];
    let mut v1 = vec![0.0; nb];
    let mut v2 = vec![0.0; nb];
    let mut cnt = vec![0.0; nb];
    for b in 0..nb {
        for i in bucketing.left(b)..=bucketing.right(b) {
            u1[b] += u[i];
            u2[b] += u[i] * u[i];
            v1[b] += v[i];
            v2[b] += v[i] * v[i];
            cnt[b] += 1.0;
        }
    }
    // Σ_{p<q} [ U2(p)·cnt(q) + V2(q)·cnt(p) + 2·U1(p)·V1(q) ]
    let mut inter = 0.0;
    let (mut cum_u2, mut cum_cnt, mut cum_u1) = (0.0, 0.0, 0.0);
    for q in 0..nb {
        if q > 0 {
            inter += cum_u2 * cnt[q] + v2[q] * cum_cnt + 2.0 * cum_u1 * v1[q];
        }
        cum_u2 += u2[q];
        cum_cnt += cnt[q];
        cum_u1 += u1[q];
    }
    (intra_total + inter).max(0.0)
}

/// Mean squared error over all ranges (`SSE / #queries`), a convenience for
/// reports.
pub fn mse_from_sse(sse: f64, n: usize) -> f64 {
    sse / RangeQuery::count_all(n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::naive::NaiveEstimator;
    use crate::histogram::opta::OptAHistogram;
    use crate::histogram::sap0::Sap0Histogram;
    use crate::histogram::sap1::Sap1Histogram;
    use crate::histogram::value::ValueHistogram;
    use crate::rounding::RoundingMode;
    use crate::window::WindowOracle;

    fn datasets() -> Vec<Vec<i64>> {
        vec![
            vec![1, 3, 5, 11, 12, 13],
            vec![4, 9, 2, 7, 7, 1, 3, 3, 8, 0],
            vec![0, 0, 5, 0, 0],
            vec![100, 1, 1, 1, 1, 1, 1, 90],
        ]
    }

    #[test]
    fn value_histogram_closed_form_matches_brute() {
        for vals in datasets() {
            let ps = PrefixSums::from_values(&vals);
            let n = vals.len();
            for starts in [vec![0], vec![0, 2], vec![0, 1, 3]] {
                if *starts.last().unwrap() >= n {
                    continue;
                }
                let b = Bucketing::new(n, starts).unwrap();
                let h = ValueHistogram::with_averages(b, &ps, "t").unwrap();
                let brute = sse_brute(&h, &ps);
                let fast = sse_value_histogram(h.xprefix(), &ps);
                assert!(
                    (brute - fast).abs() <= 1e-6 * (1.0 + brute),
                    "vals={vals:?}: {brute} vs {fast}"
                );
            }
        }
    }

    #[test]
    fn naive_matches_single_bucket_value_histogram() {
        for vals in datasets() {
            let ps = PrefixSums::from_values(&vals);
            let nv = NaiveEstimator::new(&ps);
            let b = Bucketing::single(vals.len()).unwrap();
            let h = ValueHistogram::with_averages(b, &ps, "t").unwrap();
            let a = sse_brute(&nv, &ps);
            let c = sse_value_histogram(h.xprefix(), &ps);
            assert!((a - c).abs() <= 1e-6 * (1.0 + a));
        }
    }

    #[test]
    fn endpoint_decomposition_matches_brute_for_sap0() {
        for vals in datasets() {
            let ps = PrefixSums::from_values(&vals);
            let oracle = WindowOracle::new(&ps).unwrap();
            let n = vals.len();
            let b = Bucketing::new(n, vec![0, 2, n - 1]).unwrap();
            let h = Sap0Histogram::optimal_values(b.clone(), &ps).unwrap();
            // u(a) = σ_a − suff(buck(a)); v(b) = π_b − pref(buck(b)).
            let mut u = vec![0.0; n];
            let mut v = vec![0.0; n];
            let mut intra = 0.0;
            for bi in 0..b.num_buckets() {
                let (l, r) = (b.left(bi), b.right(bi));
                for a in l..=r {
                    u[a] = ps.range_sum(a, r) as f64 - h.suff()[bi];
                    v[a] = ps.range_sum(l, a) as f64 - h.pref()[bi];
                }
                intra += oracle.intra_avg_sse(l, r);
            }
            let fast = sse_endpoint_decomposed(&u, &v, &b, intra);
            let brute = sse_brute(&h, &ps);
            assert!(
                (fast - brute).abs() <= 1e-6 * (1.0 + brute),
                "vals={vals:?}: {fast} vs {brute}"
            );
        }
    }

    #[test]
    fn endpoint_decomposition_matches_brute_for_opta_unrounded() {
        for vals in datasets() {
            let ps = PrefixSums::from_values(&vals);
            let oracle = WindowOracle::new(&ps).unwrap();
            let n = vals.len();
            let b = Bucketing::new(n, vec![0, 1, 3]).unwrap();
            let h = OptAHistogram::new(b.clone(), &ps, RoundingMode::None).unwrap();
            let mut u = vec![0.0; n];
            let mut v = vec![0.0; n];
            let mut intra = 0.0;
            for bi in 0..b.num_buckets() {
                let (l, r) = (b.left(bi), b.right(bi));
                let m = oracle.avg(l, r);
                for a in l..=r {
                    u[a] = ps.range_sum(a, r) as f64 - (r - a + 1) as f64 * m;
                    v[a] = ps.range_sum(l, a) as f64 - (a - l + 1) as f64 * m;
                }
                intra += oracle.intra_avg_sse(l, r);
            }
            let fast = sse_endpoint_decomposed(&u, &v, &b, intra);
            let brute = sse_brute(&h, &ps);
            assert!(
                (fast - brute).abs() <= 1e-6 * (1.0 + brute),
                "vals={vals:?}: {fast} vs {brute}"
            );
        }
    }

    #[test]
    fn two_function_evaluator_matches_direct_sum() {
        // Synthetic e/d arrays; compare against the O(n²) direct double loop.
        let e = [0.5, -1.0, 2.0, 0.0, 3.5];
        let d = [1.0, 0.0, -2.0, 0.5, 1.5];
        let mut direct = 0.0;
        for (b, &eb) in e.iter().enumerate() {
            for &da in &d[..=b] {
                let x: f64 = eb - da;
                direct += x * x;
            }
        }
        let fast = sse_two_function(&e, &d);
        assert!((fast - direct).abs() < 1e-9, "{fast} vs {direct}");
    }

    #[test]
    fn sap1_brute_no_worse_than_opta_unrounded_same_boundaries() {
        // SAP1 optimizes strictly more free parameters per bucket than the
        // average-only answering, so at fixed boundaries its SSE is ≤.
        for vals in datasets() {
            let ps = PrefixSums::from_values(&vals);
            let n = vals.len();
            let b = Bucketing::new(n, vec![0, 2]).unwrap();
            let h1 = Sap1Histogram::optimal_values(b.clone(), &ps).unwrap();
            let h0 = OptAHistogram::new(b, &ps, RoundingMode::None).unwrap();
            let s1 = sse_brute(&h1, &ps);
            let s0 = sse_brute(&h0, &ps);
            assert!(s1 <= s0 + 1e-6, "vals={vals:?}: SAP1 {s1} vs OPT-A {s0}");
        }
    }

    #[test]
    fn mse_divides_by_query_count() {
        assert_eq!(mse_from_sse(20.0, 4), 2.0); // 10 queries on n=4
    }

    #[test]
    fn perfect_estimator_has_zero_sse() {
        let vals = vec![2i64, 8, 1, 9, 4];
        let ps = PrefixSums::from_values(&vals);
        // n buckets of width 1 ⇒ every answer exact.
        let b = Bucketing::new(5, (0..5).collect()).unwrap();
        let h = ValueHistogram::with_averages(b, &ps, "exact").unwrap();
        assert!(sse_brute(&h, &ps) < 1e-9);
        assert!(sse_value_histogram(h.xprefix(), &ps) < 1e-9);
    }
}
