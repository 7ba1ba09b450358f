//! The SAP1 histogram (paper §2.2.2): linear suffix/prefix summaries.

use crate::array::PrefixSums;
use crate::bucketing::Bucketing;
use crate::error::Result;
use crate::estimator::RangeEstimator;
use crate::histogram::BucketSums;
use crate::query::RangeQuery;
use crate::window::WindowOracle;

/// The SAP1 representation: each bucket `i` stores four values
/// `suff'(i), suff(i), pref'(i), pref(i)`; the suffix piece of an
/// inter-bucket query with left endpoint `a` in bucket `p` is approximated by
///
/// ```text
/// (right(p) − a + 1)·suff'(p) + suff(p)
/// ```
///
/// and the prefix piece symmetrically. The optimal values are the
/// coefficients of the least-squares linear fits to the in-bucket suffix and
/// prefix sums, under which the regression residuals per bucket sum to zero,
/// so the Decomposition Lemma applies verbatim and the O(n²B) DP of
/// `synoptic-hist` is exactly optimal (Theorem 8).
///
/// Storage: `5B` words (boundaries + four values per bucket; the bucket
/// average needed for the middle piece and intra queries is recovered from
/// the stored values — Theorem 8).
#[derive(Debug, Clone, PartialEq)]
pub struct Sap1Histogram {
    bucketing: Bucketing,
    /// Slope of the suffix fit, indexed by bucket.
    suff_slope: Vec<f64>,
    /// Intercept of the suffix fit.
    suff_icpt: Vec<f64>,
    /// Slope of the prefix fit.
    pref_slope: Vec<f64>,
    /// Intercept of the prefix fit.
    pref_icpt: Vec<f64>,
    sums: BucketSums,
    posmap: Vec<u32>,
}

impl Sap1Histogram {
    /// Builds a SAP1 histogram with explicit fit coefficients.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bucketing: Bucketing,
        ps: &PrefixSums,
        suff_slope: Vec<f64>,
        suff_icpt: Vec<f64>,
        pref_slope: Vec<f64>,
        pref_icpt: Vec<f64>,
    ) -> Result<Self> {
        use crate::error::SynopticError;
        let nb = bucketing.num_buckets();
        for (label, v) in [
            ("suff'", &suff_slope),
            ("suff", &suff_icpt),
            ("pref'", &pref_slope),
            ("pref", &pref_icpt),
        ] {
            if v.len() != nb {
                return Err(SynopticError::InvalidParameter(format!(
                    "expected {nb} {label} values, got {}",
                    v.len()
                )));
            }
        }
        let sums = BucketSums::new(&bucketing, ps);
        let posmap = bucketing.position_map();
        Ok(Self {
            bucketing,
            suff_slope,
            suff_icpt,
            pref_slope,
            pref_icpt,
            sums,
            posmap,
        })
    }

    /// Builds the SAP1 histogram with the provably optimal values: the
    /// least-squares fits of `s[a, right]` against `right − a + 1` and of
    /// `s[left, b]` against `b − left + 1` per bucket.
    pub fn optimal_values(bucketing: Bucketing, ps: &PrefixSums) -> Result<Self> {
        let oracle = WindowOracle::new(ps)?;
        let fits = oracle.fits()?;
        let nb = bucketing.num_buckets();
        let mut ss = Vec::with_capacity(nb);
        let mut si = Vec::with_capacity(nb);
        let mut pslope = Vec::with_capacity(nb);
        let mut pi = Vec::with_capacity(nb);
        for (l, r) in bucketing.iter() {
            let (_, a, b) = fits.suffix_fit(l, r);
            ss.push(a);
            si.push(b);
            let (_, a, b) = fits.prefix_fit(l, r);
            pslope.push(a);
            pi.push(b);
        }
        Self::new(bucketing, ps, ss, si, pslope, pi)
    }

    /// The bucket boundaries.
    pub fn bucketing(&self) -> &Bucketing {
        &self.bucketing
    }

    /// `(slope, intercept)` of the suffix fit of bucket `b`.
    pub fn suffix_coeffs(&self, b: usize) -> (f64, f64) {
        (self.suff_slope[b], self.suff_icpt[b])
    }

    /// `(slope, intercept)` of the prefix fit of bucket `b`.
    pub fn prefix_coeffs(&self, b: usize) -> (f64, f64) {
        (self.pref_slope[b], self.pref_icpt[b])
    }

    /// Exact bucket average (for the middle piece / intra queries).
    pub fn avg(&self, b: usize) -> f64 {
        self.sums.sums[b] as f64 / self.bucketing.len(b) as f64
    }

    /// Bucket average recovered from the stored fits. A least-squares line
    /// passes through the mean point, so the SAP0-style suffix/prefix means
    /// are `slope·(len+1)/2 + intercept`, and as in SAP0 their sum equals
    /// `(len+1)·avg`:
    ///
    /// ```text
    /// avg = (suff' + pref')/2 + (suff + pref)/(len + 1)
    /// ```
    pub fn recovered_avg(&self, b: usize) -> f64 {
        let len = self.bucketing.len(b) as f64;
        (self.suff_slope[b] + self.pref_slope[b]) / 2.0
            + (self.suff_icpt[b] + self.pref_icpt[b]) / (len + 1.0)
    }
}

impl RangeEstimator for Sap1Histogram {
    fn n(&self) -> usize {
        self.bucketing.n()
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        let p = self.posmap[q.lo] as usize;
        let r = self.posmap[q.hi] as usize;
        if p == r {
            q.len() as f64 * self.avg(p)
        } else {
            let ts = (self.bucketing.right(p) - q.lo + 1) as f64;
            let tp = (q.hi - self.bucketing.left(r) + 1) as f64;
            (ts * self.suff_slope[p] + self.suff_icpt[p])
                + self.sums.middle(p, r) as f64
                + (tp * self.pref_slope[r] + self.pref_icpt[r])
        }
    }

    fn storage_words(&self) -> usize {
        5 * self.bucketing.num_buckets()
    }

    fn method_name(&self) -> &str {
        "SAP1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(vals: &[i64], starts: Vec<usize>) -> (PrefixSums, Sap1Histogram) {
        let ps = PrefixSums::from_values(vals);
        let b = Bucketing::new(vals.len(), starts).unwrap();
        let h = Sap1Histogram::optimal_values(b, &ps).unwrap();
        (ps, h)
    }

    #[test]
    fn linear_data_is_fit_exactly() {
        // With constant data the suffix sums are exactly linear in t, so the
        // fits are exact and inter-bucket answers have zero end-piece error.
        let vals = vec![5i64; 8];
        let (ps, h) = setup(&vals, vec![0, 4]);
        for q in RangeQuery::all(8) {
            assert!(
                (h.estimate(q) - ps.answer(q) as f64).abs() < 1e-9,
                "query {q:?}"
            );
        }
    }

    #[test]
    fn per_bucket_residuals_sum_to_zero() {
        // Least-squares residuals with an intercept sum to zero — the
        // property that lets the Decomposition Lemma carry over to SAP1.
        let vals = vec![7i64, 2, 9, 4, 4, 6, 1, 8];
        let (ps, h) = setup(&vals, vec![0, 3, 6]);
        let b = h.bucketing().clone();
        for bi in 0..b.num_buckets() {
            let (l, r) = (b.left(bi), b.right(bi));
            let (a, c) = h.suffix_coeffs(bi);
            let res: f64 = (l..=r)
                .map(|x| ps.range_sum(x, r) as f64 - (a * (r - x + 1) as f64 + c))
                .sum();
            assert!(res.abs() < 1e-8, "suffix residuals bucket {bi}: {res}");
            let (a, c) = h.prefix_coeffs(bi);
            let res: f64 = (l..=r)
                .map(|x| ps.range_sum(l, x) as f64 - (a * (x - l + 1) as f64 + c))
                .sum();
            assert!(res.abs() < 1e-8, "prefix residuals bucket {bi}: {res}");
        }
    }

    #[test]
    fn sap1_end_pieces_never_worse_than_sap0_fit() {
        // The linear fit's RSS is ≤ the constant fit's RSS by definition of
        // least squares.
        use crate::window::WindowOracle;
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6];
        let ps = PrefixSums::from_values(&vals);
        let o = WindowOracle::new(&ps).unwrap();
        let fits = o.fits().unwrap();
        for l in 0..8 {
            for r in l..8 {
                let (rss, _, _) = fits.suffix_fit(l, r);
                assert!(rss <= o.suffix_var(l, r) + 1e-9, "window {l},{r}");
                let (rss, _, _) = fits.prefix_fit(l, r);
                assert!(rss <= o.prefix_var(l, r) + 1e-9, "window {l},{r}");
            }
        }
    }

    #[test]
    fn avg_is_recoverable_from_suffix_fit() {
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let (_, h) = setup(&vals, vec![0, 3, 7]);
        for b in 0..3 {
            assert!(
                (h.recovered_avg(b) - h.avg(b)).abs() < 1e-9,
                "bucket {b}: {} vs {}",
                h.recovered_avg(b),
                h.avg(b)
            );
        }
    }

    #[test]
    fn validation_and_storage() {
        let ps = PrefixSums::from_values(&[1, 2, 3, 4]);
        let b = Bucketing::new(4, vec![0, 2]).unwrap();
        assert!(Sap1Histogram::new(
            b.clone(),
            &ps,
            vec![0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0]
        )
        .is_err());
        let h = Sap1Histogram::optimal_values(b, &ps).unwrap();
        assert_eq!(h.storage_words(), 10);
        assert_eq!(h.method_name(), "SAP1");
    }
}
