//! The SAP0 histogram (paper §2.2.1): constant suffix/prefix summaries.

use crate::array::PrefixSums;
use crate::bucketing::Bucketing;
use crate::error::Result;
use crate::estimator::RangeEstimator;
use crate::histogram::BucketSums;
use crate::query::RangeQuery;
use crate::window::WindowOracle;

/// The SAP0 representation: each bucket `i` stores a suffix value `suff(i)`
/// and a prefix value `pref(i)`; an inter-bucket query `[a, b]` with
/// `p = buck(a) < q = buck(b)` is answered as
///
/// ```text
/// ŝ[a,b] = suff(p) + s[right(p)+1, left(q)−1] + pref(q)
/// ```
///
/// — note the answer depends only on the *buckets* of the endpoints, not on
/// `a` and `b` themselves. Intra-bucket queries are answered by
/// `(b − a + 1)·avg`, where the bucket average is *recovered* from the stored
/// values via `avg = (suff + pref) / (len + 1)` (so only `3B` words are
/// stored: boundaries, suffixes, prefixes — Theorem 7).
///
/// The optimal summary values are the bucket means of the suffix and prefix
/// sums (Lemma 5.2), which [`Sap0Histogram::optimal_values`] computes; the
/// Decomposition Lemma (5.1) then makes the total SSE bucket-additive, which
/// is what makes the O(n²B) construction in `synoptic-hist` possible.
#[derive(Debug, Clone, PartialEq)]
pub struct Sap0Histogram {
    bucketing: Bucketing,
    suff: Vec<f64>,
    pref: Vec<f64>,
    sums: BucketSums,
    posmap: Vec<u32>,
}

impl Sap0Histogram {
    /// Builds a SAP0 histogram with explicit summary values (for testing
    /// non-optimal values; normal use is
    /// [`optimal_values`](Self::optimal_values)).
    pub fn new(
        bucketing: Bucketing,
        ps: &PrefixSums,
        suff: Vec<f64>,
        pref: Vec<f64>,
    ) -> Result<Self> {
        use crate::error::SynopticError;
        let nb = bucketing.num_buckets();
        if suff.len() != nb || pref.len() != nb {
            return Err(SynopticError::InvalidParameter(format!(
                "expected {nb} suffix and prefix values, got {} and {}",
                suff.len(),
                pref.len()
            )));
        }
        let sums = BucketSums::new(&bucketing, ps);
        let posmap = bucketing.position_map();
        Ok(Self {
            bucketing,
            suff,
            pref,
            sums,
            posmap,
        })
    }

    /// Builds the SAP0 histogram with the provably optimal summary values:
    /// per-bucket averages of suffix sums and prefix sums (Lemma 5.2).
    pub fn optimal_values(bucketing: Bucketing, ps: &PrefixSums) -> Result<Self> {
        let oracle = WindowOracle::new(ps)?;
        let mut suff = Vec::with_capacity(bucketing.num_buckets());
        let mut pref = Vec::with_capacity(bucketing.num_buckets());
        for (l, r) in bucketing.iter() {
            suff.push(oracle.suffix_mean(l, r));
            pref.push(oracle.prefix_mean(l, r));
        }
        Self::new(bucketing, ps, suff, pref)
    }

    /// The bucket boundaries.
    pub fn bucketing(&self) -> &Bucketing {
        &self.bucketing
    }

    /// Stored suffix values.
    pub fn suff(&self) -> &[f64] {
        &self.suff
    }

    /// Stored prefix values.
    pub fn pref(&self) -> &[f64] {
        &self.pref
    }

    /// Bucket average recovered from the stored values:
    /// `avg = (suff + pref) / (len + 1)`.
    ///
    /// Proof: `suff + pref = (1/len)·Σ_x A[x]·((x−l+1) + (r−x+1)) =
    /// (len+1)·avg` when the summary values are the optimal means.
    pub fn recovered_avg(&self, b: usize) -> f64 {
        (self.suff[b] + self.pref[b]) / (self.bucketing.len(b) + 1) as f64
    }

    /// Exact bucket average (used internally for the middle piece; equals
    /// [`recovered_avg`](Self::recovered_avg) when values are optimal).
    pub fn avg(&self, b: usize) -> f64 {
        self.sums.sums[b] as f64 / self.bucketing.len(b) as f64
    }
}

impl RangeEstimator for Sap0Histogram {
    fn n(&self) -> usize {
        self.bucketing.n()
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        let p = self.posmap[q.lo] as usize;
        let r = self.posmap[q.hi] as usize;
        if p == r {
            q.len() as f64 * self.avg(p)
        } else {
            self.suff[p] + self.sums.middle(p, r) as f64 + self.pref[r]
        }
    }

    fn storage_words(&self) -> usize {
        3 * self.bucketing.num_buckets()
    }

    fn method_name(&self) -> &str {
        "SAP0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(vals: &[i64], starts: Vec<usize>) -> (PrefixSums, Sap0Histogram) {
        let ps = PrefixSums::from_values(vals);
        let b = Bucketing::new(vals.len(), starts).unwrap();
        let h = Sap0Histogram::optimal_values(b, &ps).unwrap();
        (ps, h)
    }

    #[test]
    fn optimal_values_are_suffix_and_prefix_means() {
        let vals = vec![4i64, 9, 2, 7];
        let (ps, h) = setup(&vals, vec![0, 2]);
        // Bucket 0 = [0,1]: suffix sums s[0,1]=13, s[1,1]=9 ⇒ mean 11;
        // prefix sums s[0,0]=4, s[0,1]=13 ⇒ mean 8.5.
        assert_eq!(h.suff()[0], 11.0);
        assert_eq!(h.pref()[0], 8.5);
        // Bucket 1 = [2,3]: suffix sums 9, 7 ⇒ 8; prefix sums 2, 9 ⇒ 5.5.
        assert_eq!(h.suff()[1], 8.0);
        assert_eq!(h.pref()[1], 5.5);
        let _ = ps;
    }

    #[test]
    fn inter_bucket_answer_ignores_exact_endpoints() {
        let vals = vec![4i64, 9, 2, 7, 1, 8];
        let (_, h) = setup(&vals, vec![0, 2, 4]);
        // Queries [0,4] and [1,5] share no endpoints, but [0,4] and [1,4]
        // share buckets (0 → 2) and must get identical answers.
        let a = h.estimate(RangeQuery { lo: 0, hi: 4 });
        let b = h.estimate(RangeQuery { lo: 1, hi: 4 });
        assert_eq!(a, b);
        let c = h.estimate(RangeQuery { lo: 0, hi: 5 });
        assert_eq!(
            c,
            h.estimate(RangeQuery { lo: 1, hi: 5 }),
            "answers depend only on endpoint buckets"
        );
    }

    #[test]
    fn avg_is_recoverable_from_suff_and_pref() {
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3];
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
    fn per_bucket_suffix_errors_sum_to_zero() {
        // The heart of the Decomposition Lemma: Σ_{a ∈ bucket} (σ_a − suff) = 0.
        let vals = vec![7i64, 2, 9, 4, 4, 6, 1];
        let (ps, h) = setup(&vals, vec![0, 3, 5]);
        let b = h.bucketing().clone();
        for bi in 0..b.num_buckets() {
            let (l, r) = (b.left(bi), b.right(bi));
            let su: f64 = (l..=r)
                .map(|a| ps.range_sum(a, r) as f64 - h.suff()[bi])
                .sum();
            let pv: f64 = (l..=r)
                .map(|x| ps.range_sum(l, x) as f64 - h.pref()[bi])
                .sum();
            assert!(su.abs() < 1e-9, "suffix errors bucket {bi}");
            assert!(pv.abs() < 1e-9, "prefix errors bucket {bi}");
        }
    }

    #[test]
    fn validation_and_storage() {
        let ps = PrefixSums::from_values(&[1, 2, 3]);
        let b = Bucketing::new(3, vec![0, 1]).unwrap();
        assert!(Sap0Histogram::new(b.clone(), &ps, vec![0.0], vec![0.0, 0.0]).is_err());
        let h = Sap0Histogram::optimal_values(b, &ps).unwrap();
        assert_eq!(h.storage_words(), 6);
        assert_eq!(h.method_name(), "SAP0");
        assert_eq!(h.n(), 3);
    }

    #[test]
    fn intra_bucket_uses_average_answering() {
        let vals = vec![2i64, 4, 9, 1];
        let (_, h) = setup(&vals, vec![0, 2]);
        assert_eq!(h.estimate(RangeQuery { lo: 0, hi: 1 }), 6.0);
        assert_eq!(h.estimate(RangeQuery::point(0)), 3.0);
        assert_eq!(h.estimate(RangeQuery::point(2)), 5.0);
    }
}
