//! The classical OPT-A histogram: bucket averages with the eq. (1) answering
//! procedure, optionally rounding to integers.

use crate::array::PrefixSums;
use crate::bucketing::Bucketing;
use crate::error::Result;
use crate::estimator::RangeEstimator;
use crate::histogram::BucketSums;
use crate::query::RangeQuery;
use crate::rounding::{round_scaled, RoundingMode};

/// The paper's OPT-A representation (§2.1): each bucket stores its average;
/// a query `[a, b]` spanning buckets `p = buck(a) < q = buck(b)` is answered
/// as
///
/// ```text
/// ŝ[a,b] = [(right(p) − a + 1)·avg(p)] + s[right(p)+1, left(q)−1]
///        + [(b − left(q) + 1)·avg(q)]
/// ```
///
/// — the middle piece is *exact* because bucket totals are recoverable from
/// the stored averages. With [`RoundingMode::NearestInt`] the two end pieces
/// are rounded separately (DESIGN.md §4.2), making every estimate and error
/// term integral; with [`RoundingMode::None`] this representation coincides
/// with [`super::value::ValueHistogram::with_averages`].
///
/// Storage: `2B` words (boundaries + averages).
#[derive(Debug, Clone, PartialEq)]
pub struct OptAHistogram {
    bucketing: Bucketing,
    sums: BucketSums,
    posmap: Vec<u32>,
    mode: RoundingMode,
    name: String,
}

impl OptAHistogram {
    /// Builds an OPT-A histogram over the given boundaries.
    pub fn new(bucketing: Bucketing, ps: &PrefixSums, mode: RoundingMode) -> Result<Self> {
        let sums = BucketSums::new(&bucketing, ps);
        let posmap = bucketing.position_map();
        Ok(Self {
            bucketing,
            sums,
            posmap,
            mode,
            name: "OPT-A".to_string(),
        })
    }

    /// The bucket boundaries.
    pub fn bucketing(&self) -> &Bucketing {
        &self.bucketing
    }

    /// The rounding convention in force.
    pub fn mode(&self) -> RoundingMode {
        self.mode
    }

    /// Average of bucket `b`.
    pub fn avg(&self, b: usize) -> f64 {
        self.sums.sums[b] as f64 / self.bucketing.len(b) as f64
    }

    /// Renames the histogram (labels in reports).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The *suffix piece* `[(right(p) − a + 1)·avg(p)]` for endpoint `a` in
    /// bucket `p`, under this histogram's rounding mode.
    #[inline]
    pub fn suffix_piece(&self, p: usize, a: usize) -> f64 {
        let t = (self.bucketing.right(p) - a + 1) as i128;
        self.piece(p, t)
    }

    /// The *prefix piece* `[(b − left(q) + 1)·avg(q)]` for endpoint `b` in
    /// bucket `q`.
    #[inline]
    pub fn prefix_piece(&self, q: usize, b: usize) -> f64 {
        let t = (b - self.bucketing.left(q) + 1) as i128;
        self.piece(q, t)
    }

    #[inline]
    fn piece(&self, bucket: usize, t: i128) -> f64 {
        let s = self.sums.sums[bucket];
        let len = self.bucketing.len(bucket) as i128;
        match self.mode {
            RoundingMode::None => (t * s) as f64 / len as f64,
            RoundingMode::NearestInt => round_scaled(t, s, len) as f64,
        }
    }
}

impl RangeEstimator for OptAHistogram {
    fn n(&self) -> usize {
        self.bucketing.n()
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        let p = self.posmap[q.lo] as usize;
        let r = self.posmap[q.hi] as usize;
        if p == r {
            // Intra-bucket: [(b − a + 1)·avg].
            self.piece(p, q.len() as i128)
        } else {
            let middle = self.sums.middle(p, r) as f64;
            self.suffix_piece(p, q.lo) + middle + self.prefix_piece(r, q.hi)
        }
    }

    fn storage_words(&self) -> usize {
        2 * self.bucketing.num_buckets()
    }

    fn method_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::value::ValueHistogram;

    fn setup(vals: &[i64], starts: Vec<usize>, mode: RoundingMode) -> (PrefixSums, OptAHistogram) {
        let ps = PrefixSums::from_values(vals);
        let b = Bucketing::new(vals.len(), starts).unwrap();
        let h = OptAHistogram::new(b, &ps, mode).unwrap();
        (ps, h)
    }

    #[test]
    fn unrounded_matches_value_histogram_with_averages() {
        let vals = vec![4i64, 9, 2, 7, 7, 1, 3, 3, 8, 0];
        let (ps, h) = setup(&vals, vec![0, 3, 7], RoundingMode::None);
        let b = Bucketing::new(vals.len(), vec![0, 3, 7]).unwrap();
        let v = ValueHistogram::with_averages(b, &ps, "ref").unwrap();
        for q in RangeQuery::all(vals.len()) {
            assert!(
                (h.estimate(q) - v.estimate(q)).abs() < 1e-9,
                "query {q:?}: {} vs {}",
                h.estimate(q),
                v.estimate(q)
            );
        }
    }

    #[test]
    fn rounded_estimates_are_integral() {
        let vals = vec![1i64, 3, 5, 11, 12, 13, 2];
        let (_, h) = setup(&vals, vec![0, 2, 5], RoundingMode::NearestInt);
        for q in RangeQuery::all(vals.len()) {
            let e = h.estimate(q);
            assert_eq!(e, e.round(), "estimate for {q:?} must be integral");
        }
    }

    #[test]
    fn rounded_is_close_to_unrounded() {
        let vals = vec![1i64, 3, 5, 11, 12, 13, 2];
        let (_, hu) = setup(&vals, vec![0, 2, 5], RoundingMode::None);
        let (_, hr) = setup(&vals, vec![0, 2, 5], RoundingMode::NearestInt);
        for q in RangeQuery::all(vals.len()) {
            // Two separately rounded end pieces differ by at most 1 in total.
            assert!(
                (hu.estimate(q) - hr.estimate(q)).abs() <= 1.0 + 1e-9,
                "query {q:?}"
            );
        }
    }

    #[test]
    fn middle_piece_is_exact() {
        // Query spanning all three buckets fully: only end pieces (whole
        // buckets) contribute, and whole-bucket pieces are exact.
        let vals = vec![5i64, 1, 7, 2, 9, 4];
        let (ps, h) = setup(&vals, vec![0, 2, 4], RoundingMode::NearestInt);
        let q = RangeQuery { lo: 0, hi: 5 };
        assert_eq!(h.estimate(q), ps.answer(q) as f64);
        // Suffix piece of a whole bucket equals the exact bucket total.
        assert_eq!(h.suffix_piece(1, 2), ps.range_sum(2, 3) as f64);
        assert_eq!(h.prefix_piece(1, 3), ps.range_sum(2, 3) as f64);
    }

    #[test]
    fn paper_worked_example_errors() {
        // Paper §2.1.1: A = (1,3,5,11), buckets (1,3),(5,11), avgs 2 and 8.
        // δ_{1,2} (0-based query [0,1]) = 4 − 4 = 0; δ_{1,1} = 1 − 2 = −1.
        let vals = vec![1i64, 3, 5, 11];
        let (ps, h) = setup(&vals, vec![0, 2], RoundingMode::NearestInt);
        let d =
            |lo, hi| ps.answer(RangeQuery { lo, hi }) as f64 - h.estimate(RangeQuery { lo, hi });
        assert_eq!(d(0, 0), -1.0);
        assert_eq!(d(0, 1), 0.0);
        assert_eq!(d(1, 1), 1.0);
        assert_eq!(d(2, 2), -3.0);
        assert_eq!(d(3, 3), 3.0);
        assert_eq!(d(2, 3), 0.0);
        // Inter-bucket [1,2]: suffix (3−2=1) + prefix (5−8=−3) ⇒ δ = … check:
        // true s[1,2] = 8; est = round(1·2) + round(1·8) = 10 ⇒ δ = −2.
        assert_eq!(d(1, 2), -2.0);
        // The paper's worked example reports E(4,2,4,10) = 36, but direct
        // enumeration of all 10 ranges gives Σδ² = 34 (the paper's printed
        // term list contains an arithmetic slip; its Λ = 4 and Λ₂ = 10 match
        // our computation exactly — see the companion test below).
        let sse: f64 = RangeQuery::all(4).map(|q| d(q.lo, q.hi).powi(2)).sum();
        assert_eq!(sse, 34.0);
        // Λ = Σ_t δ_{t, B_t^>} (suffix errors) and Λ₂ = Σ_t δ²_{t, B_t^>}.
        let b = h.bucketing();
        let (mut lam, mut lam2) = (0.0, 0.0);
        for t in 0..4 {
            let e = d(t, b.right(b.bucket_of(t)));
            lam += e;
            lam2 += e * e;
        }
        assert_eq!(lam, 4.0);
        assert_eq!(lam2, 10.0);
    }

    #[test]
    fn accessors() {
        let vals = vec![1i64, 3, 5, 11];
        let (_, h) = setup(&vals, vec![0, 2], RoundingMode::NearestInt);
        assert_eq!(h.avg(0), 2.0);
        assert_eq!(h.avg(1), 8.0);
        assert_eq!(h.storage_words(), 4);
        assert_eq!(h.mode(), RoundingMode::NearestInt);
        assert_eq!(h.method_name(), "OPT-A");
        assert_eq!(h.with_name("OPT-A-ROUNDED").method_name(), "OPT-A-ROUNDED");
    }
}
