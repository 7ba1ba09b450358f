//! Bounded histograms: deterministic error intervals for every range query.
//!
//! An AQP engine often needs not just an estimate but a *guarantee*. Storing
//! each bucket's minimum and maximum frequency alongside its average (4B
//! words) yields hard bounds on any range sum:
//!
//! * the middle (whole-bucket) piece of eq. (1) is exact as usual;
//! * an end piece covering `t` of a bucket's `L` cells lies in
//!   `[t·min, t·max] ∩ [sum − (L−t)·max, sum − (L−t)·min]` — the second
//!   interval uses the *complement* of the piece against the exact bucket
//!   total, and the intersection is often much tighter than either alone.
//!
//! This is an extension beyond the paper (which studies expected/SSE error),
//! motivated by its AQP scenario: the same bucket structure, upgraded with
//! two extra words, turns point estimates into certified intervals.

use crate::array::PrefixSums;
use crate::bucketing::Bucketing;
use crate::error::Result;
use crate::estimator::RangeEstimator;
use crate::histogram::BucketSums;
use crate::query::RangeQuery;

/// A histogram carrying per-bucket `min`/`max` in addition to the average.
/// Storage: `4B` words.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedHistogram {
    bucketing: Bucketing,
    sums: BucketSums,
    mins: Vec<i64>,
    maxs: Vec<i64>,
    posmap: Vec<u32>,
}

/// A certified interval for a range sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Guaranteed lower bound.
    pub lo: f64,
    /// Guaranteed upper bound.
    pub hi: f64,
}

impl Bounds {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value lies within the interval (inclusive).
    pub fn contains(&self, v: f64) -> bool {
        self.lo - 1e-9 <= v && v <= self.hi + 1e-9
    }
}

impl BoundedHistogram {
    /// Builds over the given boundaries, scanning the data once for the
    /// per-bucket extrema.
    pub fn build(bucketing: Bucketing, values: &[i64], ps: &PrefixSums) -> Result<Self> {
        use crate::error::SynopticError;
        if values.len() != bucketing.n() {
            return Err(SynopticError::InvalidParameter(format!(
                "expected {} values, got {}",
                bucketing.n(),
                values.len()
            )));
        }
        let sums = BucketSums::new(&bucketing, ps);
        let mut mins = Vec::with_capacity(bucketing.num_buckets());
        let mut maxs = Vec::with_capacity(bucketing.num_buckets());
        for (l, r) in bucketing.iter() {
            let window = &values[l..=r];
            mins.push(*window.iter().min().expect("buckets are non-empty"));
            maxs.push(*window.iter().max().expect("buckets are non-empty"));
        }
        let posmap = bucketing.position_map();
        Ok(Self {
            bucketing,
            sums,
            mins,
            maxs,
            posmap,
        })
    }

    /// The bucket boundaries.
    pub fn bucketing(&self) -> &Bucketing {
        &self.bucketing
    }

    /// `(min, max)` of bucket `b`.
    pub fn extrema(&self, b: usize) -> (i64, i64) {
        (self.mins[b], self.maxs[b])
    }

    /// Certified interval for a *piece* of bucket `b` covering `t` of its
    /// `len` cells.
    fn piece_bounds(&self, b: usize, t: usize) -> (f64, f64) {
        let len = self.bucketing.len(b);
        debug_assert!(t <= len);
        let (min, max) = (self.mins[b] as f64, self.maxs[b] as f64);
        let sum = self.sums.sums[b] as f64;
        let tf = t as f64;
        let rest = (len - t) as f64;
        let lo = (tf * min).max(sum - rest * max);
        let hi = (tf * max).min(sum - rest * min);
        (lo, hi)
    }

    /// Guaranteed bounds on `s[q.lo, q.hi]`.
    pub fn bounds(&self, q: RangeQuery) -> Bounds {
        let p = self.posmap[q.lo] as usize;
        let r = self.posmap[q.hi] as usize;
        if p == r {
            // Piece of a single bucket; if the query covers the whole
            // bucket the interval degenerates to the exact sum.
            let (lo, hi) = self.piece_bounds(p, q.len());
            Bounds { lo, hi }
        } else {
            let middle = self.sums.middle(p, r) as f64;
            let (slo, shi) = self.piece_bounds(p, self.bucketing.right(p) - q.lo + 1);
            let (plo, phi) = self.piece_bounds(r, q.hi - self.bucketing.left(r) + 1);
            Bounds {
                lo: slo + middle + plo,
                hi: shi + middle + phi,
            }
        }
    }
}

impl RangeEstimator for BoundedHistogram {
    fn n(&self) -> usize {
        self.bucketing.n()
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        // Midpoint of the certified interval: at least as accurate in the
        // worst case as the average-based answer, and never outside bounds.
        let b = self.bounds(q);
        (b.lo + b.hi) / 2.0
    }

    fn storage_words(&self) -> usize {
        4 * self.bucketing.num_buckets()
    }

    fn method_name(&self) -> &str {
        "BOUNDED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(vals: &[i64], starts: Vec<usize>) -> (PrefixSums, BoundedHistogram) {
        let ps = PrefixSums::from_values(vals);
        let b = Bucketing::new(vals.len(), starts).unwrap();
        let h = BoundedHistogram::build(b, vals, &ps).unwrap();
        (ps, h)
    }

    #[test]
    fn bounds_always_contain_the_truth() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1];
        let (ps, h) = setup(&vals, vec![0, 4, 8]);
        for q in RangeQuery::all(vals.len()) {
            let truth = ps.answer(q) as f64;
            let b = h.bounds(q);
            assert!(b.contains(truth), "{q:?}: {truth} ∉ [{}, {}]", b.lo, b.hi);
            assert!(b.lo <= b.hi + 1e-9);
            // The midpoint estimate sits inside its own interval.
            assert!(b.contains(h.estimate(q)));
        }
    }

    #[test]
    fn whole_bucket_queries_have_zero_width() {
        let vals = vec![5i64, 1, 8, 8, 2, 9];
        let (ps, h) = setup(&vals, vec![0, 3]);
        for (l, r) in [(0usize, 2usize), (3, 5), (0, 5)] {
            let q = RangeQuery { lo: l, hi: r };
            let b = h.bounds(q);
            assert!(b.width() < 1e-9, "{q:?}: width {}", b.width());
            assert!((b.lo - ps.answer(q) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_buckets_give_exact_answers_everywhere() {
        let vals = vec![7i64; 10];
        let (ps, h) = setup(&vals, vec![0, 5]);
        for q in RangeQuery::all(10) {
            let b = h.bounds(q);
            assert!(b.width() < 1e-9);
            assert!((h.estimate(q) - ps.answer(q) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn complement_intersection_tightens_bounds() {
        // Bucket [0..3] = [10, 0, 0, 0]: a 3-cell suffix piece has naive
        // bounds [0, 30] but the complement bound gives [10−10, 10−0] =
        // [0, 10] ⇒ intersection [0, 10].
        let vals = vec![10i64, 0, 0, 0];
        let (_, h) = setup(&vals, vec![0]);
        let (lo, hi) = h.piece_bounds(0, 3);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 10.0, "complement must cap the piece at the bucket sum");
    }

    #[test]
    fn more_buckets_never_widen_intervals_on_average() {
        let vals: Vec<i64> = (0..24).map(|i| ((i * 37 + 5) % 50) as i64).collect();
        let ps = PrefixSums::from_values(&vals);
        let avg_width = |starts: Vec<usize>| -> f64 {
            let b = Bucketing::new(24, starts).unwrap();
            let h = BoundedHistogram::build(b, &vals, &ps).unwrap();
            let mut acc = 0.0;
            let mut cnt = 0.0;
            for q in RangeQuery::all(24) {
                acc += h.bounds(q).width();
                cnt += 1.0;
            }
            acc / cnt
        };
        let coarse = avg_width(vec![0, 12]);
        let fine = avg_width(vec![0, 6, 12, 18]);
        assert!(
            fine <= coarse + 1e-9,
            "finer partition should tighten: {fine} vs {coarse}"
        );
    }

    #[test]
    fn validation_and_accounting() {
        let vals = vec![1i64, 2, 3];
        let ps = PrefixSums::from_values(&vals);
        let b = Bucketing::new(3, vec![0, 2]).unwrap();
        assert!(BoundedHistogram::build(b.clone(), &[1, 2], &ps).is_err());
        let h = BoundedHistogram::build(b, &vals, &ps).unwrap();
        assert_eq!(h.storage_words(), 8);
        assert_eq!(h.method_name(), "BOUNDED");
        assert_eq!(h.extrema(0), (1, 2));
        assert_eq!(h.extrema(1), (3, 3));
    }
}
