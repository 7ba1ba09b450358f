//! Segmented synopses: fixed segmentation of the index domain and an
//! estimator that answers cross-segment ranges by composing per-segment
//! partials.
//!
//! A column's domain `0..n` is split into `S` fixed, contiguous, equi-width
//! segments ([`SegmentLayout`]). Each segment carries its **own** synopsis
//! over the segment-local index space `0..len(s)` — a *partial*. A range
//! query `[a, b]` that crosses segment boundaries is answered by clipping it
//! against each overlapped segment, re-indexing the clip into segment-local
//! coordinates, and summing the partials' estimates
//! ([`SegmentedEstimator`]). Range sums are additive over a disjoint cover,
//! so composition introduces no error beyond what each partial already
//! carries.
//!
//! This is the substrate for incremental maintenance: rebuild only the
//! segments an update dirtied (see `synoptic-stream`), and serve the
//! composition.

use std::sync::Arc;

use crate::bucketing::Bucketing;
use crate::error::{Result, SynopticError};
use crate::estimator::RangeEstimator;
use crate::query::RangeQuery;

/// A fixed partition of `0..n` into `S` contiguous equi-width segments
/// (widths differ by at most one; earlier segments get the extra element).
///
/// The layout is immutable for the lifetime of a segmented column: updates
/// map to segments through it, and partials are rebuilt against the same
/// bounds they were first built with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentLayout {
    bounds: Bucketing,
}

impl SegmentLayout {
    /// An equi-width layout of `segments` segments over a domain of size
    /// `n`. Fails when `segments` is zero or exceeds `n`.
    pub fn equi_width(n: usize, segments: usize) -> Result<Self> {
        Ok(Self {
            bounds: Bucketing::equi_width(n, segments)?,
        })
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.bounds.n()
    }

    /// Number of segments `S`.
    pub fn segments(&self) -> usize {
        self.bounds.num_buckets()
    }

    /// Inclusive `(left, right)` global-index bounds of segment `s`.
    pub fn bounds(&self, s: usize) -> (usize, usize) {
        (self.bounds.left(s), self.bounds.right(s))
    }

    /// Width of segment `s`.
    pub fn len(&self, s: usize) -> usize {
        self.bounds.len(s)
    }

    /// Segments are never empty; pairing for [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Segment containing global index `i` (O(log S)).
    pub fn segment_of(&self, i: usize) -> usize {
        self.bounds.bucket_of(i)
    }

    /// Iterator over each segment's inclusive global `(left, right)` bounds.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bounds.iter()
    }

    /// The segments `[a, b]` overlaps, as
    /// `(segment, local_lo, local_hi)` clips in segment-local coordinates,
    /// in segment order.
    pub fn clips(&self, q: RangeQuery) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let first = self.segment_of(q.lo);
        let last = self.segment_of(q.hi);
        (first..=last).map(move |s| {
            let (l, r) = self.bounds(s);
            (s, q.lo.max(l) - l, q.hi.min(r) - l)
        })
    }
}

/// A synopsis composed of per-segment partials: answers a range by summing
/// each overlapped segment's estimate of its clip.
///
/// Partials are shared `Arc`s so an incremental rebuild can reuse the clean
/// segments' synopses unchanged and allocate only the dirty ones.
#[derive(Clone)]
pub struct SegmentedEstimator {
    layout: SegmentLayout,
    parts: Vec<Arc<dyn RangeEstimator>>,
}

impl SegmentedEstimator {
    /// Composes partials over `layout`. Each partial must cover exactly its
    /// segment's local domain (`parts[s].n() == layout.len(s)`).
    pub fn new(layout: SegmentLayout, parts: Vec<Arc<dyn RangeEstimator>>) -> Result<Self> {
        if parts.len() != layout.segments() {
            return Err(SynopticError::InvalidParameter(format!(
                "expected {} partials, got {}",
                layout.segments(),
                parts.len()
            )));
        }
        for (s, part) in parts.iter().enumerate() {
            if part.n() != layout.len(s) {
                return Err(SynopticError::InvalidParameter(format!(
                    "partial {s} covers {} positions, segment holds {}",
                    part.n(),
                    layout.len(s)
                )));
            }
        }
        Ok(Self { layout, parts })
    }

    /// The segment layout.
    pub fn layout(&self) -> &SegmentLayout {
        &self.layout
    }

    /// The per-segment partials, in segment order.
    pub fn parts(&self) -> &[Arc<dyn RangeEstimator>] {
        &self.parts
    }
}

impl RangeEstimator for SegmentedEstimator {
    fn n(&self) -> usize {
        self.layout.n()
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        self.layout
            .clips(q)
            .map(|(s, lo, hi)| self.parts[s].estimate(RangeQuery { lo, hi }))
            .sum()
    }

    fn storage_words(&self) -> usize {
        self.parts.iter().map(|p| p.storage_words()).sum()
    }

    fn method_name(&self) -> &str {
        "SEGMENTED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::PrefixSums;
    use crate::histogram::sap0::Sap0Histogram;

    fn exact_part(values: &[i64]) -> Arc<dyn RangeEstimator> {
        // One bucket per position: SAP0 over singleton buckets is exact.
        let n = values.len();
        let ps = PrefixSums::from_values(values);
        let b = Bucketing::new(n, (0..n).collect()).unwrap();
        Arc::new(Sap0Histogram::optimal_values(b, &ps).unwrap())
    }

    #[test]
    fn layout_geometry_and_segment_of() {
        let l = SegmentLayout::equi_width(10, 4).unwrap();
        assert_eq!(l.n(), 10);
        assert_eq!(l.segments(), 4);
        let total: usize = (0..4).map(|s| l.len(s)).sum();
        assert_eq!(total, 10);
        assert!(!l.is_empty());
        for s in 0..4 {
            let (lo, hi) = l.bounds(s);
            for i in lo..=hi {
                assert_eq!(l.segment_of(i), s);
            }
        }
        assert!(SegmentLayout::equi_width(3, 0).is_err());
        assert!(SegmentLayout::equi_width(3, 4).is_err());
    }

    #[test]
    fn clips_cover_exactly_the_query() {
        let l = SegmentLayout::equi_width(12, 3).unwrap();
        let clips = l.clips(RangeQuery { lo: 2, hi: 9 }).collect::<Vec<_>>();
        assert_eq!(clips, vec![(0, 2, 3), (1, 0, 3), (2, 0, 1)]);
        let clips = l.clips(RangeQuery { lo: 5, hi: 6 }).collect::<Vec<_>>();
        assert_eq!(clips, vec![(1, 1, 2)]);
    }

    #[test]
    fn composition_of_exact_partials_is_exact() {
        let vals: Vec<i64> = (0..17).map(|i| (i * i * 7 + 3 * i) % 23 - 5).collect();
        let ps = PrefixSums::from_values(&vals);
        for segments in [1usize, 2, 3, 5, 17] {
            let layout = SegmentLayout::equi_width(vals.len(), segments).unwrap();
            let parts: Vec<Arc<dyn RangeEstimator>> = layout
                .iter()
                .map(|(l, r)| exact_part(&vals[l..=r]))
                .collect();
            let est = SegmentedEstimator::new(layout, parts).unwrap();
            assert_eq!(est.n(), vals.len());
            for q in RangeQuery::all(vals.len()) {
                let exact = ps.range_sum(q.lo, q.hi) as f64;
                assert!(
                    (est.estimate(q) - exact).abs() < 1e-9,
                    "S={segments} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn mismatched_partials_are_rejected() {
        let layout = SegmentLayout::equi_width(8, 2).unwrap();
        let short = exact_part(&[1, 2, 3]);
        assert!(SegmentedEstimator::new(layout.clone(), vec![short.clone()]).is_err());
        assert!(SegmentedEstimator::new(layout, vec![short.clone(), short]).is_err());
    }

    #[test]
    fn storage_is_the_sum_of_parts() {
        let layout = SegmentLayout::equi_width(6, 2).unwrap();
        let parts: Vec<Arc<dyn RangeEstimator>> = layout
            .iter()
            .map(|(l, r)| exact_part(&[1i64, 2, 3][..=(r - l)]))
            .collect();
        let est = SegmentedEstimator::new(layout, parts).unwrap();
        assert_eq!(est.storage_words(), 2 * 9);
        assert_eq!(est.method_name(), "SEGMENTED");
    }
}
