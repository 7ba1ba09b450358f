//! The histogram merge operator: partial per-segment builds and prefix-sum
//! stitching.
//!
//! A SAP0 histogram stores, per bucket, the mean of the bucket's suffix
//! sums and the mean of its prefix sums — both exact `i128` moments *local
//! to the bucket*, divided once by the bucket width. Because every stored
//! quantity is bucket-local, a histogram built over a segment slice carries
//! exactly the values the monolithic build would have produced for the same
//! buckets, bit for bit. Stitching is therefore exact: concatenate
//! bucketings (shifting starts by the running segment offset), carry the
//! stored values over unchanged, and rebase the exact cumulative bucket
//! sums ([`synoptic_core::Sap0Histogram::stitch`]).
//!
//! What stitching does *not* claim: the merged histogram equals a
//! monolithic **DP** over the whole domain. The DP may place boundaries
//! across segment edges; partial builds cannot. The equivalence the
//! merge-equivalence suite asserts is against the monolithic build *on the
//! stitched bucketing* — same boundaries, same prefix sums — which is the
//! strongest statement that survives partialization (and the same contract
//! timescaledb-toolkit documents for partializable t-digests).

use synoptic_core::{Budget, PrefixSums, Result, Sap0Histogram, SegmentLayout, SynopticError};

use crate::sap0::build_sap0_with_budget;

/// Builds one optimal SAP0 partial per segment of `layout`, the DP running
/// on the segment-local prefix sums with `buckets[s]` buckets, all attempts
/// charged to the shared `budget`.
pub fn build_sap0_partials(
    values: &[i64],
    layout: &SegmentLayout,
    buckets: &[usize],
    budget: &Budget,
) -> Result<Vec<Sap0Histogram>> {
    if buckets.len() != layout.segments() {
        return Err(SynopticError::InvalidParameter(format!(
            "expected {} per-segment bucket counts, got {}",
            layout.segments(),
            buckets.len()
        )));
    }
    if values.len() != layout.n() {
        return Err(SynopticError::InvalidParameter(format!(
            "layout covers {} positions, values hold {}",
            layout.n(),
            values.len()
        )));
    }
    layout
        .iter()
        .zip(buckets)
        .map(|((l, r), &b)| {
            let lps = PrefixSums::from_values(&values[l..=r]);
            Ok(build_sap0_with_budget(&lps, b.clamp(1, r - l + 1), budget)?.0)
        })
        .collect()
}

/// Prefix-sum stitching: merges per-segment SAP0 partials (in segment
/// order) into one histogram over the concatenated domain. Bit-identical to
/// the monolithic [`Sap0Histogram::optimal_values`] on the stitched
/// bucketing — see the module docs for exactly what that claims.
pub fn merge_sap0(parts: &[Sap0Histogram]) -> Result<Sap0Histogram> {
    Sap0Histogram::stitch(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::{Bucketing, RangeEstimator, RangeQuery};

    #[test]
    fn partials_merge_to_the_monolithic_build_on_the_stitched_bucketing() {
        let vals: Vec<i64> = (0..40).map(|i| (i * i * 31 + 7 * i) % 97 - 20).collect();
        let ps = PrefixSums::from_values(&vals);
        for segments in [1usize, 2, 4, 5] {
            let layout = SegmentLayout::equi_width(vals.len(), segments).unwrap();
            let buckets = vec![3usize; segments];
            let parts =
                build_sap0_partials(&vals, &layout, &buckets, &Budget::unlimited()).unwrap();
            let merged = merge_sap0(&parts).unwrap();
            // Reconstruct the stitched boundaries and build monolithically.
            let mut starts = Vec::new();
            for ((l, _), part) in layout.iter().zip(&parts) {
                starts.extend(part.bucketing().starts().iter().map(|s| l + s));
            }
            let mono =
                Sap0Histogram::optimal_values(Bucketing::new(vals.len(), starts).unwrap(), &ps)
                    .unwrap();
            for q in RangeQuery::all(vals.len()) {
                assert_eq!(
                    merged.estimate(q).to_bits(),
                    mono.estimate(q).to_bits(),
                    "S={segments} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let vals = vec![1i64; 10];
        let layout = SegmentLayout::equi_width(10, 2).unwrap();
        let b = Budget::unlimited();
        assert!(build_sap0_partials(&vals, &layout, &[2], &b).is_err());
        assert!(build_sap0_partials(&vals[..8], &layout, &[2, 2], &b).is_err());
        assert!(merge_sap0(&[]).is_err());
    }
}
