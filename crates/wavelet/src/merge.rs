//! The wavelet merge operator: coefficient union + re-truncation.
//!
//! Haar partials over equal-length power-of-two segments merge *exactly*
//! into a global coefficient set, because the orthonormal Haar basis nests:
//!
//! * a non-DC coefficient of a segment transform is supported entirely
//!   inside its segment, and its amplitude `√(2^j / m)` depends only on the
//!   support length — so the same basis function appears in the global
//!   transform (support length unchanged, amplitude `√(2^{j'} / N)` with
//!   `N / 2^{j'} = m / 2^j`) and the coefficient **value carries over
//!   unchanged**; only its Mallat index shifts
//!   ([`lift_index`]: `2^j + k` in segment `s` of `S` becomes
//!   `(S + s)·2^j + k`);
//! * the segment DC coefficients (`segment sum / √m`) are exactly the
//!   length-`S` signal whose own Haar transform yields the global
//!   coefficients with support `≥ m` — indices `0..S` globally, index map
//!   the identity.
//!
//! So the union of lifted non-DC entries and the transformed DC vector *is*
//! the global transform, restricted to whatever each partial retained. The
//! merge then **re-truncates** to the global budget `b` by magnitude (same
//! deterministic tie-break as [`SparseCoeffs::top_b`]). The error this
//! introduces is exactly the dropped tail: for any range `q`,
//!
//! ```text
//! |merged(q) − union(q)|  ≤  Σ_{c dropped} |θ_c| · |Σ_{x∈q} h_c(x)|
//! ```
//!
//! computable in closed form ([`MergeOutcome::retruncation_bound`]) and
//! asserted by the merge-equivalence suite.

use crate::coeff::SparseCoeffs;
use crate::haar::{forward, next_pow2, BasisFn};
use crate::point_topb::PointWaveletSynopsis;
use synoptic_core::{RangeEstimator, RangeQuery, Result, SynopticError};

/// Global Mallat index of local non-DC coefficient `c` of segment `seg`,
/// when `s_pad` segments of equal power-of-two length are concatenated.
///
/// With `c = 2^j + k` (level `j`, block `k` inside the segment), the basis
/// function's global support sits `seg` segment-widths to the right, giving
/// global index `(s_pad + seg)·2^j + k`.
pub fn lift_index(c: usize, seg: usize, s_pad: usize) -> usize {
    debug_assert!(c > 0, "the DC coefficient does not lift 1:1");
    debug_assert!(s_pad.is_power_of_two() && seg < s_pad);
    let j = usize::BITS - 1 - c.leading_zeros();
    let k = c - (1usize << j);
    ((s_pad + seg) << j) + k
}

/// A merged coefficient set plus the tail re-truncation dropped, for the
/// documented error bound.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged synopsis: top-`b` of the union, over the concatenated
    /// (padded) domain.
    pub merged: SparseCoeffs,
    /// `(global index, value)` pairs present in the union but dropped by
    /// re-truncation, i.e. exactly the coefficients the bound sums over.
    pub dropped: Vec<(u32, f64)>,
}

impl MergeOutcome {
    /// The closed-form per-query re-truncation bound
    /// `Σ_{c dropped} |θ_c| · |Σ_{a≤x≤b} h_c(x)|`: the merged answer is
    /// within this of the un-truncated union's answer on `q`.
    pub fn retruncation_bound(&self, q: RangeQuery) -> f64 {
        let n = self.merged.n();
        self.dropped
            .iter()
            .map(|&(c, v)| (v * BasisFn::for_index(c as usize, n).range_sum(q.lo, q.hi)).abs())
            .sum()
    }
}

/// Merges per-segment sparse coefficient sets (in segment order, all over
/// the same power-of-two local length `m`) into one set over the
/// concatenated domain, re-truncated to `b` coefficients. The segment count
/// is padded to a power of two with implicit all-zero segments; the merged
/// domain length is `next_pow2(S)·m`.
pub fn merge_sparse(parts: &[&SparseCoeffs], b: usize) -> Result<MergeOutcome> {
    let Some(first) = parts.first() else {
        return Err(SynopticError::EmptyInput);
    };
    let m = first.n();
    if parts.iter().any(|p| p.n() != m) {
        return Err(SynopticError::InvalidParameter(
            "all partials must share one padded segment length".into(),
        ));
    }
    let s_pad = next_pow2(parts.len());
    let n = s_pad * m;
    // The segment DCs form a length-s_pad signal whose Haar transform is
    // the global coarse spectrum (indices 0..s_pad, identity index map).
    let mut dcs = vec![0.0f64; s_pad];
    let mut union: Vec<(u32, f64)> = Vec::new();
    for (seg, part) in parts.iter().enumerate() {
        for &(c, v) in part.entries() {
            if c == 0 {
                dcs[seg] = v;
            } else {
                union.push((lift_index(c as usize, seg, s_pad) as u32, v));
            }
        }
    }
    forward(&mut dcs);
    union.extend(
        dcs.iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(c, &v)| (c as u32, v)),
    );
    // Re-truncate with top_b's deterministic order: magnitude descending,
    // ties toward the smaller global index.
    union.sort_by(|&(xi, xv), &(yi, yv)| yv.abs().total_cmp(&xv.abs()).then(xi.cmp(&yi)));
    let keep = b.min(union.len());
    let dropped: Vec<(u32, f64)> = union.split_off(keep);
    union.retain(|&(_, v)| v != 0.0);
    Ok(MergeOutcome {
        merged: SparseCoeffs::from_entries(n, union),
        dropped,
    })
}

/// Re-expresses a coefficient set over a wider power-of-two domain `m`,
/// zero-extended on the right. Sound because a zero extension changes no
/// inner product: every non-DC basis function of the narrow domain is also
/// a basis function of the wide one (aligned support, same amplitude), and
/// the narrow DC spreads over the wide transform's coarse spectrum exactly
/// as a first segment followed by all-zero segments — so this *is*
/// [`merge_sparse`] with implicit empty partials.
fn lift_to(part: &SparseCoeffs, m: usize) -> Result<SparseCoeffs> {
    if part.n() == m {
        return Ok(part.clone());
    }
    let factor = m / part.n();
    let empty = SparseCoeffs::from_entries(part.n(), Vec::new());
    let mut segs: Vec<&SparseCoeffs> = vec![part];
    segs.resize(factor, &empty);
    Ok(merge_sparse(&segs, usize::MAX)?.merged)
}

/// [`merge_sparse`] over whole synopses: every partial except the last must
/// cover its full padded segment (`part.n() == coeffs.n()`, i.e. segments
/// are exactly `m` values, `m` a power of two; the last may be shorter —
/// its coefficients are lifted into the shared width over the same zero
/// padding the monolithic build would have used). The merged synopsis keeps
/// `b` coefficients over the concatenated original domain.
pub fn merge_point_wavelets(
    parts: &[&PointWaveletSynopsis],
    b: usize,
) -> Result<(PointWaveletSynopsis, MergeOutcome)> {
    let Some((last, full)) = parts.split_last() else {
        return Err(SynopticError::EmptyInput);
    };
    let m = parts.iter().map(|p| p.coeffs().n()).max().unwrap_or(1);
    for part in full {
        if part.n() != part.coeffs().n() || part.coeffs().n() != m {
            return Err(SynopticError::InvalidParameter(
                "only the final segment may be shorter than the shared segment width".into(),
            ));
        }
    }
    if last.coeffs().n() > m || m % last.coeffs().n() != 0 {
        return Err(SynopticError::InvalidParameter(
            "final segment must fit the shared segment width".into(),
        ));
    }
    let lifted_last = lift_to(last.coeffs(), m)?;
    let mut coeff_parts: Vec<&SparseCoeffs> = full.iter().map(|p| p.coeffs()).collect();
    coeff_parts.push(&lifted_last);
    let outcome = merge_sparse(&coeff_parts, b)?;
    let n: usize = full.iter().map(|p| p.n()).sum::<usize>() + last.n();
    Ok((
        PointWaveletSynopsis::from_coeffs(n, outcome.merged.clone()),
        outcome,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::{Budget, RangeEstimator};

    fn transform(signal: &[f64]) -> Vec<f64> {
        let mut d = signal.to_vec();
        forward(&mut d);
        d
    }

    #[test]
    fn lift_index_preserves_the_basis_function() {
        // The lifted index must name a global basis function with the same
        // support (shifted by the segment offset) and the same amplitude.
        for (m, s_pad) in [(8usize, 4usize), (4, 2), (16, 8), (8, 1)] {
            let n = m * s_pad;
            for seg in 0..s_pad {
                for c in 1..m {
                    let local = BasisFn::for_index(c, m);
                    let global = BasisFn::for_index(lift_index(c, seg, s_pad), n);
                    assert_eq!(global.start, local.start + seg * m, "m={m} s={seg} c={c}");
                    assert_eq!(global.mid, local.mid + seg * m);
                    assert_eq!(global.end, local.end + seg * m);
                    assert!((global.amp - local.amp).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn full_budget_merge_equals_the_global_transform() {
        // 4 segments of 8: keep everything locally, merge with a full
        // global budget — the union must be the global transform exactly.
        let signal: Vec<f64> = (0..32).map(|i| ((i * 13 + 5) % 17) as f64 - 6.0).collect();
        let parts: Vec<SparseCoeffs> = signal
            .chunks(8)
            .map(|seg| SparseCoeffs::top_b(&transform(seg), 8))
            .collect();
        let refs: Vec<&SparseCoeffs> = parts.iter().collect();
        let out = merge_sparse(&refs, 32).unwrap();
        assert!(out.dropped.is_empty());
        let global = SparseCoeffs::top_b(&transform(&signal), 32);
        let as_map = |sc: &SparseCoeffs| -> std::collections::BTreeMap<u32, f64> {
            sc.entries().iter().copied().collect()
        };
        let (got, want) = (as_map(&out.merged), as_map(&global));
        for c in 0..32u32 {
            let g = got.get(&c).copied().unwrap_or(0.0);
            let w = want.get(&c).copied().unwrap_or(0.0);
            assert!((g - w).abs() < 1e-9, "coefficient {c}: {g} vs {w}");
        }
        for a in 0..32 {
            for b in a..32 {
                let exact: f64 = signal[a..=b].iter().sum();
                assert!(
                    (out.merged.range_sum(a, b) - exact).abs() < 1e-8,
                    "[{a},{b}]"
                );
            }
        }
    }

    #[test]
    fn retruncation_stays_within_the_documented_bound() {
        let signal: Vec<f64> = (0..64)
            .map(|i| ((i * i * 7 + 3 * i) % 31) as f64 - 11.0)
            .collect();
        let parts: Vec<SparseCoeffs> = signal
            .chunks(16)
            .map(|seg| SparseCoeffs::top_b(&transform(seg), 16))
            .collect();
        let refs: Vec<&SparseCoeffs> = parts.iter().collect();
        let full = merge_sparse(&refs, usize::MAX).unwrap();
        for b in [2usize, 6, 12, 24] {
            let out = merge_sparse(&refs, b).unwrap();
            assert!(out.merged.len() <= b);
            for a in 0..64usize {
                for bb in [a, (a + 9).min(63), 63] {
                    let q = RangeQuery { lo: a, hi: bb };
                    let gap = (out.merged.range_sum(a, bb) - full.merged.range_sum(a, bb)).abs();
                    let bound = out.retruncation_bound(q);
                    assert!(
                        gap <= bound + 1e-9,
                        "b={b} q=[{a},{bb}]: gap {gap} exceeds bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_pow2_segment_counts_pad_with_zero_segments() {
        let signal: Vec<f64> = (0..24).map(|i| (i % 7) as f64).collect();
        let parts: Vec<SparseCoeffs> = signal
            .chunks(8)
            .map(|seg| SparseCoeffs::top_b(&transform(seg), 8))
            .collect();
        assert_eq!(parts.len(), 3);
        let refs: Vec<&SparseCoeffs> = parts.iter().collect();
        let out = merge_sparse(&refs, usize::MAX).unwrap();
        assert_eq!(out.merged.n(), 32);
        for a in 0..24 {
            for b in a..24 {
                let exact: f64 = signal[a..=b].iter().sum();
                assert!((out.merged.range_sum(a, b) - exact).abs() < 1e-8);
            }
        }
        // The padding region reconstructs to zero.
        assert!(out.merged.range_sum(24, 31).abs() < 1e-8);
    }

    #[test]
    fn merged_synopsis_estimates_the_concatenated_array() {
        let values: Vec<i64> = (0..40).map(|i| (i * 11 + 3) % 19 - 4).collect();
        let parts: Vec<PointWaveletSynopsis> = values
            .chunks(16)
            .map(|seg| {
                PointWaveletSynopsis::build_with_budget(seg, 16, &Budget::unlimited()).unwrap()
            })
            .collect();
        let refs: Vec<&PointWaveletSynopsis> = parts.iter().collect();
        let (merged, _) = merge_point_wavelets(&refs, usize::MAX).unwrap();
        assert_eq!(merged.n(), 40);
        for a in 0..40 {
            for b in a..40 {
                let exact: f64 = values[a..=b].iter().map(|&v| v as f64).sum();
                let got = merged.estimate(RangeQuery { lo: a, hi: b });
                assert!((got - exact).abs() < 1e-7, "[{a},{b}]: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let a = SparseCoeffs::top_b(&[1.0, 2.0, 3.0, 4.0], 4);
        let c = SparseCoeffs::top_b(&[1.0, 2.0], 2);
        assert!(merge_sparse(&[], 4).is_err());
        assert!(merge_sparse(&[&a, &c], 4).is_err());
        // A shorter *non-final* segment cannot merge at the synopsis level.
        let unlimited = Budget::unlimited();
        // n=3, padded 4
        let w1 = PointWaveletSynopsis::build_with_budget(&[1, 2, 3], 4, &unlimited).unwrap();
        let w2 = PointWaveletSynopsis::build_with_budget(&[4, 5, 6, 7], 4, &unlimited).unwrap();
        let e = merge_point_wavelets(&[&w1, &w2], 8);
        assert!(e.is_err());
        assert!(merge_point_wavelets(&[&w2, &w1], 8).is_ok());
    }
}
