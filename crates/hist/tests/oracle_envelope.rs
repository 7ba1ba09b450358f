//! The window oracle's exact-arithmetic envelope.
//!
//! * The fused SAP0 cost is bit-identical to its three composed terms on
//!   every window of seeded signed columns.
//! * At the largest range `R = max P − min P` each certificate admits for a
//!   fixed `n`, the SAP0 and SAP1 bucket costs equal, bit for bit, a
//!   reference that sums the window moments directly and checks every
//!   `i128` operation; one step past it the input is refused with
//!   `Overflow`, not a panic.
//! * Inputs the old, uncertified oracle panicked on are refused, and the
//!   anytime ladder descends past them.

use synoptic_core::window::WindowOracle;
use synoptic_core::{Budget, PrefixSums, Rng, SynopticError};
use synoptic_hist::builder::{build_anytime, build_with_budget, AnytimeParams, HistogramMethod};
use synoptic_hist::sap0::sap0_bucket_cost;
use synoptic_hist::sap1::sap1_bucket_cost;

/// `⌊√(2¹²⁷ − 1)⌋`: the base certificate's bound on `(n+1)²·R`.
const MAX_N2_R: u128 = 13_043_817_825_332_782_212;

/// The largest `R` the base certificate admits at `n` keys.
fn base_max_range(n: usize) -> u128 {
    let m = (n + 1) as u128;
    MAX_N2_R / (m * m)
}

/// Whether the regression certificate admits `r` at `n` keys:
/// `⌈(n·R)²/4⌉ · n²(n²−1)/12 ≤ 2¹²⁷ − 1`.
fn fit_admits(n: usize, r: u128) -> bool {
    let n = n as u128;
    let syy = (n * r).checked_mul(n * r).map(|v| v.div_ceil(4));
    let sxx = n * n * (n * n - 1) / 12;
    syy.and_then(|v| v.checked_mul(sxx))
        .is_some_and(|v| v <= i128::MAX as u128)
}

/// The largest `R` the regression certificate admits at `n` keys.
fn fit_max_range(n: usize) -> u128 {
    let (mut lo, mut hi) = (0u128, base_max_range(n));
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fit_admits(n, mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

fn add(a: i128, b: i128) -> i128 {
    a.checked_add(b).expect("reference overflowed i128")
}

fn sub(a: i128, b: i128) -> i128 {
    a.checked_sub(b).expect("reference overflowed i128")
}

fn mul(a: i128, b: i128) -> i128 {
    a.checked_mul(b).expect("reference overflowed i128")
}

/// Every statistic recomputed from the prefix table by direct summation,
/// with checked `i128` arithmetic throughout.
struct Reference {
    p: Vec<i128>,
}

impl Reference {
    fn new(ps: &PrefixSums) -> Self {
        Self {
            p: ps.table().to_vec(),
        }
    }

    /// `L·Σv² − (Σv)²` for the values `vs`.
    fn spread_num(vs: &[i128]) -> i128 {
        let len = vs.len() as i128;
        let s1 = vs.iter().fold(0, |a, &v| add(a, v));
        let s2 = vs.iter().fold(0, |a, &v| add(a, mul(v, v)));
        sub(mul(len, s2), mul(s1, s1))
    }

    fn suffixes(&self, l: usize, r: usize) -> Vec<i128> {
        (l..=r).map(|a| sub(self.p[r + 1], self.p[a])).collect()
    }

    fn prefixes(&self, l: usize, r: usize) -> Vec<i128> {
        (l..=r).map(|b| sub(self.p[b + 1], self.p[l])).collect()
    }

    /// `(K·ΣW² − (ΣW)²) / L²` with `W_x = L·(P[x] − P[l]) − S·(x − l)`.
    fn intra(&self, l: usize, r: usize) -> f64 {
        let len = (r - l + 1) as i128;
        let s = sub(self.p[r + 1], self.p[l]);
        let w: Vec<i128> = (l..=r + 1)
            .map(|x| sub(mul(len, sub(self.p[x], self.p[l])), mul(s, (x - l) as i128)))
            .collect();
        let num = Self::spread_num(&w);
        num as f64 / mul(len, len) as f64
    }

    fn sap0(&self, n: usize, l: usize, r: usize) -> f64 {
        let len = (r - l + 1) as f64;
        let suffix = Self::spread_num(&self.suffixes(l, r)) as f64 / len;
        let prefix = Self::spread_num(&self.prefixes(l, r)) as f64 / len;
        self.intra(l, r) + suffix * (n - 1 - r) as f64 + prefix * l as f64
    }

    /// Residual of the least-squares fit of `ys` against `t = 1..=L`.
    fn rss(ys: &[i128]) -> f64 {
        let len = ys.len() as i128;
        let ts: Vec<i128> = (1..=len).collect();
        let lsxx = Self::spread_num(&ts);
        if lsxx == 0 {
            return 0.0;
        }
        let (st, sy) = (len * (len + 1) / 2, ys.iter().fold(0, |a, &v| add(a, v)));
        let sty = ts.iter().zip(ys).fold(0, |a, (&t, &y)| add(a, mul(t, y)));
        let lsxy = sub(mul(len, sty), mul(st, sy));
        let num = sub(mul(Self::spread_num(ys), lsxx), mul(lsxy, lsxy));
        num as f64 / (len as f64 * lsxx as f64)
    }

    fn sap1(&self, n: usize, l: usize, r: usize) -> f64 {
        // Suffix sums are fitted against t = r − a + 1: reverse them so the
        // regressor runs 1..=L.
        let mut suffixes = self.suffixes(l, r);
        suffixes.reverse();
        let srss = Self::rss(&suffixes);
        let prss = Self::rss(&self.prefixes(l, r));
        self.intra(l, r) + srss * (n - 1 - r) as f64 + prss * l as f64
    }
}

/// Columns of `n` keys whose prefix table spans exactly `[0, r]` or
/// `[−r, 0]`: alternating extremes, one far step, and seeded interior
/// points.
fn shapes_with_range(n: usize, r: u128, seed: u64) -> Vec<Vec<i64>> {
    let r = i64::try_from(r).expect("test ranges fit in i64");
    let mut rng = Rng::new(seed);
    // Prefix tables, then differenced into values.
    let alternating: Vec<i64> = (0..=n).map(|x| if x % 2 == 1 { r } else { 0 }).collect();
    let step: Vec<i64> = (0..=n).map(|x| if x > n / 2 { r } else { 0 }).collect();
    let mut seeded: Vec<i64> = (0..=n).map(|_| rng.i64_in(0, r)).collect();
    seeded[0] = 0;
    seeded[1 + rng.usize_in(0, n)] = r;
    let mut out = Vec::new();
    for table in [alternating, step, seeded] {
        let values: Vec<i64> = table.windows(2).map(|w| w[1] - w[0]).collect();
        out.push(values.iter().map(|v| -v).collect());
        out.push(values);
    }
    out
}

fn range_of(ps: &PrefixSums) -> u128 {
    let t = ps.table();
    let (lo, hi) = (t.iter().min().unwrap(), t.iter().max().unwrap());
    hi.abs_diff(*lo)
}

#[test]
fn fused_sap0_cost_is_the_composed_sum_bit_for_bit() {
    let mut rng = Rng::new(0x5a90);
    let mut columns: Vec<Vec<i64>> = vec![vec![0; 9], vec![-3; 5], vec![7]];
    for n in [2usize, 7, 33, 100] {
        columns.push((0..n).map(|_| rng.i64_in(-50, 50)).collect());
        columns.push((0..n).map(|_| rng.i64_in(-1_000_000, 0)).collect());
        columns.push(
            (0..n)
                .map(|_| if rng.bool() { 0 } else { rng.i64_in(-9, 9) })
                .collect(),
        );
        columns.extend(shapes_with_range(n, base_max_range(n), rng.next_u64()));
    }
    for vals in &columns {
        let ps = PrefixSums::from_values(vals);
        let o = WindowOracle::new(&ps).unwrap();
        let n = vals.len();
        for l in 0..n {
            for r in l..n {
                let composed = o.intra_avg_sse(l, r)
                    + o.suffix_var(l, r) * (n - 1 - r) as f64
                    + o.prefix_var(l, r) * l as f64;
                let fused = sap0_bucket_cost(&o, n, l, r);
                assert_eq!(
                    fused.to_bits(),
                    composed.to_bits(),
                    "window [{l}, {r}] of {vals:?}: fused {fused} vs composed {composed}"
                );
            }
        }
    }
}

#[test]
fn base_certificate_boundary_is_exact_inside_and_refused_past() {
    for (n, seed) in [(1usize, 1u64), (2, 2), (8, 3), (15, 4)] {
        let r_max = base_max_range(n);
        for vals in shapes_with_range(n, r_max, seed) {
            let ps = PrefixSums::from_values(&vals);
            assert_eq!(range_of(&ps), r_max);
            let o = WindowOracle::new(&ps).unwrap();
            let reference = Reference::new(&ps);
            for l in 0..n {
                for r in l..n {
                    assert_eq!(
                        sap0_bucket_cost(&o, n, l, r).to_bits(),
                        reference.sap0(n, l, r).to_bits(),
                        "n={n}, window [{l}, {r}] of {vals:?}"
                    );
                }
            }
        }
        for vals in shapes_with_range(n, r_max + 1, seed) {
            let ps = PrefixSums::from_values(&vals);
            assert!(matches!(
                WindowOracle::new(&ps),
                Err(SynopticError::Overflow)
            ));
            assert!(matches!(
                build_with_budget(HistogramMethod::Sap0, &vals, &ps, 3, &Budget::unlimited()),
                Err(SynopticError::Overflow)
            ));
        }
    }
}

#[test]
fn fit_certificate_boundary_is_exact_inside_and_refused_past() {
    for (n, seed) in [(9usize, 5u64), (16, 6)] {
        let r_max = fit_max_range(n);
        // The regression bound is the binding one at these sizes.
        assert!(r_max < base_max_range(n));
        for vals in shapes_with_range(n, r_max, seed) {
            let ps = PrefixSums::from_values(&vals);
            assert_eq!(range_of(&ps), r_max);
            let o = WindowOracle::new(&ps).unwrap();
            let fits = o.fits().unwrap();
            let reference = Reference::new(&ps);
            for l in 0..n {
                for r in l..n {
                    assert_eq!(
                        sap1_bucket_cost(&fits, n, l, r).to_bits(),
                        reference.sap1(n, l, r).to_bits(),
                        "n={n}, window [{l}, {r}] of {vals:?}"
                    );
                }
            }
        }
        for vals in shapes_with_range(n, r_max + 1, seed) {
            let ps = PrefixSums::from_values(&vals);
            let o = WindowOracle::new(&ps).unwrap();
            assert!(matches!(o.fits(), Err(SynopticError::Overflow)));
            assert!(matches!(
                build_with_budget(HistogramMethod::Sap1, &vals, &ps, 5, &Budget::unlimited()),
                Err(SynopticError::Overflow)
            ));
        }
    }
}

/// 1024 keys with 2³⁰ on every even key: inside the old documented envelope
/// (total 2³⁹), but SAP1's fit determinants overflow `i128`.
fn sap1_overflow_column() -> Vec<i64> {
    (0..1024)
        .map(|i| if i % 2 == 0 { 1 << 30 } else { 0 })
        .collect()
}

#[test]
fn sap1_past_its_envelope_is_refused_and_the_ladder_falls_to_sap0() {
    let vals = sap1_overflow_column();
    let ps = PrefixSums::from_values(&vals);
    assert!(matches!(
        build_with_budget(HistogramMethod::Sap1, &vals, &ps, 10, &Budget::unlimited()),
        Err(SynopticError::Overflow)
    ));
    let built = build_anytime(
        HistogramMethod::Sap1,
        &vals,
        &ps,
        10,
        &AnytimeParams::unconstrained(),
    )
    .unwrap();
    assert_eq!(built.outcome.used, "SAP0");
    assert_eq!(built.outcome.tier, 1);
    assert!(built.outcome.attempts[0].error.contains("overflow"));
}

#[test]
fn sap0_past_its_envelope_falls_to_equi_depth() {
    let vals = vec![i64::MAX, i64::MAX, 0, 0];
    let ps = PrefixSums::from_values(&vals);
    let built = build_anytime(
        HistogramMethod::Sap0,
        &vals,
        &ps,
        6,
        &AnytimeParams::unconstrained(),
    )
    .unwrap();
    assert_eq!(built.outcome.used, "EQUI-DEPTH");
    assert_eq!(built.outcome.tier, 1);
}
