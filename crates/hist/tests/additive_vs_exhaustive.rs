//! Every bucket-additive builder's DP objective equals the exhaustive
//! optimum of the same per-bucket cost: SAP1, A0 and POINT-OPT (SAP0 is
//! covered in `sap0.rs`), for every bucket count, on signed data and on a
//! 12-key column whose total is near `2⁴⁰`. The window oracle certifies
//! `(n+1)²·R ≤ ⌊√(2¹²⁷−1)⌋` with `R = max P − min P` over the prefix table
//! (plus a stricter bound for SAP1's fits, about `n³·R ≤ 2^66`); this
//! column sits far inside both.
//!
//! Both sides sum the bucket costs left to right from `0.0`, and f64
//! addition is monotone, so the DP minimum and the enumerated minimum are
//! the same float — the assertions compare bits, not a tolerance.

use synoptic_core::window::{WeightedPointOracle, WindowOracle};
use synoptic_core::{Bucketing, Budget, PrefixSums};
use synoptic_hist::a0::{a0_bucket_cost, build_a0_with_budget};
use synoptic_hist::exhaustive::exhaustive_optimal;
use synoptic_hist::sap1::{build_sap1_with_budget, sap1_bucket_cost};
use synoptic_hist::vopt::{build_point_opt_with_budget, PointWeighting};

/// The signed datasets of the workspace's `tests/negative_data.rs`, plus a
/// 12-key column whose values sit near `2⁴⁰ / 12`, so the total is near
/// `2⁴⁰`.
fn datasets() -> Vec<Vec<i64>> {
    let base = (1i64 << 40) / 12;
    vec![
        vec![-5, 3, -1, 7, -9, 2, 0, -4],
        vec![-100, -100, -100, 50, 50, 50],
        vec![0, -1, 1, -2, 2, -3, 3, -4, 4],
        vec![-7; 6],
        (0..12)
            .map(|i| base - (i * i * 31 + 7 * i) % 997 * (base / 2000))
            .collect(),
    ]
}

/// The additive objective of one bucketing, summed in the DP's order.
fn additive(bucketing: &Bucketing, cost: &impl Fn(usize, usize) -> f64) -> f64 {
    bucketing.iter().fold(0.0, |acc, (l, r)| acc + cost(l, r))
}

/// Asserts `build(b)`'s DP objective is the exhaustive minimum of `cost`
/// for every bucket count `b ≤ n`.
fn check(
    name: &str,
    vals: &[i64],
    cost: impl Fn(usize, usize) -> f64,
    build: impl Fn(usize) -> f64,
) {
    let n = vals.len();
    assert!(n <= 12, "{name}: exhaustive check needs n ≤ 12, got {n}");
    for b in 1..=n {
        let dp = build(b);
        let (_, want) = exhaustive_optimal(n, b, |bk| additive(bk, &cost)).unwrap();
        assert_eq!(
            dp.to_bits(),
            want.to_bits(),
            "{name} on {vals:?}, b={b}: DP {dp} vs exhaustive {want}"
        );
    }
}

#[test]
fn sap1_dp_objective_is_the_exhaustive_optimum() {
    for vals in datasets() {
        let ps = PrefixSums::from_values(&vals);
        let oracle = WindowOracle::new(&ps).unwrap();
        let fits = oracle.fits().unwrap();
        let n = vals.len();
        check(
            "SAP1",
            &vals,
            |l, r| sap1_bucket_cost(&fits, n, l, r),
            |b| {
                build_sap1_with_budget(&ps, b, &Budget::unlimited())
                    .unwrap()
                    .1
            },
        );
    }
}

#[test]
fn a0_dp_objective_is_the_exhaustive_optimum() {
    for vals in datasets() {
        let ps = PrefixSums::from_values(&vals);
        let oracle = WindowOracle::new(&ps).unwrap();
        let n = vals.len();
        check(
            "A0",
            &vals,
            |l, r| a0_bucket_cost(&oracle, n, l, r),
            |b| {
                build_a0_with_budget(&ps, b, &Budget::unlimited())
                    .unwrap()
                    .1
            },
        );
    }
}

#[test]
fn point_opt_dp_objective_is_the_exhaustive_optimum() {
    for vals in datasets() {
        for (weighting, oracle) in [
            (
                PointWeighting::RangeInclusion,
                WeightedPointOracle::range_inclusion(&vals),
            ),
            (PointWeighting::Uniform, WeightedPointOracle::uniform(&vals)),
        ] {
            check(
                &format!("{weighting:?} point"),
                &vals,
                |l, r| oracle.cost(l, r),
                |b| {
                    build_point_opt_with_budget(&vals, b, weighting, &Budget::unlimited())
                        .unwrap()
                        .1
                },
            );
        }
    }
}
