//! Randomized tests for the wavelet substrate and synopses, driven by the
//! in-repo seeded [`Rng`] so they run fully offline.

use synoptic_core::rng::Rng;
use synoptic_core::sse::sse_brute;
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery};
use synoptic_wavelet::haar::{forward, inverse, next_pow2, BasisFn};
use synoptic_wavelet::{PointWaveletSynopsis, PrefixWaveletSynopsis, RangeOptimalWavelet};

const CASES: u64 = 48;

/// A random power-of-two-length signal (length in {2, 4, 8, 16, 32}).
fn rand_signal(rng: &mut Rng) -> Vec<f64> {
    let log = rng.usize_in(1, 6);
    (0..1usize << log)
        .map(|_| rng.f64_in(-100.0, 100.0))
        .collect()
}

/// A random integer array of arbitrary (not power-of-two) length.
fn rand_values(rng: &mut Rng) -> Vec<i64> {
    let n = rng.usize_in(2, 28);
    (0..n).map(|_| rng.i64_in(0, 199)).collect()
}

#[test]
fn forward_inverse_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x21_000 + case);
        let signal = rand_signal(&mut rng);
        let mut data = signal.clone();
        forward(&mut data);
        inverse(&mut data);
        for (a, b) in signal.iter().zip(&data) {
            assert!((a - b).abs() < 1e-8, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn parseval_holds() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x22_000 + case);
        let signal = rand_signal(&mut rng);
        let mut data = signal.clone();
        forward(&mut data);
        let e1: f64 = signal.iter().map(|x| x * x).sum();
        let e2: f64 = data.iter().map(|x| x * x).sum();
        assert!((e1 - e2).abs() <= 1e-8 * (1.0 + e1), "case {case}");
    }
}

#[test]
fn basis_range_sums_match_pointwise() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x23_000 + case);
        let signal = rand_signal(&mut rng);
        let n = signal.len();
        for c in 0..n {
            let basis = BasisFn::for_index(c, n);
            // Check a few ranges, including full domain.
            for (a, b) in [(0, n - 1), (0, 0), (n / 2, n - 1)] {
                let brute: f64 = (a..=b).map(|x| basis.eval(x)).sum();
                assert!(
                    (basis.range_sum(a, b) - brute).abs() < 1e-10,
                    "case {case}: coeff {c} range ({a},{b})"
                );
            }
        }
    }
}

#[test]
fn full_budget_point_synopsis_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x24_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let b = next_pow2(vals.len());
        let w = PointWaveletSynopsis::build_with_budget(&vals, b, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &ps) < 1e-5, "case {case}");
    }
}

#[test]
fn full_budget_prefix_synopsis_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x25_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let b = next_pow2(vals.len() + 1);
        let w = PrefixWaveletSynopsis::build_with_budget(&ps, b, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &ps) < 1e-5, "case {case}");
    }
}

#[test]
fn full_budget_range_optimal_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x26_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let nn = next_pow2(vals.len() + 1);
        let w =
            RangeOptimalWavelet::build_with_budget(&ps, 2 * nn - 1, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &ps) < 1e-5, "case {case}");
    }
}

#[test]
fn range_optimal_virtual_error_is_monotone_in_budget() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x27_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let mut prev = f64::INFINITY;
        for b in [1usize, 2, 4, 8, 16] {
            let w = RangeOptimalWavelet::build_with_budget(&ps, b, &Budget::unlimited()).unwrap();
            assert!(
                w.virtual_matrix_error() <= prev + 1e-6,
                "case {case}: budget {b}"
            );
            prev = w.virtual_matrix_error();
        }
    }
}

#[test]
fn estimates_are_finite_for_every_budget_and_query() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x28_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let n = vals.len();
        for b in [1usize, 3, 7] {
            let unlimited = Budget::unlimited();
            let estimators: Vec<Box<dyn RangeEstimator>> = vec![
                Box::new(PointWaveletSynopsis::build_with_budget(&vals, b, &unlimited).unwrap()),
                Box::new(PrefixWaveletSynopsis::build_with_budget(&ps, b, &unlimited).unwrap()),
                Box::new(RangeOptimalWavelet::build_with_budget(&ps, b, &unlimited).unwrap()),
            ];
            for est in &estimators {
                for q in RangeQuery::all(n) {
                    assert!(est.estimate(q).is_finite(), "case {case}: {q:?}");
                }
            }
        }
    }
}

#[test]
fn storage_never_exceeds_two_words_per_coefficient() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x29_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        for b in [1usize, 4, 9] {
            let unlimited = Budget::unlimited();
            let synopses: [Box<dyn RangeEstimator>; 3] = [
                Box::new(PointWaveletSynopsis::build_with_budget(&vals, b, &unlimited).unwrap()),
                Box::new(PrefixWaveletSynopsis::build_with_budget(&ps, b, &unlimited).unwrap()),
                Box::new(RangeOptimalWavelet::build_with_budget(&ps, b, &unlimited).unwrap()),
            ];
            for w in &synopses {
                assert!(w.storage_words() <= 2 * b, "case {case}");
            }
        }
    }
}

#[test]
fn range_optimal_endpoint_errors_match_estimates() {
    use synoptic_core::sse::sse_two_function;
    for case in 0..CASES {
        let mut rng = Rng::new(0x2A_000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let w = RangeOptimalWavelet::build_with_budget(&ps, 5, &Budget::unlimited()).unwrap();
        let (e, d) = w.endpoint_errors(&ps);
        let fast = sse_two_function(&e, &d);
        let brute = sse_brute(&w, &ps);
        assert!(
            (fast - brute).abs() <= 1e-6 * (1.0 + brute),
            "case {case}: fast {fast} vs brute {brute}"
        );
    }
}
