//! Randomized property tests for the core data structures and evaluators,
//! driven by the in-repo seeded [`Rng`] so they run fully offline and are
//! reproducible from the printed seed.

use synoptic_core::rng::Rng;
use synoptic_core::sse::{
    sse_brute, sse_endpoint_decomposed, sse_two_function, sse_value_histogram,
};
use synoptic_core::window::{WeightedPointOracle, WindowOracle};
use synoptic_core::{
    Bucketing, DataArray, OptAHistogram, PrefixSums, RangeEstimator, RangeQuery, RoundingMode,
    Sap0Histogram, Sap1Histogram, ValueHistogram,
};

const CASES: u64 = 64;

/// A random non-empty data array of bounded length and magnitude.
fn rand_values(rng: &mut Rng) -> Vec<i64> {
    let n = rng.usize_in(1, 24);
    (0..n).map(|_| rng.i64_in(-50, 199)).collect()
}

/// A random valid bucketing of a domain of size `n`.
fn rand_bucketing(rng: &mut Rng, n: usize) -> Bucketing {
    let mut starts = vec![0usize];
    for i in 1..n {
        if rng.bool() {
            starts.push(i);
        }
    }
    Bucketing::new(n, starts).expect("constructed starts are valid")
}

#[test]
fn prefix_sums_match_naive_summation() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x1000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        for a in 0..vals.len() {
            for b in a..vals.len() {
                let naive: i128 = vals[a..=b].iter().map(|&v| v as i128).sum();
                assert_eq!(ps.range_sum(a, b), naive, "case {case}");
            }
        }
    }
}

#[test]
fn value_histogram_closed_form_equals_brute() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x2000 + case);
        let vals = rand_values(&mut rng);
        let n = vals.len();
        let ps = PrefixSums::from_values(&vals);
        let b = rand_bucketing(&mut rng, n);
        let h = ValueHistogram::with_averages(b, &ps, "p").unwrap();
        let brute = sse_brute(&h, &ps);
        let fast = sse_value_histogram(h.xprefix(), &ps);
        assert!(
            (brute - fast).abs() <= 1e-6 * (1.0 + brute),
            "case {case}: brute {brute} vs fast {fast}"
        );
    }
}

#[test]
fn window_oracle_intra_matches_brute() {
    for case in 0..CASES / 4 {
        let mut rng = Rng::new(0x3000 + case);
        let vals = rand_values(&mut rng);
        let ps = PrefixSums::from_values(&vals);
        let o = WindowOracle::new(&ps).unwrap();
        let n = vals.len();
        for l in 0..n {
            for r in l..n {
                let m = ps.range_sum(l, r) as f64 / (r - l + 1) as f64;
                let mut brute = 0.0;
                for a in l..=r {
                    for b in a..=r {
                        let d = ps.range_sum(a, b) as f64 - (b - a + 1) as f64 * m;
                        brute += d * d;
                    }
                }
                let fast = o.intra_avg_sse(l, r);
                assert!(
                    (fast - brute).abs() <= 1e-6 * (1.0 + brute),
                    "case {case}: window ({l},{r})"
                );
            }
        }
    }
}

#[test]
fn suffix_errors_sum_to_zero_under_optimal_sap0() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4000 + case);
        let vals = rand_values(&mut rng);
        if vals.len() < 2 {
            continue;
        }
        let n = vals.len();
        let ps = PrefixSums::from_values(&vals);
        let b = Bucketing::new(n, vec![0, n / 2]).unwrap();
        let h = Sap0Histogram::optimal_values(b.clone(), &ps).unwrap();
        for bi in 0..b.num_buckets() {
            let (l, r) = (b.left(bi), b.right(bi));
            let su: f64 = (l..=r)
                .map(|a| ps.range_sum(a, r) as f64 - h.suff()[bi])
                .sum();
            assert!(su.abs() < 1e-6, "case {case}: bucket {bi} suffix sum {su}");
        }
    }
}

#[test]
fn sap1_never_worse_than_sap0_at_fixed_boundaries() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5000 + case);
        let vals = rand_values(&mut rng);
        if vals.len() < 3 {
            continue;
        }
        let n = vals.len();
        let ps = PrefixSums::from_values(&vals);
        let b = Bucketing::new(n, vec![0, n / 3 + 1]).unwrap();
        let s0 = sse_brute(&Sap0Histogram::optimal_values(b.clone(), &ps).unwrap(), &ps);
        let s1 = sse_brute(&Sap1Histogram::optimal_values(b, &ps).unwrap(), &ps);
        // SAP1's linear fit subsumes SAP0's constant fit per bucket, and the
        // cross terms vanish for both, so SAP1 ≤ SAP0 at fixed boundaries.
        assert!(
            s1 <= s0 + 1e-6 * (1.0 + s0),
            "case {case}: SAP1 {s1} vs SAP0 {s0}"
        );
    }
}

#[test]
fn rounded_opta_estimates_are_integral_and_close() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x6000 + case);
        let n = rng.usize_in(2, 20);
        let vals: Vec<i64> = (0..n).map(|_| rng.i64_in(0, 199)).collect();
        let ps = PrefixSums::from_values(&vals);
        let b = Bucketing::new(n, vec![0, n / 2]).unwrap();
        let hr = OptAHistogram::new(b.clone(), &ps, RoundingMode::NearestInt).unwrap();
        let hu = OptAHistogram::new(b, &ps, RoundingMode::None).unwrap();
        for q in RangeQuery::all(n) {
            let e = hr.estimate(q);
            assert_eq!(e, e.round(), "case {case}: non-integral estimate at {q:?}");
            assert!((e - hu.estimate(q)).abs() <= 1.0 + 1e-9, "case {case}");
        }
    }
}

#[test]
fn endpoint_decomposed_evaluator_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x7000 + case);
        let vals = rand_values(&mut rng);
        if vals.len() < 4 {
            continue;
        }
        let n = vals.len();
        let ps = PrefixSums::from_values(&vals);
        let bks = Bucketing::new(n, vec![0, n / 4 + 1, n / 2 + 1]).unwrap();
        let oracle = WindowOracle::new(&ps).unwrap();
        let h = OptAHistogram::new(bks.clone(), &ps, RoundingMode::None).unwrap();
        let mut u = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut intra = 0.0;
        for bi in 0..bks.num_buckets() {
            let (l, r) = (bks.left(bi), bks.right(bi));
            let m = oracle.avg(l, r);
            for a in l..=r {
                u[a] = ps.range_sum(a, r) as f64 - (r - a + 1) as f64 * m;
                v[a] = ps.range_sum(l, a) as f64 - (a - l + 1) as f64 * m;
            }
            intra += oracle.intra_avg_sse(l, r);
        }
        let fast = sse_endpoint_decomposed(&u, &v, &bks, intra);
        let brute = sse_brute(&h, &ps);
        assert!(
            (fast - brute).abs() <= 1e-6 * (1.0 + brute),
            "case {case}: fast {fast} vs brute {brute}"
        );
    }
}

#[test]
fn two_function_evaluator_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x8000 + case);
        let n = rng.usize_in(1, 16);
        let e: Vec<f64> = (0..n).map(|_| rng.f64_in(-100.0, 100.0)).collect();
        let d: Vec<f64> = (0..n).map(|_| rng.f64_in(-4.0, 4.0)).collect();
        let mut direct = 0.0;
        for (b, &eb) in e.iter().enumerate() {
            for &da in &d[..=b] {
                let x: f64 = eb - da;
                direct += x * x;
            }
        }
        let fast = sse_two_function(&e, &d);
        assert!(
            (fast - direct).abs() <= 1e-6 * (1.0 + direct),
            "case {case}: fast {fast} vs direct {direct}"
        );
    }
}

#[test]
fn weighted_oracle_cost_is_nonnegative_and_additive_at_split() {
    for case in 0..CASES / 2 {
        let mut rng = Rng::new(0x9000 + case);
        let vals = rand_values(&mut rng);
        let o = WeightedPointOracle::range_inclusion(&vals);
        let n = vals.len();
        for l in 0..n {
            for r in l..n {
                assert!(o.cost(l, r) >= 0.0, "case {case}");
                // Splitting a window cannot increase total cost.
                if r > l {
                    let mid = (l + r) / 2;
                    assert!(
                        o.cost(l, mid) + o.cost(mid + 1, r) <= o.cost(l, r) + 1e-6,
                        "case {case}: split ({l},{r}) at {mid}"
                    );
                }
            }
        }
    }
}

#[test]
fn any_bucketing_gives_finite_nonneg_sse() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xA000 + case);
        let vals = rand_values(&mut rng);
        let b = rand_bucketing(&mut rng, vals.len());
        let ps = PrefixSums::from_values(&vals);
        let h = ValueHistogram::with_averages(b, &ps, "x").unwrap();
        let sse = sse_value_histogram(h.xprefix(), &ps);
        assert!(sse.is_finite() && sse >= 0.0, "case {case}: sse {sse}");
    }
}

#[test]
fn data_array_total_matches_prefix_total() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xB000 + case);
        let vals = rand_values(&mut rng);
        let d = DataArray::new(vals).unwrap();
        assert_eq!(d.total(), d.prefix_sums().total(), "case {case}");
    }
}
