//! Randomized tests for the streaming-maintenance substrate: after any
//! update sequence, the maintained Fenwick tree must match a from-scratch
//! rebuild. Driven by the in-repo seeded [`Rng`] so they run fully offline.

use synoptic_core::rng::Rng;
use synoptic_core::PrefixSums;
use synoptic_stream::Fenwick;

const CASES: u64 = 48;

/// A starting array plus a bounded update script.
fn rand_scenario(rng: &mut Rng) -> (Vec<i64>, Vec<(usize, i64)>) {
    let n = rng.usize_in(2, 20);
    let vals: Vec<i64> = (0..n).map(|_| rng.i64_in(0, 59)).collect();
    let m = rng.usize_in(0, 60);
    let ups: Vec<(usize, i64)> = (0..m)
        .map(|_| (rng.usize_in(0, n), rng.i64_in(-15, 29)))
        .collect();
    (vals, ups)
}

#[test]
fn fenwick_matches_reference_after_any_script() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x31_000 + case);
        let (vals, ups) = rand_scenario(&mut rng);
        let mut f = Fenwick::from_values(&vals);
        let mut reference = vals.clone();
        for &(i, d) in &ups {
            f.update(i, d);
            reference[i] += d;
        }
        assert_eq!(f.to_values().unwrap(), reference, "case {case}");
        let ps = PrefixSums::from_values(&reference);
        for i in 0..=reference.len() {
            assert_eq!(f.prefix(i), ps.p(i), "case {case}: prefix {i}");
        }
    }
}
