//! Seeded input generation. Every workload input is a function of the
//! `--seed` argument alone; the program under test only ever sees the
//! generated values, ranges and deltas.

use std::ops::Range;

use synoptic_core::{RangeQuery, Rng};

/// Domain size of the served column.
pub const N: usize = 4096;

/// The served column: a fixed twelve-mode shape (so accuracy figures
/// compare across seeds) plus per-key noise drawn from the seed.
pub fn column_values(seed: u64) -> Vec<i64> {
    let shape = synoptic_data::normal_mixture(N, 12, 1000.0, 2001);
    let mut rng = Rng::new(seed ^ 0x00C0_FFEE);
    shape
        .values()
        .iter()
        .map(|v| v + rng.i64_in(0, 100))
        .collect()
}

/// A uniformly random range: both endpoints uniform, then ordered, so
/// every one of the n(n+1)/2 ranges can occur.
pub fn random_range(rng: &mut Rng) -> RangeQuery {
    let a = rng.usize_in(0, N);
    let b = rng.usize_in(0, N);
    RangeQuery {
        lo: a.min(b),
        hi: a.max(b),
    }
}

/// `count` distinct-ish random ranges (the hot set of `serve_hot`).
pub fn hot_set(seed: u64, count: usize) -> Vec<RangeQuery> {
    let mut rng = Rng::new(seed ^ 0x0007_4075);
    (0..count).map(|_| random_range(&mut rng)).collect()
}

/// A delta in ±[1, 8].
fn delta(rng: &mut Rng) -> i64 {
    let magnitude = rng.i64_in(1, 8);
    if rng.bool() {
        magnitude
    } else {
        -magnitude
    }
}

/// A point update: `recent_share` of the positions fall uniformly in the
/// `recent` keys, the rest uniformly in the `older` ones (if any).
pub fn update(
    rng: &mut Rng,
    recent: &Range<usize>,
    recent_share: f64,
    older: &Range<usize>,
) -> (u64, i64) {
    let keys = if older.is_empty() || rng.f64() < recent_share {
        recent
    } else {
        older
    };
    (rng.usize_in(keys.start, keys.end) as u64, delta(rng))
}
