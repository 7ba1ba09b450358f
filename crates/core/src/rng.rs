//! A small, dependency-free deterministic PRNG (SplitMix64 seeding a
//! xoshiro256**-style generator).
//!
//! The workspace must build and test fully offline, so `rand` is not
//! available; every stochastic component (dataset generation, query
//! workloads, randomized tests, fault-injection schedules) draws from this
//! generator instead. It is **not** cryptographic — it only needs to be
//! fast, well-mixed, and exactly reproducible per seed across platforms.

/// A deterministic 64-bit PRNG.
///
/// Seeded via SplitMix64 (so nearby seeds give unrelated streams), stepped
/// via xoshiro256**. Identical seeds produce identical streams on every
/// platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin flip.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform `u64` in `[0, bound)` via Lemire-style rejection; `bound`
    /// must be positive.
    #[inline]
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling on the top bits: unbiased and fast enough here.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// A uniform `usize` in the half-open range `[lo, hi)`; `lo < hi`.
    #[inline]
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.bounded_u64((hi - lo) as u64) as usize
    }

    /// A uniform `i64` in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let draw = if span > u64::MAX as u128 {
            // Span exceeding u64: combine two draws (not hit in practice).
            ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % span
        } else {
            self.bounded_u64(span as u64) as u128
        };
        (lo as i128 + draw as i128) as i64
    }

    /// A uniform `f64` in `[lo, hi)`; `lo < hi`.
    #[inline]
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.f64() * (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded_u64((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        let first: Vec<u64> = (0..8).map(|_| Rng::new(42).next_u64()).collect();
        let other: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(first[0], other[0]);
    }

    #[test]
    fn f64_is_in_unit_interval_and_covers_it() {
        let mut r = Rng::new(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn bounded_draws_respect_bounds_and_hit_everything() {
        let mut r = Rng::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.usize_in(0, 10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        for _ in 0..1000 {
            let v = r.i64_in(-5, 5);
            assert!((-5..=5).contains(&v));
            let f = r.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
        // Degenerate singleton ranges.
        assert_eq!(r.i64_in(4, 4), 4);
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = Rng::new(99);
        let heads = (0..10_000).filter(|_| r.bool()).count();
        assert!((4_500..=5_500).contains(&heads), "heads {heads}");
    }

    #[test]
    fn mean_of_f64_is_half() {
        let mut r = Rng::new(3);
        let k = 50_000;
        let mean = (0..k).map(|_| r.f64()).sum::<f64>() / k as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    #[should_panic]
    fn empty_usize_range_panics() {
        Rng::new(0).usize_in(3, 3);
    }
}
