//! The hot-range answer cache: `(column, generation, range) → value`.
//!
//! One cache per served column, shared by every connection. The key
//! *includes the serving generation*: the cache holds answers for exactly
//! one generation at a time, and the first touch at a **newer**
//! generation after a hot swap observes the mismatch, drops every entry,
//! and re-keys forward. A stale-generation hit is therefore impossible
//! by construction — there is never an entry whose generation differs
//! from the cache's current one, and the current one is compared against
//! the *pinned* generation of the batch being answered on every call.
//!
//! Re-keying is **forward only**. A batch still pinned at an *older*
//! generation (its connection pinned before a swap landed) simply misses
//! on lookup and is ignored on store: letting it re-key the cache
//! backwards would clear every newer-generation entry and ping-pong the
//! cache between generations whenever old-pin traffic overlaps post-swap
//! traffic, without making any answer more correct.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CacheState {
    /// The serving generation every stored answer was computed at.
    generation: u64,
    entries: HashMap<(usize, usize), f64>,
}

/// A bounded, generation-keyed answer cache (see the module docs).
pub struct AnswerCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` answers (0 disables it:
    /// every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                generation: 0,
                entries: HashMap::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-keys the cache *forward* to `generation` when it is newer than
    /// the current one, dropping every entry computed before it. Older
    /// generations never re-key (see the module docs).
    fn sync_forward(st: &mut CacheState, generation: u64, invalidations: &AtomicU64) {
        if generation > st.generation {
            if !st.entries.is_empty() {
                invalidations.fetch_add(1, Ordering::Relaxed);
            }
            st.entries.clear();
            st.generation = generation;
        }
    }

    /// The cached answer for `(lo, hi)` computed at exactly `generation`,
    /// if present. A newer generation invalidates the whole cache before
    /// the lookup; an older one misses without disturbing the current
    /// entries. Either way a hit is always same-generation.
    pub fn lookup(&self, generation: u64, lo: usize, hi: usize) -> Option<f64> {
        let mut st = self.lock();
        Self::sync_forward(&mut st, generation, &self.invalidations);
        let found = if st.generation == generation {
            st.entries.get(&(lo, hi)).copied()
        } else {
            None
        };
        drop(st);
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an answer computed at `generation`. A newer generation
    /// re-keys the cache forward first. Ignored when the cache is full
    /// (simple admission: hot ranges that repeat will have been stored
    /// while there was room) or when `generation` is older than the
    /// cache's current one (a batch pinned before a swap must not clear
    /// the post-swap entries).
    pub fn store(&self, generation: u64, lo: usize, hi: usize, value: f64) {
        if self.capacity == 0 {
            return;
        }
        let mut st = self.lock();
        Self::sync_forward(&mut st, generation, &self.invalidations);
        if st.generation == generation && st.entries.len() < self.capacity {
            st.entries.insert((lo, hi), value);
        }
    }

    /// Cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Whole-cache invalidations (forward generation moves observed with
    /// entries present) since creation.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_require_the_exact_generation() {
        let cache = AnswerCache::new(16);
        assert_eq!(cache.lookup(1, 0, 5), None);
        cache.store(1, 0, 5, 42.0);
        assert_eq!(cache.lookup(1, 0, 5), Some(42.0));
        // A generation bump drops the entry: no stale hit, one
        // invalidation counted.
        assert_eq!(cache.lookup(2, 0, 5), None);
        assert_eq!(cache.invalidations(), 1);
        // And the old generation cannot resurrect it either — the cache
        // re-keyed forward to 2, so a lookup at 1 misses (without
        // disturbing the generation-2 entries).
        cache.store(2, 0, 5, 43.0);
        assert_eq!(cache.lookup(1, 0, 5), None);
        assert_eq!(cache.lookup(2, 0, 5), Some(43.0));
    }

    /// A batch still pinned at an older generation must neither clear the
    /// newer entries (store) nor re-key the cache backwards (lookup):
    /// old-pin traffic overlapping post-swap traffic just misses, with no
    /// ping-pong invalidation.
    #[test]
    fn old_generation_traffic_cannot_rekey_the_cache_backwards() {
        let cache = AnswerCache::new(16);
        cache.store(5, 0, 1, 1.0);
        cache.store(3, 0, 2, 9.0); // old pin: ignored
        assert_eq!(cache.lookup(3, 0, 2), None); // old pin: plain miss
        assert_eq!(
            cache.lookup(5, 0, 1),
            Some(1.0),
            "newer entries survive old-pin traffic"
        );
        assert_eq!(
            cache.invalidations(),
            0,
            "old-pin traffic must not count as invalidation churn"
        );
    }

    #[test]
    fn capacity_bounds_the_entry_count() {
        let cache = AnswerCache::new(2);
        cache.store(1, 0, 0, 1.0);
        cache.store(1, 1, 1, 2.0);
        cache.store(1, 2, 2, 3.0); // over capacity: dropped
        assert_eq!(cache.lookup(1, 0, 0), Some(1.0));
        assert_eq!(cache.lookup(1, 1, 1), Some(2.0));
        assert_eq!(cache.lookup(1, 2, 2), None);
    }

    /// The module's invariant under contention: writers advance the
    /// serving generation while readers look up and store both at the
    /// generation they load and at the one before it, as a batch pinned
    /// before a swap would. Every stored value encodes `(generation, lo,
    /// hi)`, so a hit computed at any other generation, or for any other
    /// range, decodes to the wrong triple. Run in release by `ci.sh`.
    #[test]
    fn a_hit_is_always_same_generation_under_concurrent_swaps() {
        use std::sync::{Arc, Barrier};
        const WRITERS: usize = 2;
        const READERS: usize = 2;
        const ROUNDS: usize = 2_000;
        const SPAN: usize = 8;
        // Exact in f64 while generation < 2^40.
        fn encode(generation: u64, lo: usize, hi: usize) -> f64 {
            ((generation * 64 + lo as u64) * 64 + hi as u64) as f64
        }
        let cache = Arc::new(AnswerCache::new(4 * SPAN * SPAN));
        let current = Arc::new(AtomicU64::new(1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = Arc::new(Barrier::new(WRITERS + READERS));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (cache, current, start) =
                    (Arc::clone(&cache), Arc::clone(&current), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut hits = 0u64;
                    for _ in 0..ROUNDS {
                        let now = current.load(Ordering::Acquire);
                        for lo in 0..SPAN {
                            for hi in lo..SPAN {
                                for pinned in [now, now - 1] {
                                    if let Some(v) = cache.lookup(pinned, lo, hi) {
                                        let want = encode(pinned, lo, hi);
                                        assert_eq!(
                                            v,
                                            want,
                                            "hit at generation {pinned} for [{lo}, {hi}] \
                                             holds the answer stored at {:?}",
                                            (v as u64 >> 12, (v as u64 >> 6) & 63, v as u64 & 63)
                                        );
                                        hits += 1;
                                    }
                                    cache.store(pinned, lo, hi, encode(pinned, lo, hi));
                                }
                            }
                        }
                    }
                    hits
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let (current, stop, start) =
                    (Arc::clone(&current), Arc::clone(&stop), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        current.fetch_add(1, Ordering::Release);
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert!(hits > 0, "the readers must exercise the hit path");
        assert!(
            cache.invalidations() > 0,
            "the writers must re-key the cache"
        );
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = AnswerCache::new(0);
        cache.store(1, 0, 0, 1.0);
        assert_eq!(cache.lookup(1, 0, 0), None);
    }
}
