//! A lock-light hot-swap cell for last-good values.
//!
//! The serving invariant of the maintained-synopsis layer ("the estimator
//! never disappears") needs a place where a background rebuild worker can
//! *publish* a fresh synopsis while serving threads keep answering from the
//! previous one. [`HotSwap`] is that place: an [`Arc`] slot whose readers
//! take a snapshot (`load`) and whose single writer replaces it atomically
//! from the reader's point of view (`swap`).
//!
//! ## Why not a lock around the estimator itself?
//!
//! A rebuild takes milliseconds-to-seconds; an answer takes nanoseconds.
//! Holding any lock across the rebuild would stall every reader for the
//! build duration. Here the only critical section is a reference-count
//! increment (`Arc::clone`) or a pointer replacement (`mem::replace`) —
//! **no lock is ever held across a build, an I/O call, or a sleep**. The
//! monotone [`HotSwap::generation`] counter additionally lets hot readers
//! cache their snapshot ([`HotSwapReader`]) and touch the slot mutex only
//! when a swap has actually happened, making the steady-state read path a
//! single relaxed atomic load with zero shared-lock traffic.
//!
//! This cell is deliberately minimal safe code (`forbid(unsafe_code)`
//! holds for the whole crate): the classic epoch/hazard-pointer designs
//! buy readers a lock-free slow path too, but at the cost of unsafe
//! reclamation logic that this workspace does not need — the slot mutex is
//! touched once per *swap*, not per answer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A shared slot holding an `Arc<T>` that readers snapshot and a writer
/// hot-swaps. See the [module docs](self) for the locking discipline.
#[derive(Debug)]
pub struct HotSwap<T: ?Sized> {
    slot: Mutex<Arc<T>>,
    /// Bumped on every [`HotSwap::swap`]; lets readers skip the slot mutex
    /// entirely while nothing has changed.
    generation: AtomicU64,
}

impl<T: ?Sized> HotSwap<T> {
    /// A cell initially holding `value` at generation 0.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            slot: Mutex::new(value),
            generation: AtomicU64::new(0),
        }
    }

    /// Snapshots the current value. The critical section is one
    /// `Arc::clone`; the returned snapshot stays valid (and keeps
    /// answering) even if a swap happens immediately after.
    pub fn load(&self) -> Arc<T> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Snapshots the current value together with the generation it was
    /// published at. Both are read under the slot mutex, which
    /// [`HotSwap::swap`] holds while it replaces the value *and* bumps the
    /// counter, so the pair always names one publication.
    pub fn load_pinned(&self) -> (u64, Arc<T>) {
        let guard = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        (self.generation.load(Ordering::Acquire), Arc::clone(&guard))
    }

    /// Publishes `value`, returning the previous one. Readers that already
    /// hold a snapshot are unaffected; new `load`s see the new value.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        let mut guard = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *guard, value);
        // Bump while the slot mutex is still held: `load_pinned` reads the
        // counter under the same mutex, so it never pairs a value with
        // another publication's generation. Lock-free readers only use the
        // counter as a hint to refresh.
        self.generation.fetch_add(1, Ordering::Release);
        old
    }

    /// How many swaps have been published. Monotone; readers use it to
    /// detect staleness without touching the slot.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A caching reader handle for hot read paths (see [`HotSwapReader`]).
    pub fn reader(self: &Arc<Self>) -> HotSwapReader<T> {
        let (seen, cached) = self.load_pinned();
        HotSwapReader {
            cell: Arc::clone(self),
            seen,
            cached,
        }
    }
}

/// A per-thread caching reader over a [`HotSwap`].
///
/// `get` is one relaxed-ish atomic load in the steady state: the slot mutex
/// is taken only on the first read after a swap. Each reader thread owns
/// its `HotSwapReader`; the cell itself is shared.
#[derive(Debug)]
pub struct HotSwapReader<T: ?Sized> {
    cell: Arc<HotSwap<T>>,
    seen: u64,
    cached: Arc<T>,
}

impl<T: ?Sized> HotSwapReader<T> {
    /// The current value, refreshing the cached snapshot only when a swap
    /// has been published since the last call.
    pub fn get(&mut self) -> &Arc<T> {
        self.pinned().1
    }

    /// Refreshes like [`get`](Self::get) and returns the snapshot
    /// *together with the generation it was published at* — the pinning
    /// primitive for batched answering. A caller that answers a whole
    /// batch from one `pinned()` snapshot can stamp every answer with the
    /// returned generation: all of them provably came from the same
    /// published value, no matter how many swaps raced the batch.
    ///
    /// The steady state is one atomic load; after a swap the pair is
    /// refreshed through [`HotSwap::load_pinned`], so a swap landing
    /// between the check and the refresh cannot stamp the new value with
    /// the old generation.
    pub fn pinned(&mut self) -> (u64, &Arc<T>) {
        if self.cell.generation() != self.seen {
            (self.seen, self.cached) = self.cell.load_pinned();
        }
        (self.seen, &self.cached)
    }

    /// The generation of the snapshot [`get`](Self::get) currently
    /// serves (without refreshing).
    pub fn generation(&self) -> u64 {
        self.seen
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HotSwap<dyn crate::RangeEstimator>>();
    assert_send_sync::<HotSwapReader<dyn crate::RangeEstimator>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_swap_round_trip() {
        let cell = HotSwap::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        assert_eq!(cell.generation(), 0);
        let old = cell.swap(Arc::new(2));
        assert_eq!(*old, 1);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn snapshots_survive_swaps() {
        let cell = HotSwap::new(Arc::new(vec![1, 2, 3]));
        let snap = cell.load();
        cell.swap(Arc::new(vec![9]));
        assert_eq!(*snap, vec![1, 2, 3], "old snapshot keeps serving");
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn reader_caches_until_generation_moves() {
        let cell = Arc::new(HotSwap::new(Arc::new(10u64)));
        let mut r = cell.reader();
        assert_eq!(**r.get(), 10);
        cell.swap(Arc::new(20));
        assert_eq!(**r.get(), 20);
        // Stable when nothing changes.
        assert_eq!(**r.get(), 20);
    }

    #[test]
    fn pinned_reports_the_snapshot_generation() {
        let cell = Arc::new(HotSwap::new(Arc::new(10u64)));
        let mut r = cell.reader();
        let (generation, v) = r.pinned();
        assert_eq!((generation, **v), (0, 10));
        assert_eq!(r.generation(), 0);
        cell.swap(Arc::new(20));
        cell.swap(Arc::new(30));
        let (generation, v) = r.pinned();
        assert_eq!((generation, **v), (2, 30));
        assert_eq!(r.generation(), 2);
        // Stable while nothing swaps: the pin is the same snapshot.
        assert_eq!(r.pinned().0, 2);
    }

    /// Every pin names one publication: a writer publishes values equal to
    /// their generation while readers check `generation == value` on every
    /// pin, fresh readers included.
    #[test]
    fn a_pin_never_pairs_a_value_with_another_generation() {
        const READERS: usize = 2;
        let cell = Arc::new(HotSwap::new(Arc::new(0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(READERS + 1));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (cell, stop, start) =
                    (Arc::clone(&cell), Arc::clone(&stop), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut pins = 0u64;
                    // Check-then-break: every reader pins at least once.
                    loop {
                        // A fresh reader's first pin is the pair `reader()`
                        // loaded, unless a swap has landed since.
                        let mut r = cell.reader();
                        for _ in 0..64 {
                            let (generation, v) = r.pinned();
                            assert_eq!(generation, **v, "pin paired across a swap");
                            pins += 1;
                        }
                        let (generation, v) = cell.load_pinned();
                        assert_eq!(generation, *v);
                        if stop.load(Ordering::Relaxed) {
                            return pins;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for v in 1..=20_000u64 {
            cell.swap(Arc::new(v));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(cell.load_pinned(), (20_000, Arc::new(20_000)));
    }

    #[test]
    fn concurrent_readers_never_observe_an_absent_value() {
        let cell = Arc::new(HotSwap::new(Arc::new(0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut r = cell.reader();
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = **r.get();
                    assert!(v >= last, "published values are monotone");
                    last = v;
                }
            }));
        }
        for v in 1..=1000u64 {
            cell.swap(Arc::new(v));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.generation(), 1000);
    }
}
