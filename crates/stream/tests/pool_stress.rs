//! Threaded stress over the sharded maintenance pool: concurrent writers
//! and readers hammer `MaintainedPool` columns while rebuilds and persists
//! are forced to fail, plus the update-latency regression proving the
//! ingest path is decoupled from the persist retry ladder.
//!
//! The contracts under test:
//!
//! * **No reader ever observes a missing estimator.** Every `estimate()`
//!   during the storm returns a finite answer from *some* committed
//!   synopsis (last-good serving through the hot-swap cell).
//! * **No update is ever lost.** After quiescing, the exact Fenwick totals
//!   reconcile with the per-writer delta sums, and the update meter equals
//!   the number of ingests issued.
//! * **`update()` never pays for a persist.** With every persist failing
//!   and the retry ladder sleeping tens of milliseconds per rebuild on the
//!   worker, ingest latency stays in the microsecond regime.
//! * **Provenance describes the build that answered.** While commits
//!   alternate degraded rebuilds with tier-0 upgrades, every pinned answer
//!   carries the outcome of the generation it was computed from.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use synoptic_api::Queryable;
use synoptic_catalog::{
    Catalog, ColumnEntry, DurableCatalog, Fault, FaultyStorage, FsStorage, PersistentSynopsis,
};
use synoptic_core::{
    Budget, PrefixSums, RangeEstimator, RangeQuery, Result, Sap0Histogram, SynopticError,
};
use synoptic_hist::builder::{build_with_budget, HistogramMethod};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_stream::{
    ColumnBuild, MaintainedPool, PersistFn, PoolBuildFn, RebuildConfig, RebuildPolicy,
};

type SharedStore = Arc<DurableCatalog<FaultyStorage<FsStorage>>>;

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("synoptic_pstress_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A SAP0 builder that parks the freshest concrete histogram for the
/// persist hook and fails every third rebuild (injected flakiness).
fn flaky_sap0_builder(
    latest: Arc<Mutex<Option<Sap0Histogram>>>,
    calls: Arc<AtomicU32>,
) -> PoolBuildFn {
    Box::new(move |_v, ps, budget| {
        let c = calls.fetch_add(1, Ordering::Relaxed);
        if c > 0 && c.is_multiple_of(3) {
            return Err(SynopticError::DeadlineExceeded { elapsed_ms: 1 });
        }
        let h = build_sap0_with_budget(ps, 4, budget)?.0;
        *latest.lock().unwrap() = Some(h.clone());
        Ok(Box::new(h) as Box<dyn RangeEstimator>)
    })
}

fn store_persist(latest: Arc<Mutex<Option<Sap0Histogram>>>, store: SharedStore) -> PersistFn {
    Box::new(move |_est: &dyn RangeEstimator| -> Result<()> {
        let guard = latest.lock().unwrap();
        let h = guard.as_ref().expect("persist runs after a build");
        let mut cat = Catalog::new();
        cat.insert(
            "col",
            ColumnEntry {
                n: h.n(),
                total_rows: 0,
                synopsis: PersistentSynopsis::from_sap0(h),
            },
        );
        store.save(&cat).map(|_| ())
    })
}

#[test]
fn writers_and_readers_survive_failing_rebuilds_and_persists() {
    const N_WRITERS: usize = 4;
    const M_READERS: usize = 3;
    const K_UPDATES: u64 = 400;
    const DOMAIN: usize = 64;

    let root = tmp_root("storm");
    let store: SharedStore = Arc::new(
        DurableCatalog::open(&root, FaultyStorage::new(FsStorage::new(), vec![])).unwrap(),
    );
    // A burst of device-full faults: early persists fail (and retry), the
    // storage "recovers" once the scripted queue drains.
    for _ in 0..24 {
        store.storage().push_fault(Fault::Enospc);
    }

    let values = vec![10i64; DOMAIN];
    let initial_total: i128 = values.iter().map(|&v| v as i128).sum();
    let latest = Arc::new(Mutex::new(None));
    let calls = Arc::new(AtomicU32::new(0));
    let pool = MaintainedPool::new(2);
    let col = pool
        .add_column_with_persist(
            "storm",
            &values,
            ColumnBuild::Custom(flaky_sap0_builder(Arc::clone(&latest), Arc::clone(&calls))),
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(32))
                .with_persist_retries(2, Duration::from_micros(50)),
            Some(store_persist(Arc::clone(&latest), Arc::clone(&store))),
        )
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..M_READERS {
        let col = col.clone();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            // One reader per style: cached reader handle vs. fresh loads.
            let mut cached = col.reader();
            let q = RangeQuery {
                lo: r % DOMAIN,
                hi: DOMAIN - 1,
            };
            let mut observations = 0u64;
            // `loop`/break-after-check rather than `while`: every reader
            // takes at least one observation even if the writers finish
            // before this thread is first scheduled.
            loop {
                let est = if r % 2 == 0 {
                    cached.get().estimate(q)
                } else {
                    col.estimate(q)
                };
                assert!(est.is_finite(), "reader observed a non-answer: {est}");
                observations += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            observations
        }));
    }

    let mut writers = Vec::new();
    for w in 0..N_WRITERS {
        let col = col.clone();
        writers.push(std::thread::spawn(move || {
            let delta = (w + 1) as i64;
            for t in 0..K_UPDATES {
                let i = (w * 7 + t as usize) % DOMAIN;
                // The pool is alive for the whole run, so scheduling can
                // never fail; the bool only reports whether a rebuild was
                // queued.
                let _ = col.update(i, delta).unwrap();
            }
            delta as i128 * K_UPDATES as i128
        }));
    }

    let mut written: i128 = 0;
    for h in writers {
        written += h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        let obs = h.join().unwrap();
        assert!(obs > 0, "every reader made progress");
    }

    // Drain in-flight maintenance, then reconcile.
    col.quiesce();
    let full = RangeQuery {
        lo: 0,
        hi: DOMAIN - 1,
    };
    assert_eq!(
        col.exact(full),
        initial_total + written,
        "no update may be lost under concurrency"
    );
    let stats = col.stats();
    assert_eq!(stats.updates, (N_WRITERS as u64) * K_UPDATES);
    assert!(
        stats.rebuilds >= 1,
        "the storm must have rebuilt at least once"
    );
    assert!(
        store.storage().faults_fired() > 0,
        "the scripted persist faults must actually have fired"
    );
    // Serving survived everything — and after the fault queue drained, at
    // least one persist committed a generation.
    assert!(col.estimate(full).is_finite());
    drop(col);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn update_latency_is_unaffected_by_failing_persists() {
    const DOMAIN: usize = 32;
    const UPDATES: usize = 400;

    // Every persist fails with a transient error; the retry ladder sleeps
    // 25 ms + 50 ms per rebuild *on the worker thread*.
    let persist: PersistFn = Box::new(|_e: &dyn RangeEstimator| {
        Err(SynopticError::Io {
            path: "/dev/full".into(),
            detail: "enospc (injected)".into(),
        })
    });
    let latest = Arc::new(Mutex::new(None));
    let calls = Arc::new(AtomicU32::new(0));
    let always = Box::new({
        let latest = Arc::clone(&latest);
        move |_v: &[i64], ps: &synoptic_core::PrefixSums, budget: &synoptic_core::Budget| {
            let _ = &calls;
            let h = build_sap0_with_budget(ps, 4, budget)?.0;
            *latest.lock().unwrap() = Some(h.clone());
            Ok(Box::new(h) as Box<dyn RangeEstimator>)
        }
    }) as PoolBuildFn;

    let values = vec![5i64; DOMAIN];
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_with_persist(
            "latency",
            &values,
            ColumnBuild::Custom(always),
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(16))
                .with_persist_retries(2, Duration::from_millis(25))
                .with_persist_total_backoff(Duration::from_millis(200)),
            Some(persist),
        )
        .unwrap();

    let mut latencies = Vec::with_capacity(UPDATES);
    for t in 0..UPDATES {
        let start = Instant::now();
        let _ = col.update(t % DOMAIN, 1).unwrap();
        latencies.push(start.elapsed());
        // A sliver of pacing so rebuild + failing persist demonstrably
        // overlap the ingest stream (still ≪ one 25 ms persist nap).
        if t % 50 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    col.quiesce();

    let stats = col.stats();
    assert!(
        stats.persist_failures >= 1,
        "the persist ladder must have run (and failed) during ingest"
    );
    assert!(stats.persist_retries >= 1, "with sleeps on the worker");

    latencies.sort();
    let median = latencies[latencies.len() / 2];
    let p99 = latencies[latencies.len() * 99 / 100];
    // Ingest is a Fenwick update + policy check under a short mutex. If
    // update() ever waited on the persist ladder, the affected calls would
    // take ≥ 25 ms (one nap). Sub-millisecond median and a p99 below a
    // single nap prove the decoupling.
    assert!(
        median < Duration::from_millis(1),
        "median update latency {median:?} must stay sub-millisecond while persists fail"
    );
    assert!(
        p99 < Duration::from_millis(20),
        "p99 update latency {p99:?} must stay below one persist nap (25 ms)"
    );
    pool.shutdown();
}

/// A cell cap below one SAP0 build makes every rebuild commit a degraded
/// rung (even generations), and the ×4 upgrade restores tier 0 (odd
/// generations). Two readers pin concurrently — one through
/// `pinned_with_provenance`, one through the `Queryable` envelope — and
/// every answer's outcome must match its generation's parity.
#[test]
fn pinned_provenance_matches_its_generation_under_racing_upgrades() {
    const CYCLES: u64 = 300;
    let values: Vec<i64> = (0..64).map(|i| (i * 29) % 53 - 20).collect();
    let cells = {
        let metered = Budget::unlimited();
        let ps = PrefixSums::from_values(&values);
        build_with_budget(HistogramMethod::Sap0, &values, &ps, 24, &metered).unwrap();
        metered.cells_used()
    };
    let pool = MaintainedPool::new(1);
    let config = RebuildConfig::new(RebuildPolicy::Manual)
        .with_max_cells(cells / 2)
        .with_background_upgrade(4);
    let build = ColumnBuild::Anytime {
        method: HistogramMethod::Sap0,
        budget_words: 24,
    };
    let col = pool.add_column("c", &values, build, config).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let q = RangeQuery::new(0, 63).unwrap();
    let readers: Vec<_> = [false, true]
        .into_iter()
        .map(|via_envelope| {
            let (col, stop) = (col.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut reader = col.reader();
                let mut answers = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (generation, outcome) = if via_envelope {
                        let env = col.query("c", q).unwrap();
                        (env.generation, env.outcome)
                    } else {
                        let (generation, snapshot, outcome, segments) =
                            col.pinned_with_provenance(&mut reader);
                        assert!(snapshot.estimate(q).is_finite());
                        assert!(segments.is_none());
                        (generation, outcome)
                    };
                    let outcome = outcome.expect("anytime columns carry provenance");
                    assert_eq!(
                        outcome.is_degraded(),
                        generation % 2 == 0,
                        "generation {generation} paired with a tier-{} outcome",
                        outcome.tier
                    );
                    answers += 1;
                }
                answers
            })
        })
        .collect();
    col.quiesce();
    for _ in 0..CYCLES {
        assert!(col.request_rebuild().unwrap());
        col.quiesce();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().unwrap() > 0, "every reader answered");
    }
    let stats = col.stats();
    assert_eq!((stats.rebuilds, stats.upgrades), (CYCLES, CYCLES + 1));
    assert_eq!(stats.failed_upgrades, 0);
    assert_eq!(col.serving_generation(), 2 * CYCLES + 1);
}
