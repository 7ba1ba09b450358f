//! Fault-injected persistence under live maintenance: the storage fault
//! harness (`synoptic_catalog::FaultyStorage`) wired into the rebuild loop
//! of a one-worker `synoptic_stream::MaintainedPool` column. Each test
//! waits for every scheduled rebuild (and its persist) before the next
//! update, so each fault lands in a known rebuild.
//!
//! The contract under test: an injected ENOSPC or torn write during the
//! post-rebuild persist hook must (a) leave the freshly built **in-memory**
//! synopsis serving, and (b) leave the on-disk `CURRENT` pointer at the
//! previous committed generation — durability lags, serving does not, and
//! the store never advances to a generation that cannot be loaded.
//!
//! The worker itself must survive every input: a panicking persist hook
//! and a deadline too far out to represent are contained, and the next
//! job still runs. Those tests wait for `quiesce` on a helper thread with
//! a timeout, so a wedged worker fails the test instead of hanging it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use synoptic_catalog::{
    Catalog, ColumnEntry, DurableCatalog, Fault, FaultyStorage, FsStorage, PersistentSynopsis,
};
use synoptic_core::{
    Budget, PrefixSums, RangeEstimator, RangeQuery, Result, Sap0Histogram, SynopticError,
};
use synoptic_hist::builder::{AnytimeParams, HistogramMethod};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_stream::{
    ColumnBuild, ColumnHandle, DurabilityConfig, DurablePersistFn, MaintainedPool, RebuildConfig,
    RebuildPolicy, SharedStorage,
};

type SharedStore = Arc<DurableCatalog<FaultyStorage<FsStorage>>>;

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("synoptic_mfault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A maintained column whose persist hook commits the freshest SAP0
/// synopsis to a durable store through the fault-injecting storage layer.
/// The pool is returned alongside the handle to keep its worker alive.
fn maintained_with_store(
    values: &[i64],
    store: SharedStore,
    retries: u32,
) -> (MaintainedPool, ColumnHandle) {
    // The builder parks a clone of the concrete histogram for the persist
    // hook (the hook only sees `&dyn RangeEstimator`). `DurablePersistFn` is
    // `Send` (it runs on a background worker), so the shared slot is
    // Arc/Mutex.
    let latest: Arc<Mutex<Option<Sap0Histogram>>> = Arc::new(Mutex::new(None));
    let latest_build = Arc::clone(&latest);
    let build = move |_v: &[i64], ps: &PrefixSums, budget: &Budget| {
        let h = build_sap0_with_budget(ps, 4, budget)?.0;
        *latest_build.lock().unwrap() = Some(h.clone());
        Ok(Box::new(h) as Box<dyn RangeEstimator>)
    };
    let persist: DurablePersistFn = Box::new(move |_snap| -> Result<u64> {
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
        store.save(&cat)
    });
    let pool = MaintainedPool::new(1);
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let col = pool
        .add_column_durable(
            "col",
            values,
            ColumnBuild::Custom(Box::new(build)),
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(4))
                .with_persist_retries(retries, Duration::from_micros(10)),
            storage,
            &DurabilityConfig::disabled(),
            0,
            Some(persist),
        )
        .unwrap();
    (pool, col)
}

fn drive_one_rebuild(m: &ColumnHandle) {
    let before = m.stats().rebuilds;
    for t in 0.. {
        if m.update(t % 10, 1).unwrap() {
            m.quiesce();
        }
        if m.stats().rebuilds > before {
            break;
        }
    }
}

#[test]
fn enospc_during_persist_keeps_serving_and_current_generation() {
    let root = tmp_root("enospc");
    let store: SharedStore = Arc::new(
        DurableCatalog::open(&root, FaultyStorage::new(FsStorage::new(), vec![])).unwrap(),
    );
    let values = vec![7i64; 10];
    // 1 retry → 2 attempts per persist.
    let (_pool, m) = maintained_with_store(&values, Arc::clone(&store), 1);

    // First rebuild persists cleanly → generation 1 committed.
    drive_one_rebuild(&m);
    assert_eq!(m.stats().persist_failures, 0);
    assert_eq!(store.effective_manifest().unwrap().generation, 1);

    // Next rebuild: the device is "full" for both persist attempts.
    store.storage().push_fault(Fault::Enospc);
    store.storage().push_fault(Fault::Enospc);
    drive_one_rebuild(&m);
    assert_eq!(store.storage().faults_fired(), 2);
    assert_eq!(m.stats().persist_failures, 1);
    assert_eq!(m.stats().persist_retries, 1);
    assert!(m.last_error().is_some());

    // (a) The in-memory synopsis is the *fresh* one and keeps serving.
    assert_eq!(m.stats().rebuilds, 2);
    let q = RangeQuery { lo: 0, hi: 9 };
    let est = m.estimator().estimate(q);
    assert!(est.is_finite());
    assert!((est - m.exact(q) as f64).abs() / m.exact(q) as f64 <= 0.5);

    // (b) On-disk CURRENT still names generation 1, and it loads strictly.
    assert_eq!(store.effective_manifest().unwrap().generation, 1);
    assert!(store.load().is_ok());

    // Storage recovers → the next rebuild persists and the store catches up.
    drive_one_rebuild(&m);
    assert_eq!(m.stats().persist_failures, 1);
    assert!(store.effective_manifest().unwrap().generation > 1);
    assert!(store.load().is_ok());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_write_during_persist_is_caught_and_retried() {
    let root = tmp_root("torn");
    let store: SharedStore = Arc::new(
        DurableCatalog::open(&root, FaultyStorage::new(FsStorage::new(), vec![])).unwrap(),
    );
    let values = vec![3i64; 10];
    let (_pool, m) = maintained_with_store(&values, Arc::clone(&store), 2);

    drive_one_rebuild(&m);
    assert_eq!(store.effective_manifest().unwrap().generation, 1);

    // A torn synopsis write: silent at write time, caught by the store's
    // pre-commit read-back as CorruptSynopsis — a transient error the
    // persist hook retries. The committed pointer never touches the bad
    // generation.
    store.storage().push_fault(Fault::TornWrite { keep: 10 });
    drive_one_rebuild(&m);
    assert_eq!(store.storage().faults_fired(), 1);
    assert_eq!(m.stats().persist_retries, 1);
    assert_eq!(m.stats().persist_failures, 0); // retry succeeded
    let gen = store.effective_manifest().unwrap().generation;
    assert!(gen > 1);
    // Strict load proves CURRENT points at fully valid bytes.
    assert!(store.load().is_ok());
    // And the fsck report is healthy apart from the abandoned generation's
    // stray files (which repair would quarantine, never delete).
    let est = m.estimator().estimate(RangeQuery { lo: 2, hi: 7 });
    assert!(est.is_finite());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_write_with_no_retries_leaves_previous_generation_committed() {
    let root = tmp_root("tornfinal");
    let store: SharedStore = Arc::new(
        DurableCatalog::open(&root, FaultyStorage::new(FsStorage::new(), vec![])).unwrap(),
    );
    let values = vec![5i64; 10];
    let (_pool, m) = maintained_with_store(&values, Arc::clone(&store), 0);

    drive_one_rebuild(&m);
    assert_eq!(store.effective_manifest().unwrap().generation, 1);

    store.storage().push_fault(Fault::TornWrite { keep: 10 });
    drive_one_rebuild(&m);
    assert_eq!(m.stats().persist_failures, 1);
    // CURRENT still at generation 1; the torn generation was never
    // committed, so a strict load succeeds from the old bytes.
    assert_eq!(store.effective_manifest().unwrap().generation, 1);
    assert!(store.load().is_ok());
    // Serving continues from the fresh in-memory synopsis regardless.
    assert_eq!(m.stats().rebuilds, 2);
    assert!(m
        .estimator()
        .estimate(RangeQuery { lo: 0, hi: 9 })
        .is_finite());
    let _ = std::fs::remove_dir_all(&root);
}

/// Waits for `quiesce` on a helper thread: `false` when the column's jobs
/// have not finished within `limit` (a dead or wedged worker).
fn quiesce_within(col: &ColumnHandle, limit: Duration) -> bool {
    let (done_tx, done_rx) = mpsc::channel();
    let col = col.clone();
    std::thread::spawn(move || {
        col.quiesce();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(limit).is_ok()
}

const PATIENCE: Duration = Duration::from_secs(5);

fn sap0_custom() -> ColumnBuild {
    ColumnBuild::Custom(Box::new(|_v: &[i64], ps: &PrefixSums, budget: &Budget| {
        Ok(Box::new(build_sap0_with_budget(ps, 4, budget)?.0) as Box<dyn RangeEstimator>)
    }))
}

#[test]
fn a_deadline_past_the_clock_range_registers_and_rebuilds() {
    let values: Vec<i64> = (0..32).map(|i| (i * 7) % 11).collect();
    let anytime = || ColumnBuild::Anytime {
        method: HistogramMethod::Sap0,
        budget_words: 12,
    };
    for (kind, build) in [("anytime", anytime()), ("custom", sap0_custom())] {
        let pool = MaintainedPool::new(1);
        let config = RebuildConfig::new(RebuildPolicy::Manual)
            .with_exec(AnytimeParams::unconstrained().with_deadline(Duration::MAX));
        let col = pool.add_column(kind, &values, build, config).unwrap();
        assert!(
            col.last_outcome().is_none_or(|o| !o.is_degraded()),
            "{kind}"
        );
        col.update(0, 5).unwrap();
        assert_eq!(col.request_rebuild(), Ok(true), "{kind}");
        assert!(quiesce_within(&col, PATIENCE), "{kind}: worker wedged");
        assert_eq!(col.stats().rebuilds, 1, "{kind}");
        assert_eq!(col.last_error(), None, "{kind}");
    }
}

/// The upgrade scales the deadline by its factor: 2⁶² s × 4 is past what
/// a `Duration` holds, and must mean "no deadline", not a worker panic.
#[test]
fn a_far_deadline_upgrade_leaves_the_worker_running() {
    let values: Vec<i64> = (0..256).map(|i| (i * 37) % 101 - 50).collect();
    let pool = MaintainedPool::new(1);
    let config = RebuildConfig::new(RebuildPolicy::Manual)
        .with_exec(
            AnytimeParams::unconstrained()
                .with_deadline(Duration::from_secs(1 << 62))
                .with_max_cells(64),
        )
        .with_background_upgrade(4);
    let build = ColumnBuild::Anytime {
        method: HistogramMethod::Sap0,
        budget_words: 24,
    };
    let col = pool.add_column("far", &values, build, config).unwrap();
    assert!(
        col.last_outcome().unwrap().is_degraded(),
        "the cap degrades"
    );
    assert!(
        quiesce_within(&col, PATIENCE),
        "the upgrade wedged the worker"
    );
    let stats = col.stats();
    assert_eq!(stats.upgrades + stats.failed_upgrades, 1, "{stats:?}");
    // The worker is alive: a rebuild is scheduled and runs.
    assert_eq!(col.request_rebuild(), Ok(true));
    assert!(quiesce_within(&col, PATIENCE), "the rebuild never ran");
    assert_eq!(col.stats().rebuilds, 1);
}

/// A panicking persist hook is contained: reported as `BuildPanicked`
/// naming the hook, counted as one persist failure and never retried;
/// the fresh synopsis keeps serving and the worker runs the next rebuild.
#[test]
fn a_panicking_persist_hook_is_contained_and_the_worker_runs_on() {
    let calls = Arc::new(AtomicU32::new(0));
    let seen = Arc::clone(&calls);
    let persist: DurablePersistFn = Box::new(move |_snap| {
        if seen.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("injected persist panic");
        }
        Ok(0)
    });
    let pool = MaintainedPool::new(1);
    let config = RebuildConfig::new(RebuildPolicy::Manual)
        .with_persist_retries(3, Duration::from_micros(10));
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let col = pool
        .add_column_durable(
            "hook",
            &[4i64; 16],
            sap0_custom(),
            config,
            storage,
            &DurabilityConfig::disabled(),
            0,
            Some(persist),
        )
        .unwrap();
    col.update(3, 400).unwrap();
    assert_eq!(col.request_rebuild(), Ok(true));
    assert!(
        quiesce_within(&col, PATIENCE),
        "the hook panic wedged the worker"
    );
    let stats = col.stats();
    assert_eq!(
        (
            stats.rebuilds,
            stats.persist_failures,
            stats.persist_retries
        ),
        (1, 1, 0)
    );
    match col.last_error() {
        Some(SynopticError::BuildPanicked { detail })
            if detail.contains("persist hook") && detail.contains("injected") => {}
        other => panic!("unexpected last error {other:?}"),
    }
    // The fresh synopsis serves: generation 1 carries the spike.
    assert_eq!(col.serving_generation(), 1);
    assert!(col.estimate(RangeQuery::point(3)) > 100.0);
    // A second rebuild is scheduled, and the worker runs it.
    col.update(9, 400).unwrap();
    assert_eq!(col.request_rebuild(), Ok(true));
    assert!(
        quiesce_within(&col, PATIENCE),
        "the second rebuild never ran"
    );
    let stats = col.stats();
    assert_eq!((stats.rebuilds, stats.persist_failures), (2, 1));
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

/// A journaled column whose durable hook panics skips the checkpoint: the
/// journal keeps every record until a later persist commits.
#[test]
fn a_panicking_durable_hook_skips_the_checkpoint() {
    let root = tmp_root("hookpanic");
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let mut calls = 0u32;
    let persist: DurablePersistFn = Box::new(move |_snap| {
        calls += 1;
        if calls == 1 {
            panic!("injected durable persist panic");
        }
        Ok(u64::from(calls))
    });
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_durable(
            "j",
            &[2i64; 16],
            sap0_custom(),
            RebuildConfig::new(RebuildPolicy::Manual),
            storage,
            &DurabilityConfig::journaled(&root),
            0,
            Some(persist),
        )
        .unwrap();
    let journal = col.journal().unwrap();
    for i in 0..3 {
        col.update(i, 1).unwrap();
    }
    assert_eq!(col.request_rebuild(), Ok(true));
    assert!(
        quiesce_within(&col, PATIENCE),
        "the hook panic wedged the worker"
    );
    assert_eq!(col.stats().persist_failures, 1);
    assert!(matches!(
        col.last_error(),
        Some(SynopticError::BuildPanicked { .. })
    ));
    assert_eq!(journal.segment_count(), 1, "no checkpoint after a panic");
    // The next persist commits and checkpoints the journal away.
    assert_eq!(col.request_rebuild(), Ok(true));
    assert!(
        quiesce_within(&col, PATIENCE),
        "the second rebuild never ran"
    );
    assert_eq!(col.stats().persist_failures, 1);
    assert_eq!(journal.segment_count(), 0);
    assert_eq!(col.wal_mark(), 3);
    drop(pool);
    let _ = std::fs::remove_dir_all(&root);
}
