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

use std::sync::{Arc, Mutex};
use std::time::Duration;

use synoptic_catalog::{
    Catalog, ColumnEntry, DurableCatalog, Fault, FaultyStorage, FsStorage, PersistentSynopsis,
};
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, Result, Sap0Histogram};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_stream::{
    ColumnBuild, ColumnHandle, MaintainedPool, PersistFn, RebuildConfig, RebuildPolicy,
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
    // hook (the hook only sees `&dyn RangeEstimator`). `PersistFn` is `Send`
    // (it may run on a background worker), so the shared slot is Arc/Mutex.
    let latest: Arc<Mutex<Option<Sap0Histogram>>> = Arc::new(Mutex::new(None));
    let latest_build = Arc::clone(&latest);
    let build = move |_v: &[i64], ps: &PrefixSums, budget: &Budget| {
        let h = build_sap0_with_budget(ps, 4, budget)?.0;
        *latest_build.lock().unwrap() = Some(h.clone());
        Ok(Box::new(h) as Box<dyn RangeEstimator>)
    };
    let persist: PersistFn = Box::new(move |_est: &dyn RangeEstimator| -> Result<()> {
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
    });
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_with_persist(
            "col",
            values,
            ColumnBuild::Custom(Box::new(build)),
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(4))
                .with_persist_retries(retries, Duration::from_micros(10)),
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
