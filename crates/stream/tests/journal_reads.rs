//! Journal read traffic: every consumer of a WAL directory reads each
//! segment file at most once per pass.
//!
//! A read-counting [`Storage`] wraps the filesystem under a directory of
//! three columns with eight sealed segments each (24 files). The counts
//! asserted here are what one walk of the directory costs:
//!
//! * one ship pass for one column reads only that column's 8 files;
//! * once the follower acknowledged everything, the same shipper's next
//!   pass reads at most the newest file: the sealed ones below it are
//!   skipped by name;
//! * the all-columns fan-in (`ship_journals`, behind re-seed and
//!   `maintain --replicate-to`) reads each of the 24 files exactly once:
//!   one scan, whose bytes each shipper's first pass sends from (the
//!   older bound, at most 48 reads, is kept as its own test);
//! * `recover` reads each of the 24 files exactly once.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use synoptic_catalog::wal::{decode_segment, wal_file_name, ColumnWal, WalConfig};
use synoptic_catalog::{Catalog, DurableCatalog, FsStorage, Storage};
use synoptic_core::Result;
use synoptic_repl::transport::{MemTransport, Received, Transport};
use synoptic_repl::wire::{decode_frame, encode_frame, Frame};
use synoptic_repl::{ship_journals, Shipper};
use synoptic_stream::recover;

const COLUMNS: [&str; 3] = ["a", "b", "c"];
const SEGMENTS: u64 = 8;

/// The filesystem, recording the name of every `.wal` file read.
#[derive(Clone, Default)]
struct CountingStorage {
    inner: FsStorage,
    reads: Arc<Mutex<Vec<String>>>,
}

impl CountingStorage {
    /// Segment files read since the last call, one entry per read.
    fn take_reads(&self) -> Vec<String> {
        std::mem::take(&mut *self.reads.lock().unwrap())
    }
}

impl Storage for CountingStorage {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".wal") {
            self.reads.lock().unwrap().push(name);
        }
        self.inner.read(path)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.inner.write_atomic(path, bytes)
    }
    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8], sync: bool) -> Result<()> {
        self.inner.write_at(path, offset, bytes, sync)
    }
    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.inner.truncate(path, len)
    }
    fn remove(&self, path: &Path) -> Result<()> {
        self.inner.remove(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "synoptic_journal_reads_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Journals `SEGMENTS` one-record segments for each column, all sealed.
fn journal(storage: &CountingStorage, wal_dir: &Path) {
    let cfg = WalConfig {
        segment_bytes: 1, // every append rotates
        ..WalConfig::default()
    };
    for column in COLUMNS {
        let wal = ColumnWal::open(storage.clone(), wal_dir, column, 1, cfg).unwrap();
        for i in 0..SEGMENTS {
            wal.append(i % 4, 1).unwrap();
        }
        wal.seal().unwrap();
    }
    assert_eq!(storage.list(wal_dir).unwrap().len(), 24);
    storage.take_reads();
}

/// A follower stub that starts at `applied` per column, acks every probe
/// with it, and advances it to each shipped segment's last LSN.
fn follower(
    mut t: MemTransport,
    mut applied: BTreeMap<String, u64>,
) -> std::thread::JoinHandle<usize> {
    std::thread::spawn(move || {
        let mut segments = 0usize;
        loop {
            let bytes = match t.recv(None).unwrap() {
                Received::Frame(bytes) => bytes,
                Received::Closed => return segments,
                Received::TimedOut => continue,
            };
            let column = match decode_frame(&bytes).unwrap() {
                Frame::Segment { column, bytes, .. } => {
                    let last = decode_segment(&bytes, "shipped").unwrap().last_lsn;
                    let lsn = applied.entry(column.clone()).or_default();
                    *lsn = (*lsn).max(last);
                    segments += 1;
                    column
                }
                Frame::Heartbeat { column, .. } => column,
                _ => continue,
            };
            let applied_lsn = applied.get(&column).copied().unwrap_or(0);
            t.send(&encode_frame(&Frame::Ack {
                term: 0,
                column,
                applied_lsn,
            }))
            .unwrap();
        }
    })
}

fn at(lsn: u64) -> BTreeMap<String, u64> {
    COLUMNS.iter().map(|c| (c.to_string(), lsn)).collect()
}

#[test]
fn one_ship_pass_reads_only_its_own_column_once() {
    let root = tmp_root("ship");
    let wal_dir = root.join("wal");
    let storage = CountingStorage::default();
    journal(&storage, &wal_dir);
    // The follower holds all but column a's last segment.
    let (leader_end, follower_end) = MemTransport::pair();
    let stub = follower(follower_end, at(SEGMENTS - 1));
    let mut t: Box<dyn Transport> = Box::new(leader_end);
    let report = Shipper::new(storage.clone(), &wal_dir, "a")
        .ship(t.as_mut(), SEGMENTS)
        .unwrap();
    assert_eq!((report.passes, report.shipped), (1, 1));
    assert_eq!(report.acked_lsn, SEGMENTS);
    let mut reads = storage.take_reads();
    assert!(reads.iter().all(|f| f.starts_with("a-")), "{reads:?}");
    let total = reads.len();
    reads.sort();
    reads.dedup();
    assert_eq!(total, reads.len(), "a file was read twice: {reads:?}");
    assert!(total <= SEGMENTS as usize, "{total} files read");
    t.close();
    assert_eq!(stub.join().unwrap(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_pass_after_a_full_ack_reads_at_most_the_newest_file() {
    let root = tmp_root("floor");
    let wal_dir = root.join("wal");
    let storage = CountingStorage::default();
    journal(&storage, &wal_dir);
    // One record per segment: column a's newest file is its last record's.
    let newest = wal_file_name("a", SEGMENTS);
    assert!(storage.list(&wal_dir).unwrap().contains(&newest));
    let shipper = Shipper::new(storage.clone(), &wal_dir, "a");
    let (leader_end, follower_end) = MemTransport::pair();
    let stub = follower(follower_end, at(0));
    let mut t: Box<dyn Transport> = Box::new(leader_end);
    let first = shipper.ship(t.as_mut(), SEGMENTS).unwrap();
    assert_eq!(
        (first.shipped, first.acked_lsn),
        (SEGMENTS as usize, SEGMENTS)
    );
    assert_eq!(storage.take_reads().len(), SEGMENTS as usize);
    let second = shipper.ship(t.as_mut(), SEGMENTS).unwrap();
    assert_eq!((second.shipped, second.acked_lsn), (0, SEGMENTS));
    let reads = storage.take_reads();
    assert!(reads.iter().all(|f| *f == newest), "{reads:?}");
    t.close();
    assert_eq!(stub.join().unwrap(), SEGMENTS as usize);
    // A follower that acks below the floor gets the whole journal again.
    let (leader_end, follower_end) = MemTransport::pair();
    let stub = follower(follower_end, at(0));
    let mut t: Box<dyn Transport> = Box::new(leader_end);
    let third = shipper.ship(t.as_mut(), SEGMENTS).unwrap();
    assert_eq!(
        (third.shipped, third.acked_lsn),
        (SEGMENTS as usize, SEGMENTS)
    );
    assert_eq!(storage.take_reads().len(), SEGMENTS as usize);
    t.close();
    assert_eq!(stub.join().unwrap(), SEGMENTS as usize);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_fan_in_reads_each_file_at_most_twice() {
    let root = tmp_root("fanin");
    let wal_dir = root.join("wal");
    let storage = CountingStorage::default();
    journal(&storage, &wal_dir);
    // Nothing is pending: the follower holds every column's journal.
    let (leader_end, follower_end) = MemTransport::pair();
    let stub = follower(follower_end, at(SEGMENTS));
    let mut t: Box<dyn Transport> = Box::new(leader_end);
    let reports = ship_journals(&storage, &wal_dir, 0, None, t.as_mut()).unwrap();
    let columns: Vec<&str> = reports.iter().map(|(c, _)| c.as_str()).collect();
    assert_eq!(columns, COLUMNS);
    assert!(reports.iter().all(|(_, r)| r.acked_lsn == SEGMENTS));
    let reads = storage.take_reads();
    assert!(reads.len() <= 48, "{} files read", reads.len());
    t.close();
    assert_eq!(stub.join().unwrap(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_fan_in_reads_each_file_once() {
    let root = tmp_root("fanin_once");
    let wal_dir = root.join("wal");
    let storage = CountingStorage::default();
    journal(&storage, &wal_dir);
    // The follower holds all but each column's last segment: every
    // shipper sends one segment, from the scan's bytes.
    let (leader_end, follower_end) = MemTransport::pair();
    let stub = follower(follower_end, at(SEGMENTS - 1));
    let mut t: Box<dyn Transport> = Box::new(leader_end);
    let reports = ship_journals(&storage, &wal_dir, 0, None, t.as_mut()).unwrap();
    assert!(reports
        .iter()
        .all(|(_, r)| (r.shipped, r.acked_lsn) == (1, SEGMENTS)));
    let mut reads = storage.take_reads();
    reads.sort();
    let mut once = storage.list(&wal_dir).unwrap();
    once.sort();
    assert_eq!(reads, once);
    t.close();
    assert_eq!(stub.join().unwrap(), COLUMNS.len());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn recover_reads_each_segment_file_once() {
    let root = tmp_root("recover");
    let wal_dir = root.join("wal");
    let storage = CountingStorage::default();
    journal(&storage, &wal_dir);
    let store = DurableCatalog::open(root.join("cat"), storage.clone()).unwrap();
    let mut cat = Catalog::new();
    for column in COLUMNS {
        cat.insert_exact(column, &[0; 4], 0).unwrap();
    }
    store.save(&cat).unwrap();
    storage.take_reads();
    let report = recover(&store, &wal_dir).unwrap();
    assert_eq!(report.total_replayed(), 3 * SEGMENTS);
    let mut reads = storage.take_reads();
    reads.sort();
    let mut once = storage.list(&wal_dir).unwrap();
    once.sort();
    assert_eq!(reads, once);
    let _ = std::fs::remove_dir_all(&root);
}
