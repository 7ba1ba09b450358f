//! Storage abstraction for the durable catalog: a real filesystem backend
//! with atomic writes, and a deterministic fault-injecting backend for
//! crash/corruption testing.
//!
//! All catalog I/O goes through the [`Storage`] trait, so the recovery
//! logic in [`crate::store`] can be exercised against scripted torn writes,
//! truncations, bit flips, partial reads and `ENOSPC` without touching a
//! real failing disk.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use synoptic_core::{Result, SynopticError};

fn io_err(path: &Path, e: impl std::fmt::Display) -> SynopticError {
    SynopticError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// The catalog's view of a filesystem.
///
/// Contract: `write_atomic` must be all-or-nothing at the destination path —
/// after a crash at any point, a reader sees either the complete old content
/// or the complete new content, never a prefix. (The fault-injection backend
/// deliberately violates pieces of this contract to prove the *reader* still
/// never serves corrupt data.)
pub trait Storage {
    /// Reads an entire file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;

    /// Atomically replaces `path` with `bytes` (write temp → fsync → rename).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()>;

    /// Appends `bytes` to `path`, creating the file when absent. When `sync`
    /// is set the data is fsynced before returning — the write-ahead journal
    /// uses this for its durability cadence. Appends are *not* atomic: a
    /// crash may leave a torn tail, which journal readers must tolerate.
    fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()>;

    /// Shrinks `path` to its first `len` bytes and fsyncs it, so a failed
    /// append's stray bytes cannot outlive the rollback. A missing file
    /// already holds no bytes: truncating it to `0` succeeds.
    fn truncate(&self, path: &Path, len: u64) -> Result<()>;

    /// Removes a file (used by checkpoint truncation and pruning, which
    /// delete only data already captured by a committed generation).
    fn remove(&self, path: &Path) -> Result<()>;

    /// Renames a file (used for quarantine; must not delete on failure).
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;

    /// Lists the file names (not paths) in a directory, sorted.
    fn list(&self, dir: &Path) -> Result<Vec<String>>;

    /// Creates a directory and parents.
    fn create_dir_all(&self, dir: &Path) -> Result<()>;

    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
}

/// Shared-ownership backends forward to their inner storage, so one
/// instance — and one fault schedule — can serve both a
/// [`crate::store::DurableCatalog`] and a [`crate::wal::ColumnWal`].
impl<S: Storage + ?Sized> Storage for std::sync::Arc<S> {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        (**self).read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        (**self).write_atomic(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
        (**self).append(path, bytes, sync)
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        (**self).truncate(path, len)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        (**self).remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        (**self).rename(from, to)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        (**self).list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        (**self).create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }
}

/// The production backend: write-temp → fsync → atomic-rename, plus a
/// best-effort fsync of the parent directory so the rename itself is
/// durable.
#[derive(Debug, Default, Clone)]
pub struct FsStorage;

impl FsStorage {
    /// A new filesystem backend.
    pub fn new() -> Self {
        Self
    }
}

/// Fsyncs the directory containing `path` so a just-created or just-renamed
/// entry survives a crash (best-effort — not all platforms allow opening
/// directories).
fn fsync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl Storage for FsStorage {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| io_err(path, e))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        use std::io::Write as _;
        let tmp = tmp_path(path);
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        // Durability of the rename.
        fsync_parent_dir(path);
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
        use std::io::Write as _;
        let created = !path.exists();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        f.write_all(bytes).map_err(|e| io_err(path, e))?;
        if sync {
            f.sync_all().map_err(|e| io_err(path, e))?;
        }
        // A new file's directory entry must be durable too, or a crash
        // loses the whole file even after its data was fsynced — for a WAL
        // segment that silently shortens an otherwise well-formed chain.
        // Syncing the entry once at creation covers later appends as well:
        // they change the inode, not the entry.
        if created {
            fsync_parent_dir(path);
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        let f = match std::fs::OpenOptions::new().write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && len == 0 => return Ok(()),
            Err(e) => return Err(io_err(path, e)),
        };
        f.set_len(len).map_err(|e| io_err(path, e))?;
        f.sync_all().map_err(|e| io_err(path, e))?;
        // The failed append may have created the file without syncing its
        // directory entry; later appends see it exist and would not either.
        fsync_parent_dir(path);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path).map_err(|e| io_err(path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to).map_err(|e| io_err(from, e))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let mut names = Vec::new();
        let rd = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
        for entry in rd {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            if entry.path().is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The temp-file sibling used by atomic writes.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    name.push_str(".tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One scripted fault. Faults are consumed from a queue: each write
/// operation pops the next write fault (the variants documented "Write:"),
/// each read the next read fault ("Read:"), making schedules deterministic
/// and replayable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Write: only the first `keep` bytes reach the destination (a torn
    /// write on a filesystem without atomic-rename guarantees).
    TornWrite {
        /// Bytes that survive.
        keep: usize,
    },
    /// Write: the device is full; the destination is left untouched.
    Enospc,
    /// Write: the process "crashes" after writing the temp file but before
    /// the rename — the destination keeps its previous content.
    CrashBeforeRename,
    /// Read: the file appears truncated to `len` bytes.
    Truncate {
        /// Bytes visible to the reader.
        len: usize,
    },
    /// Read: one bit is flipped at `offset` (mod file length).
    BitFlip {
        /// Byte offset of the flip.
        offset: usize,
        /// Bit mask XOR-ed into the byte.
        mask: u8,
    },
    /// Read: only a prefix of the file is returned, as if a partial read
    /// were mistakenly treated as complete.
    PartialRead {
        /// Fraction numerator: `len = file_len * num / 100`.
        percent: usize,
    },
    /// Write: explicit no-op, used to position later write faults at a
    /// precise operation index in a schedule.
    CleanWrite,
    /// Read: explicit no-op, used to position later read faults at a
    /// precise operation index in a schedule.
    CleanRead,
}

impl Fault {
    fn is_write_fault(&self) -> bool {
        matches!(
            self,
            Fault::TornWrite { .. } | Fault::Enospc | Fault::CrashBeforeRename | Fault::CleanWrite
        )
    }
}

/// A [`Storage`] wrapper that injects scripted faults into an inner backend.
///
/// Deterministic by construction: the schedule is a queue, and each
/// read/write pops at most one matching fault. Operations beyond the
/// schedule pass through untouched.
///
/// Thread-safe: the fault queues are behind mutexes so the harness can be
/// driven from a test thread while a background persist worker writes
/// through it (the maintained-pool fault tests do exactly this). A poisoned
/// queue mutex is recovered, not propagated — fault scheduling state stays
/// usable even if an injected fault panicked a writer.
pub struct FaultyStorage<S: Storage> {
    inner: S,
    write_faults: Mutex<VecDeque<Fault>>,
    read_faults: Mutex<VecDeque<Fault>>,
    /// Count of faults actually fired (for test assertions).
    fired: AtomicUsize,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner` with a fault schedule. Order within each class (read /
    /// write) is preserved; classes are independent queues.
    pub fn new(inner: S, schedule: Vec<Fault>) -> Self {
        let (writes, reads): (Vec<_>, Vec<_>) =
            schedule.into_iter().partition(Fault::is_write_fault);
        Self {
            inner,
            write_faults: Mutex::new(writes.into()),
            read_faults: Mutex::new(reads.into()),
            fired: AtomicUsize::new(0),
        }
    }

    /// How many scripted faults have fired so far.
    pub fn faults_fired(&self) -> usize {
        self.fired.load(Ordering::SeqCst)
    }

    /// Appends more faults to the schedule.
    pub fn push_fault(&self, fault: Fault) {
        if fault.is_write_fault() {
            self.write_faults
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(fault);
        } else {
            self.read_faults
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(fault);
        }
    }

    fn fire(&self) {
        self.fired.fetch_add(1, Ordering::SeqCst);
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let fault = self
            .read_faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        let mut bytes = self.inner.read(path)?;
        match fault {
            None => Ok(bytes),
            Some(Fault::Truncate { len }) => {
                self.fire();
                bytes.truncate(len);
                Ok(bytes)
            }
            Some(Fault::BitFlip { offset, mask }) => {
                self.fire();
                if !bytes.is_empty() {
                    let i = offset % bytes.len();
                    bytes[i] ^= if mask == 0 { 1 } else { mask };
                }
                Ok(bytes)
            }
            Some(Fault::PartialRead { percent }) => {
                self.fire();
                let keep = bytes.len() * percent.min(100) / 100;
                bytes.truncate(keep);
                Ok(bytes)
            }
            Some(Fault::CleanRead) => Ok(bytes),
            Some(w) => unreachable!("write fault {w:?} in read queue"),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let fault = self
            .write_faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        match fault {
            None => self.inner.write_atomic(path, bytes),
            Some(Fault::TornWrite { keep }) => {
                self.fire();
                let keep = keep.min(bytes.len());
                // The torn prefix lands at the destination — this models a
                // filesystem whose rename is not atomic, the worst case the
                // reader must survive.
                self.inner.write_atomic(path, &bytes[..keep])
            }
            Some(Fault::Enospc) => {
                self.fire();
                Err(SynopticError::Io {
                    path: path.display().to_string(),
                    detail: "no space left on device (injected)".into(),
                })
            }
            Some(Fault::CrashBeforeRename) => {
                self.fire();
                // Write the temp file like a real crash would leave it, but
                // never rename: destination keeps its old content.
                let tmp = tmp_path(path);
                self.inner.write_atomic(&tmp, bytes)?;
                Err(SynopticError::Io {
                    path: path.display().to_string(),
                    detail: "simulated crash between temp write and rename".into(),
                })
            }
            Some(Fault::CleanWrite) => self.inner.write_atomic(path, bytes),
            Some(r) => unreachable!("read fault {r:?} in write queue"),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
        let fault = self
            .write_faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        match fault {
            None | Some(Fault::CleanWrite) => self.inner.append(path, bytes, sync),
            Some(Fault::TornWrite { keep }) => {
                self.fire();
                // A torn tail that the caller never learns about: the bytes
                // were accepted into the page cache but only a prefix hit the
                // platter before power was lost. Journal recovery must
                // truncate-and-continue past exactly this.
                self.inner
                    .append(path, &bytes[..keep.min(bytes.len())], sync)
            }
            Some(Fault::Enospc) => {
                self.fire();
                Err(SynopticError::Io {
                    path: path.display().to_string(),
                    detail: "no space left on device (injected)".into(),
                })
            }
            Some(Fault::CrashBeforeRename) => {
                self.fire();
                // For appends this models a crash before any byte reached the
                // file: the caller sees an error, the journal tail is clean.
                Err(SynopticError::Io {
                    path: path.display().to_string(),
                    detail: "simulated crash before append".into(),
                })
            }
            Some(r) => unreachable!("read fault {r:?} in write queue"),
        }
    }

    /// Passes through without consuming a fault: a rollback is part of the
    /// failed append it undoes, so fault schedules index the same write
    /// operations whether or not an append has to roll back.
    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.inner.truncate(path, len)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let fault = self
            .write_faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        match fault {
            None | Some(Fault::CleanWrite) | Some(Fault::TornWrite { .. }) => {
                self.inner.remove(path)
            }
            Some(Fault::Enospc) | Some(Fault::CrashBeforeRename) => {
                self.fire();
                // Crash before the unlink: the file survives. Recovery must
                // treat a stale-but-valid journal segment as skippable.
                Err(SynopticError::Io {
                    path: path.display().to_string(),
                    detail: "simulated crash before remove".into(),
                })
            }
            Some(r) => unreachable!("read fault {r:?} in write queue"),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("synoptic_storage_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fs_storage_round_trips_and_lists() {
        let d = tmp_dir("fs");
        let s = FsStorage::new();
        let p = d.join("a.bin");
        s.write_atomic(&p, b"hello").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"hello");
        s.write_atomic(&p, b"rewritten").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"rewritten");
        s.write_atomic(&d.join("b.bin"), b"x").unwrap();
        assert_eq!(s.list(&d).unwrap(), vec!["a.bin", "b.bin"]);
        assert!(s.exists(&p));
        assert!(!s.exists(&d.join("nope")));
        // No stray temp files after successful writes.
        assert!(!s.exists(&tmp_path(&p)));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fs_storage_read_errors_carry_the_path() {
        let err = FsStorage::new()
            .read(Path::new("/nonexistent/x.bin"))
            .unwrap_err();
        assert!(err.to_string().contains("/nonexistent/x.bin"), "{err}");
    }

    #[test]
    fn torn_write_leaves_a_prefix() {
        let d = tmp_dir("torn");
        let s = FaultyStorage::new(FsStorage::new(), vec![Fault::TornWrite { keep: 3 }]);
        let p = d.join("t.bin");
        s.write_atomic(&p, b"0123456789").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"012");
        assert_eq!(s.faults_fired(), 1);
        // Next write is clean.
        s.write_atomic(&p, b"0123456789").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"0123456789");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn enospc_preserves_previous_content() {
        let d = tmp_dir("enospc");
        let s = FaultyStorage::new(FsStorage::new(), vec![Fault::Enospc]);
        let p = d.join("e.bin");
        // First, a clean write with no fault in queue... the queue pops in
        // order, so seed the old content through the inner backend.
        FsStorage::new().write_atomic(&p, b"old").unwrap();
        let err = s.write_atomic(&p, b"new").unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        assert_eq!(s.read(&p).unwrap(), b"old");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_before_rename_keeps_old_generation() {
        let d = tmp_dir("crash");
        let s = FaultyStorage::new(FsStorage::new(), vec![Fault::CrashBeforeRename]);
        let p = d.join("c.bin");
        FsStorage::new().write_atomic(&p, b"gen1").unwrap();
        assert!(s.write_atomic(&p, b"gen2").is_err());
        // Old content intact; temp file left behind like a real crash.
        assert_eq!(s.read(&p).unwrap(), b"gen1");
        assert!(s.exists(&tmp_path(&p)));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn append_accumulates_and_remove_unlinks() {
        let d = tmp_dir("append");
        let s = FsStorage::new();
        let p = d.join("j.wal");
        s.append(&p, b"abc", false).unwrap();
        s.append(&p, b"def", true).unwrap();
        assert_eq!(s.read(&p).unwrap(), b"abcdef");
        s.truncate(&p, 2).unwrap();
        assert_eq!(s.read(&p).unwrap(), b"ab");
        s.remove(&p).unwrap();
        assert!(!s.exists(&p));
        assert!(s.remove(&p).is_err(), "removing a missing file errors");
        s.truncate(&p, 0).unwrap();
        assert!(
            s.truncate(&p, 1).is_err(),
            "a missing file has no byte to keep"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn append_faults_tear_fail_or_crash() {
        let d = tmp_dir("appendf");
        let s = FaultyStorage::new(
            FsStorage::new(),
            vec![
                Fault::TornWrite { keep: 2 },
                Fault::Enospc,
                Fault::CrashBeforeRename,
            ],
        );
        let p = d.join("j.wal");
        // Torn: silent success, only a prefix lands.
        s.append(&p, b"0123", false).unwrap();
        assert_eq!(s.read(&p).unwrap(), b"01");
        // ENOSPC: loud failure, nothing lands.
        assert!(s.append(&p, b"4567", false).is_err());
        assert_eq!(s.read(&p).unwrap(), b"01");
        // Crash-before-append: loud failure, nothing lands.
        assert!(s.append(&p, b"89", false).is_err());
        assert_eq!(s.read(&p).unwrap(), b"01");
        assert_eq!(s.faults_fired(), 3);
        // Schedule exhausted: appends are clean again.
        s.append(&p, b"ab", true).unwrap();
        assert_eq!(s.read(&p).unwrap(), b"01ab");
        // A scripted crash-before-remove keeps the file.
        s.push_fault(Fault::CrashBeforeRename);
        assert!(s.remove(&p).is_err());
        assert!(s.exists(&p));
        s.remove(&p).unwrap();
        assert!(!s.exists(&p));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn read_faults_mutate_only_the_view() {
        let d = tmp_dir("readf");
        let p = d.join("r.bin");
        FsStorage::new().write_atomic(&p, b"abcdefgh").unwrap();
        let s = FaultyStorage::new(
            FsStorage::new(),
            vec![
                Fault::Truncate { len: 2 },
                Fault::BitFlip {
                    offset: 1,
                    mask: 0x01,
                },
                Fault::PartialRead { percent: 50 },
            ],
        );
        assert_eq!(s.read(&p).unwrap(), b"ab");
        assert_eq!(s.read(&p).unwrap(), b"accdefgh");
        assert_eq!(s.read(&p).unwrap(), b"abcd");
        // Faults exhausted: reads are clean again and the file on disk was
        // never altered.
        assert_eq!(s.read(&p).unwrap(), b"abcdefgh");
        assert_eq!(s.faults_fired(), 3);
        let _ = std::fs::remove_dir_all(&d);
    }
}
