//! The durable catalog store: generational manifests, atomic commits,
//! quarantine of corrupt files, and graceful-degradation answering.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   CURRENT            framed pointer to the committed generation number
//!   MANIFEST-<gen>     one column table per generation
//!   <column>-<gen>.syn one synopsis file per column per generation
//!   quarantine/        corrupt files moved aside (never deleted)
//! ```
//!
//! ## Commit protocol
//!
//! [`DurableCatalog::save`] writes all synopsis files for generation `g+1`,
//! then `MANIFEST-(g+1)`, and only then atomically swaps `CURRENT`. A crash
//! at any point before the swap leaves generation `g` fully intact and
//! authoritative; partially-written `g+1` files are invisible garbage that
//! `repair` sweeps into quarantine.
//!
//! ## Degraded-mode answering
//!
//! Every read validates the frame checksum *and* the synopsis semantics
//! before serving. When validation fails the store never guesses from the
//! corrupt bytes; it walks a fallback chain and reports which link answered
//! via [`AnswerSource`]:
//!
//! 1. the column's synopsis in the current generation (`Primary`);
//! 2. the newest older generation whose copy validates
//!    (`FallbackGeneration`);
//! 3. a NAIVE estimator rebuilt from manifest metadata alone
//!    (`FallbackNaive`, answering `len(q) · total_rows / n`).
//!
//! Corrupt files encountered along the way are renamed into `quarantine/`
//! so the evidence survives for forensics and the next read does not trip
//! over them again.

use std::path::{Path, PathBuf};

use synoptic_core::{
    AnswerSource, RangeEstimator, RangeQuery, Result, SourcedEstimate, SynopticError,
};

use crate::catalog::{Catalog, ColumnEntry};
use crate::format::{
    current_from_bytes, current_to_bytes, manifest_from_bytes, manifest_to_bytes,
    synopsis_from_bytes, synopsis_to_bytes, Manifest, ManifestColumn,
};
use crate::persist::{LoadedSynopsis, NaiveEstimatorShim};
use crate::storage::Storage;

/// Name of the committed-generation pointer file.
pub const CURRENT_FILE: &str = "CURRENT";
/// Prefix of per-generation manifest files.
pub const MANIFEST_PREFIX: &str = "MANIFEST-";
/// Name of the quarantine subdirectory.
pub const QUARANTINE_DIR: &str = "quarantine";
/// Extension of synopsis files.
pub const SYNOPSIS_EXT: &str = "syn";

/// A catalog persisted under one root directory via a [`Storage`] backend.
pub struct DurableCatalog<S: Storage> {
    root: PathBuf,
    storage: S,
}

/// Compile-time proof that the durable persist path can cross a thread
/// boundary: the maintained-pool worker owns the persist hook, so the
/// store (with either the production or the fault-injecting backend) must
/// be `Send + Sync`. Checked by every `cargo build`, including the release
/// gate in `ci.sh`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DurableCatalog<crate::FsStorage>>();
    assert_send_sync::<DurableCatalog<crate::FaultyStorage<crate::FsStorage>>>();
};

/// One problem found by [`DurableCatalog::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// File the issue concerns, relative to the store root.
    pub file: String,
    /// What is wrong with it.
    pub detail: String,
}

/// The result of a read-only consistency check.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Generation `CURRENT` points at, if it is readable and valid.
    pub current_generation: Option<u64>,
    /// Generations whose manifest validates, newest first.
    pub valid_generations: Vec<u64>,
    /// Generations whose manifest validates but whose number exceeds the
    /// committed `CURRENT` pointer, ascending: leftovers of saves that
    /// crashed between the manifest write and the pointer swap. They are
    /// dead weight, not corruption, so they do not make the store
    /// unhealthy; [`DurableCatalog::prune_abandoned`] reclaims them.
    pub abandoned_generations: Vec<u64>,
    /// Columns in the effective manifest whose synopsis validates.
    pub columns_ok: usize,
    /// Columns in the effective manifest (total).
    pub columns_total: usize,
    /// Everything wrong, one entry per file.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// `true` when the store is fully consistent.
    pub fn healthy(&self) -> bool {
        self.issues.is_empty()
    }

    /// A human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self.current_generation {
            Some(g) => {
                let _ = writeln!(out, "CURRENT -> generation {g}");
            }
            None => {
                let _ = writeln!(out, "CURRENT missing or invalid");
            }
        }
        let _ = writeln!(out, "valid generations: {:?}", self.valid_generations);
        if !self.abandoned_generations.is_empty() {
            let _ = writeln!(
                out,
                "abandoned generations (written but never committed): {:?}",
                self.abandoned_generations
            );
        }
        let _ = writeln!(
            out,
            "columns: {}/{} synopses valid",
            self.columns_ok, self.columns_total
        );
        if self.issues.is_empty() {
            let _ = writeln!(out, "fsck: clean");
        } else {
            for i in &self.issues {
                let _ = writeln!(out, "issue: {}: {}", i.file, i.detail);
            }
            let _ = writeln!(out, "fsck: {} issue(s)", self.issues.len());
        }
        out
    }
}

/// What [`DurableCatalog::repair`] did.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Files moved into `quarantine/`, relative to the store root.
    pub quarantined: Vec<String>,
    /// Whether `CURRENT` was rewritten to point at a valid generation.
    pub current_rewritten: bool,
    /// The generation `CURRENT` points at after repair, if any.
    pub current_generation: Option<u64>,
}

impl RepairReport {
    /// A human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for q in &self.quarantined {
            let _ = writeln!(out, "quarantined: {q}");
        }
        if self.current_rewritten {
            let _ = writeln!(
                out,
                "CURRENT rewritten -> generation {:?}",
                self.current_generation
            );
        }
        if self.quarantined.is_empty() && !self.current_rewritten {
            let _ = writeln!(out, "repair: nothing to do");
        }
        out
    }
}

/// What [`DurableCatalog::prune_abandoned`] found and — unless it ran as a
/// dry run — deleted.
#[derive(Debug, Clone, Default)]
pub struct PruneReport {
    /// Abandoned (valid but never committed) generations, ascending.
    pub abandoned_generations: Vec<u64>,
    /// Files belonging to those generations, relative to the store root.
    pub files: Vec<String>,
    /// `true` when the files were actually deleted; `false` for a dry run.
    pub deleted: bool,
}

impl PruneReport {
    /// A human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.abandoned_generations.is_empty() {
            let _ = writeln!(out, "prune: no abandoned generations");
            return out;
        }
        let verb = if self.deleted {
            "pruned"
        } else {
            "would prune (dry run)"
        };
        let _ = writeln!(
            out,
            "{verb} abandoned generation(s) {:?}:",
            self.abandoned_generations
        );
        for f in &self.files {
            let _ = writeln!(out, "  {f}");
        }
        out
    }
}

fn manifest_file(generation: u64) -> String {
    format!("{MANIFEST_PREFIX}{generation}")
}

/// Maps a column name onto a safe flat-file component. Shared by synopsis
/// files and WAL segment files so one column's artifacts sort together.
pub(crate) fn sanitize_column(column: &str) -> String {
    column
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn synopsis_file(column: &str, generation: u64) -> String {
    format!("{}-{generation}.{SYNOPSIS_EXT}", sanitize_column(column))
}

fn parse_manifest_generation(name: &str) -> Option<u64> {
    name.strip_prefix(MANIFEST_PREFIX)?.parse::<u64>().ok()
}

impl<S: Storage> DurableCatalog<S> {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>, storage: S) -> Result<Self> {
        let root = root.into();
        storage.create_dir_all(&root)?;
        storage.create_dir_all(&root.join(QUARANTINE_DIR))?;
        Ok(Self { root, storage })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Borrow of the storage backend (tests inspect fault counters).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    // -- generation discovery ------------------------------------------------

    /// The generation `CURRENT` points at, if the pointer file is valid.
    fn current_pointer(&self) -> Option<u64> {
        let bytes = self.storage.read(&self.path(CURRENT_FILE)).ok()?;
        current_from_bytes(&bytes, CURRENT_FILE).ok()
    }

    /// All generations with a manifest file on disk (valid or not), ascending.
    fn manifest_generations_on_disk(&self) -> Result<Vec<u64>> {
        let mut gens: Vec<u64> = self
            .storage
            .list(&self.root)?
            .iter()
            .filter_map(|n| parse_manifest_generation(n))
            .collect();
        gens.sort_unstable();
        Ok(gens)
    }

    /// Reads and validates one generation's manifest.
    fn read_manifest(&self, generation: u64) -> Result<Manifest> {
        let name = manifest_file(generation);
        let bytes = self.storage.read(&self.path(&name))?;
        let m = manifest_from_bytes(&bytes, &name)?;
        if m.generation != generation {
            return Err(SynopticError::CorruptSynopsis {
                context: name,
                detail: format!(
                    "manifest claims generation {} but file name says {generation}",
                    m.generation
                ),
            });
        }
        Ok(m)
    }

    /// The newest valid manifest, resolving `CURRENT` first and falling back
    /// to a scan of `MANIFEST-*` files (newest first) when the pointer or
    /// its target is damaged.
    pub fn effective_manifest(&self) -> Result<Manifest> {
        if let Some(g) = self.current_pointer() {
            if let Ok(m) = self.read_manifest(g) {
                return Ok(m);
            }
        }
        let mut gens = self.manifest_generations_on_disk()?;
        gens.reverse();
        for g in gens {
            if let Ok(m) = self.read_manifest(g) {
                return Ok(m);
            }
        }
        Err(SynopticError::CorruptSynopsis {
            context: self.root.display().to_string(),
            detail: "no valid manifest found in store".into(),
        })
    }

    // -- save / load ---------------------------------------------------------

    /// Commits `catalog` as a new generation. Returns the generation number.
    ///
    /// Ordering is the crash-safety argument: synopsis files first, then the
    /// manifest, then the atomic `CURRENT` swap. An error (or crash) at any
    /// step leaves the previously committed generation untouched.
    pub fn save(&self, catalog: &Catalog) -> Result<u64> {
        // The next generation must exceed both the committed pointer and any
        // uncommitted manifest a crashed save left behind, so no file is
        // ever silently overwritten.
        let on_disk = self
            .manifest_generations_on_disk()
            .unwrap_or_default()
            .last()
            .copied();
        let prev = self.current_pointer().into_iter().chain(on_disk).max();
        let generation = prev.map_or(1, |g| g + 1);

        let mut columns = Vec::with_capacity(catalog.len());
        for (name, entry) in catalog.iter() {
            let file = synopsis_file(name, generation);
            let bytes = synopsis_to_bytes(&entry.synopsis);
            self.storage.write_atomic(&self.path(&file), &bytes)?;
            let method = entry
                .synopsis
                .load()
                .map(|l| l.method_name().to_string())
                .unwrap_or_else(|_| "?".to_string());
            columns.push(ManifestColumn {
                name: name.to_string(),
                n: entry.n,
                total_rows: entry.total_rows,
                file,
                method,
            });
        }
        let manifest = Manifest {
            generation,
            columns,
            wal_marks: catalog
                .wal_marks()
                .map(|(name, lsn)| (name.to_string(), lsn))
                .collect(),
        };
        self.storage.write_atomic(
            &self.path(&manifest_file(generation)),
            &manifest_to_bytes(&manifest),
        )?;
        // Read-back verification: before advancing CURRENT, every byte that
        // the new generation will serve from must re-read and re-validate
        // (checksums included). A torn or corrupted write surfaces *here* —
        // while the previous generation is still the committed one — so the
        // pointer never advances to a generation that cannot be loaded.
        self.verify_generation(generation)?;
        // The commit point.
        self.storage
            .write_atomic(&self.path(CURRENT_FILE), &current_to_bytes(generation))?;
        Ok(generation)
    }

    /// Re-reads and validates generation `generation` from storage: the
    /// manifest must parse and carry the expected generation number, and
    /// every synopsis file it references must pass its checksum and decode.
    fn verify_generation(&self, generation: u64) -> Result<()> {
        let mf = manifest_file(generation);
        let bytes = self.storage.read(&self.path(&mf))?;
        let manifest = manifest_from_bytes(&bytes, &mf)?;
        if manifest.generation != generation {
            return Err(SynopticError::CorruptSynopsis {
                context: mf,
                detail: format!(
                    "manifest read-back carries generation {} (expected {generation})",
                    manifest.generation
                ),
            });
        }
        for c in &manifest.columns {
            let bytes = self.storage.read(&self.path(&c.file))?;
            synopsis_from_bytes(&bytes, &c.file)?;
        }
        Ok(())
    }

    /// Strictly loads the committed generation: every synopsis must
    /// validate. Use [`Self::estimate`] for the fault-tolerant path.
    pub fn load(&self) -> Result<Catalog> {
        let m = self.effective_manifest()?;
        let mut cat = Catalog::new();
        for c in &m.columns {
            let bytes = self.storage.read(&self.path(&c.file))?;
            let synopsis = synopsis_from_bytes(&bytes, &c.file)?;
            cat.insert(
                c.name.clone(),
                ColumnEntry {
                    n: c.n,
                    total_rows: c.total_rows,
                    synopsis,
                },
            );
        }
        for (name, lsn) in &m.wal_marks {
            cat.set_wal_mark(name.clone(), *lsn);
        }
        Ok(cat)
    }

    // -- quarantine ----------------------------------------------------------

    /// Moves a damaged file into `quarantine/`, never deleting it. Collisions
    /// get a numeric suffix. Best-effort: failure to quarantine must not
    /// block the fallback chain.
    fn quarantine(&self, file: &str, quarantined: &mut Vec<String>) {
        let src = self.path(file);
        if !self.storage.exists(&src) {
            return;
        }
        let qdir = self.root.join(QUARANTINE_DIR);
        let mut dst = qdir.join(file);
        let mut k = 1;
        while self.storage.exists(&dst) {
            dst = qdir.join(format!("{file}.{k}"));
            k += 1;
        }
        if self.storage.rename(&src, &dst).is_ok() {
            quarantined.push(file.to_string());
        }
    }

    // -- degraded-mode answering ---------------------------------------------

    /// Loads an answering estimator for `column`, walking the fallback chain
    /// and reporting which link answered and the generation of the manifest
    /// it resolved. Corrupt files encountered are quarantined as a side
    /// effect.
    pub fn estimator(&self, column: &str) -> Result<(LoadedSynopsis, AnswerSource, u64)> {
        let m = self.effective_manifest()?;
        let c =
            m.columns.iter().find(|c| c.name == column).ok_or_else(|| {
                SynopticError::InvalidParameter(format!("unknown column '{column}'"))
            })?;

        let mut scrap = Vec::new();

        // Link 1: the current generation's synopsis.
        match self.try_load_synopsis(c) {
            Ok(l) => return Ok((l, AnswerSource::Primary, m.generation)),
            Err(_) => self.quarantine(&c.file, &mut scrap),
        }

        // Link 2: older generations, newest first.
        let mut gens = self.manifest_generations_on_disk()?;
        gens.retain(|&g| g < m.generation);
        gens.reverse();
        for g in gens {
            let Ok(old) = self.read_manifest(g) else {
                continue;
            };
            let Some(oc) = old.columns.iter().find(|oc| oc.name == column) else {
                continue;
            };
            match self.try_load_synopsis(oc) {
                Ok(l) => {
                    let source = AnswerSource::FallbackGeneration { generation: g };
                    return Ok((l, source, m.generation));
                }
                Err(_) => self.quarantine(&oc.file, &mut scrap),
            }
        }

        // Link 3: metadata-only NAIVE estimator. `n` was validated by the
        // manifest decoder (non-zero), so the division is safe.
        let avg = c.total_rows as f64 / c.n as f64;
        Ok((
            LoadedSynopsis::Naive(NaiveEstimatorShim::new(c.n, avg)),
            AnswerSource::FallbackNaive,
            m.generation,
        ))
    }

    fn try_load_synopsis(&self, c: &ManifestColumn) -> Result<LoadedSynopsis> {
        let bytes = self.storage.read(&self.path(&c.file))?;
        let s = synopsis_from_bytes(&bytes, &c.file)?;
        let l = s.load()?;
        if l.n() != c.n {
            return Err(SynopticError::CorruptSynopsis {
                context: c.file.clone(),
                detail: format!(
                    "synopsis domain size {} disagrees with manifest n = {}",
                    l.n(),
                    c.n
                ),
            });
        }
        Ok(l)
    }

    /// Estimates `column BETWEEN q.lo AND q.hi` through the fallback chain.
    /// The returned [`SourcedEstimate`] carries the provenance, so degraded
    /// answers are never silent.
    pub fn estimate(&self, column: &str, q: RangeQuery) -> Result<SourcedEstimate> {
        let (est, source, generation) = self.estimator(column)?;
        q.check_bounds(est.n())?;
        Ok(SourcedEstimate {
            value: est.estimate(q),
            source,
            generation,
        })
    }

    // -- fsck / repair -------------------------------------------------------

    /// Read-only consistency check of every file in the store.
    pub fn fsck(&self) -> Result<FsckReport> {
        let mut report = FsckReport::default();
        let names = self.storage.list(&self.root)?;

        // CURRENT pointer.
        let pointer = if self.storage.exists(&self.path(CURRENT_FILE)) {
            match self
                .storage
                .read(&self.path(CURRENT_FILE))
                .and_then(|b| current_from_bytes(&b, CURRENT_FILE))
            {
                Ok(g) => Some(g),
                Err(e) => {
                    report.issues.push(FsckIssue {
                        file: CURRENT_FILE.into(),
                        detail: e.to_string(),
                    });
                    None
                }
            }
        } else {
            if names.iter().any(|n| n.starts_with(MANIFEST_PREFIX)) {
                report.issues.push(FsckIssue {
                    file: CURRENT_FILE.into(),
                    detail: "missing while manifests exist".into(),
                });
            }
            None
        };

        // Manifests.
        let mut valid = Vec::new();
        for name in &names {
            let Some(g) = parse_manifest_generation(name) else {
                continue;
            };
            match self.read_manifest(g) {
                Ok(_) => valid.push(g),
                Err(e) => report.issues.push(FsckIssue {
                    file: name.clone(),
                    detail: e.to_string(),
                }),
            }
        }
        valid.sort_unstable();
        valid.reverse();
        if let Some(g) = pointer {
            if valid.contains(&g) {
                report.current_generation = Some(g);
            } else {
                report.issues.push(FsckIssue {
                    file: CURRENT_FILE.into(),
                    detail: format!("points at generation {g} with no valid manifest"),
                });
            }
        }
        report.valid_generations = valid;
        if let Some(cur) = report.current_generation {
            report.abandoned_generations = report
                .valid_generations
                .iter()
                .copied()
                .filter(|&g| g > cur)
                .collect();
            report.abandoned_generations.sort_unstable();
        }

        // Stray temp files from interrupted writes.
        for name in &names {
            if name.ends_with(".tmp") {
                report.issues.push(FsckIssue {
                    file: name.clone(),
                    detail: "stray temp file from an interrupted write".into(),
                });
            }
        }

        // Every synopsis file on disk must validate.
        for name in &names {
            if !name.ends_with(&format!(".{SYNOPSIS_EXT}")) {
                continue;
            }
            if let Err(e) = self
                .storage
                .read(&self.path(name))
                .and_then(|b| synopsis_from_bytes(&b, name).map(|_| ()))
            {
                report.issues.push(FsckIssue {
                    file: name.clone(),
                    detail: e.to_string(),
                });
            }
        }

        // Columns of the effective manifest.
        if let Ok(m) = self.effective_manifest() {
            report.columns_total = m.columns.len();
            for c in &m.columns {
                match self.try_load_synopsis(c) {
                    Ok(_) => report.columns_ok += 1,
                    Err(e) => report.issues.push(FsckIssue {
                        file: c.file.clone(),
                        detail: format!("column '{}': {e}", c.name),
                    }),
                }
            }
        }

        // Dedup (a corrupt synopsis may be reported by both sweeps).
        report.issues.sort_by(|a, b| {
            (a.file.as_str(), a.detail.as_str()).cmp(&(b.file.as_str(), b.detail.as_str()))
        });
        report.issues.dedup();
        Ok(report)
    }

    /// Repairs the store: quarantines corrupt or stray files and re-points
    /// `CURRENT` at the newest valid generation. Never deletes anything.
    pub fn repair(&self) -> Result<RepairReport> {
        let mut report = RepairReport::default();
        let names = self.storage.list(&self.root)?;

        // Quarantine stray temp files.
        for name in &names {
            if name.ends_with(".tmp") {
                self.quarantine(name, &mut report.quarantined);
            }
        }

        // Quarantine corrupt manifests; collect valid generations.
        let mut valid = Vec::new();
        for name in &names {
            let Some(g) = parse_manifest_generation(name) else {
                continue;
            };
            match self.read_manifest(g) {
                Ok(_) => valid.push(g),
                Err(_) => self.quarantine(name, &mut report.quarantined),
            }
        }
        valid.sort_unstable();

        // Quarantine corrupt synopsis files.
        for name in &names {
            if !name.ends_with(&format!(".{SYNOPSIS_EXT}")) {
                continue;
            }
            let bad = self
                .storage
                .read(&self.path(name))
                .and_then(|b| synopsis_from_bytes(&b, name).map(|_| ()))
                .is_err();
            if bad {
                self.quarantine(name, &mut report.quarantined);
            }
        }

        // Decide where CURRENT should point. Never roll *forward* past a
        // valid pointer — that would commit a transaction that never
        // committed. Roll *back* only when the pointed generation can no
        // longer serve every column from validated synopses.
        let serviceable = |g: u64| -> bool {
            self.read_manifest(g)
                .map(|m| m.columns.iter().all(|c| self.try_load_synopsis(c).is_ok()))
                .unwrap_or(false)
        };
        let pointer = self.current_pointer().filter(|g| valid.contains(g));
        let target = match pointer {
            Some(g) if serviceable(g) => Some(g),
            Some(g) => valid
                .iter()
                .rev()
                .copied()
                .find(|&v| v <= g && serviceable(v))
                // No serviceable generation at all: keep the pointer and let
                // reads degrade to metadata-only answers.
                .or(Some(g)),
            None => valid
                .iter()
                .rev()
                .copied()
                .find(|&v| serviceable(v))
                .or_else(|| valid.last().copied()),
        };
        report.current_generation = target;
        match target {
            Some(t) if pointer != Some(t) => {
                self.storage
                    .write_atomic(&self.path(CURRENT_FILE), &current_to_bytes(t))?;
                report.current_rewritten = true;
            }
            Some(_) => {}
            None => {
                // Nothing valid to point at; move any stale pointer aside.
                if self.storage.exists(&self.path(CURRENT_FILE)) {
                    self.quarantine(CURRENT_FILE, &mut report.quarantined);
                }
            }
        }
        Ok(report)
    }

    /// Deletes (or, with `dry_run`, merely reports) abandoned generations:
    /// manifests that validate but whose generation number exceeds the
    /// committed `CURRENT` pointer, plus the synopsis files they reference.
    /// These are leftovers of saves that crashed after writing their files
    /// but before the pointer swap — fully readable, never authoritative.
    ///
    /// Only *valid* uncommitted generations are touched; corrupt files stay
    /// on the quarantine path ([`Self::repair`]), which never deletes.
    /// Without a valid committed pointer nothing is provably abandoned and
    /// nothing is removed. Synopsis files go first and the manifest last,
    /// so an interrupted prune resumes cleanly on the next call.
    /// Idempotent: a second call finds nothing.
    pub fn prune_abandoned(&self, dry_run: bool) -> Result<PruneReport> {
        let mut report = PruneReport {
            deleted: !dry_run,
            ..Default::default()
        };
        let Some(current) = self.current_pointer() else {
            return Ok(report);
        };
        let mut gens: Vec<u64> = Vec::new();
        for name in self.storage.list(&self.root)? {
            let Some(g) = parse_manifest_generation(&name) else {
                continue;
            };
            if g > current && self.read_manifest(g).is_ok() {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        for &g in &gens {
            let m = self.read_manifest(g)?;
            for c in &m.columns {
                if self.storage.exists(&self.path(&c.file)) {
                    if !dry_run {
                        self.storage.remove(&self.path(&c.file))?;
                    }
                    report.files.push(c.file.clone());
                }
            }
            let mf = manifest_file(g);
            if !dry_run {
                self.storage.remove(&self.path(&mf))?;
            }
            report.files.push(mf);
        }
        report.abandoned_generations = gens;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::PersistentSynopsis;
    use crate::storage::{Fault, FaultyStorage, FsStorage};
    use synoptic_core::Budget;
    use synoptic_core::PrefixSums;
    use synoptic_hist::sap0::build_sap0_with_budget;

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("synoptic_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1];
        let ps = PrefixSums::from_values(&vals);
        let (h, _) = build_sap0_with_budget(&ps, 3, &Budget::unlimited()).unwrap();
        cat.insert(
            "price",
            ColumnEntry {
                n: vals.len(),
                total_rows: ps.total() as i64,
                synopsis: PersistentSynopsis::from_sap0(&h),
            },
        );
        cat
    }

    #[test]
    fn save_load_round_trip_and_generations() {
        let root = tmp_root("roundtrip");
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        let cat = sample_catalog();
        assert_eq!(store.save(&cat).unwrap(), 1);
        assert_eq!(store.save(&cat).unwrap(), 2);
        let back = store.load().unwrap();
        assert_eq!(back.names(), cat.names());
        for q in RangeQuery::all(12) {
            let e = store.estimate("price", q).unwrap();
            assert_eq!(e.source, AnswerSource::Primary);
            let expect = cat.estimate("price", q).unwrap();
            assert!(
                (e.value - expect).abs() < 1e-9,
                "{q:?}: {} vs {expect}",
                e.value
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_before_current_swap_preserves_previous_generation() {
        let root = tmp_root("crash");
        {
            let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
            store.save(&sample_catalog()).unwrap();
        }
        // Gen 2 commit crashes at the CURRENT swap (write #3 of the save).
        let faulty = FaultyStorage::new(
            FsStorage::new(),
            vec![
                Fault::CleanWrite,
                Fault::CleanWrite,
                Fault::CrashBeforeRename,
            ],
        );
        let store = DurableCatalog::open(&root, faulty).unwrap();
        assert!(store.save(&sample_catalog()).is_err());
        assert_eq!(store.storage().faults_fired(), 1);
        // The store still serves generation 1 as primary.
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        let m = store.effective_manifest().unwrap();
        assert_eq!(m.generation, 1);
        let e = store
            .estimate("price", RangeQuery { lo: 2, hi: 5 })
            .unwrap();
        assert_eq!(e.source, AnswerSource::Primary);
        // Repair sweeps the stray CURRENT.tmp left by the crash.
        let r = store.repair().unwrap();
        assert!(r.quarantined.iter().any(|f| f.ends_with(".tmp")), "{r:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_primary_falls_back_to_older_generation_and_quarantines() {
        let root = tmp_root("fallbackgen");
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        store.save(&sample_catalog()).unwrap();
        store.save(&sample_catalog()).unwrap();
        // Flip one payload byte of the generation-2 synopsis on disk.
        let victim = root.join("price-2.syn");
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&victim, bytes).unwrap();

        let q = RangeQuery { lo: 0, hi: 11 };
        let e = store.estimate("price", q).unwrap();
        assert_eq!(e.source, AnswerSource::FallbackGeneration { generation: 1 });
        let expect = sample_catalog().estimate("price", q).unwrap();
        assert!((e.value - expect).abs() < 1e-9);
        // The corrupt file was moved aside, not deleted.
        assert!(!victim.exists());
        assert!(root.join(QUARANTINE_DIR).join("price-2.syn").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn all_copies_corrupt_falls_back_to_naive_metadata() {
        let root = tmp_root("fallbacknaive");
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        let cat = sample_catalog();
        store.save(&cat).unwrap();
        store.save(&cat).unwrap();
        for g in [1u64, 2] {
            let p = root.join(format!("price-{g}.syn"));
            let mut b = std::fs::read(&p).unwrap();
            let last = b.len() - 1;
            b[last] ^= 0x01;
            std::fs::write(&p, b).unwrap();
        }
        let q = RangeQuery { lo: 0, hi: 11 };
        let e = store.estimate("price", q).unwrap();
        assert_eq!(e.source, AnswerSource::FallbackNaive);
        assert!(e.source.is_degraded());
        // total_rows = 65 over n = 12; whole-domain estimate is exact.
        assert!((e.value - 65.0).abs() < 1e-9, "{}", e.value);
        // Strict load refuses outright rather than serving garbage.
        assert!(store.load().is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_current_pointer_recovers_by_scanning_manifests() {
        let root = tmp_root("badcurrent");
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        store.save(&sample_catalog()).unwrap();
        store.save(&sample_catalog()).unwrap();
        let cur = root.join(CURRENT_FILE);
        let mut b = std::fs::read(&cur).unwrap();
        b[5] ^= 0xFF;
        std::fs::write(&cur, b).unwrap();
        // Scanning finds generation 2 without the pointer.
        assert_eq!(store.effective_manifest().unwrap().generation, 2);
        // Repair rewrites CURRENT.
        let r = store.repair().unwrap();
        assert!(r.current_rewritten);
        assert_eq!(r.current_generation, Some(2));
        assert!(store.fsck().unwrap().healthy());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_reports_and_repair_clears_every_issue() {
        let root = tmp_root("fsck");
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        store.save(&sample_catalog()).unwrap();
        store.save(&sample_catalog()).unwrap();
        // Clean store: healthy.
        assert!(store.fsck().unwrap().healthy());
        // Damage: truncate the gen-2 synopsis, corrupt the gen-1 manifest,
        // drop a stray temp file.
        let syn = root.join("price-2.syn");
        let b = std::fs::read(&syn).unwrap();
        std::fs::write(&syn, &b[..b.len() / 2]).unwrap();
        let man = root.join(manifest_file(1));
        let mut mb = std::fs::read(&man).unwrap();
        mb[30] ^= 0x08;
        std::fs::write(&man, mb).unwrap();
        std::fs::write(root.join("junk.tmp"), b"partial").unwrap();

        let rep = store.fsck().unwrap();
        assert!(!rep.healthy());
        assert_eq!(rep.columns_total, 1);
        assert_eq!(rep.columns_ok, 0);
        let files: Vec<&str> = rep.issues.iter().map(|i| i.file.as_str()).collect();
        assert!(files.contains(&"price-2.syn"), "{files:?}");
        assert!(files.contains(&"MANIFEST-1"), "{files:?}");
        assert!(files.contains(&"junk.tmp"), "{files:?}");
        let rendered = rep.render();
        assert!(rendered.contains("issue:"), "{rendered}");

        let r = store.repair().unwrap();
        assert!(r.quarantined.len() >= 3, "{r:?}");
        // After repair the only valid generation is 2, whose synopsis was
        // quarantined — CURRENT still points at it (manifest is valid), and
        // estimates degrade to naive rather than failing.
        let e = store
            .estimate("price", RangeQuery { lo: 0, hi: 11 })
            .unwrap();
        assert_eq!(e.source, AnswerSource::FallbackNaive);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_column_is_a_parameter_error_not_a_fallback() {
        let root = tmp_root("unknown");
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        store.save(&sample_catalog()).unwrap();
        assert!(matches!(
            store.estimate("nope", RangeQuery::point(0)),
            Err(SynopticError::InvalidParameter(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_synopsis_write_fails_save_before_current_advances() {
        // Read-back verification: a torn synopsis write (silent at write
        // time — the bytes land, just short) must be caught by save()'s
        // pre-commit read-back, so CURRENT never points at the bad
        // generation.
        let root = tmp_root("tornsave");
        {
            let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
            store.save(&sample_catalog()).unwrap();
        }
        let faulty = FaultyStorage::new(FsStorage::new(), vec![Fault::TornWrite { keep: 10 }]);
        let store = DurableCatalog::open(&root, faulty).unwrap();
        let err = store.save(&sample_catalog()).unwrap_err();
        assert!(
            matches!(err, SynopticError::CorruptSynopsis { .. }),
            "{err:?}"
        );
        assert_eq!(store.storage().faults_fired(), 1);
        // The committed pointer still names generation 1, which loads fine.
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        assert_eq!(store.effective_manifest().unwrap().generation, 1);
        assert!(store.load().is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wal_marks_survive_save_and_load() {
        let root = tmp_root("walmarks");
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        let mut cat = sample_catalog();
        cat.set_wal_mark("price", 37);
        store.save(&cat).unwrap();
        let back = store.load().unwrap();
        assert_eq!(back.wal_mark("price"), 37);
        assert_eq!(back.wal_mark("other"), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_reports_and_prune_reclaims_abandoned_generation() {
        // Crash a gen-2 save at the CURRENT swap: synopses + manifest for
        // generation 2 are valid on disk but were never committed.
        let root = tmp_root("prune");
        {
            let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
            store.save(&sample_catalog()).unwrap();
        }
        let faulty = FaultyStorage::new(
            FsStorage::new(),
            vec![
                Fault::CleanWrite,
                Fault::CleanWrite,
                Fault::CrashBeforeRename,
            ],
        );
        let store = DurableCatalog::open(&root, faulty).unwrap();
        assert!(store.save(&sample_catalog()).is_err());
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        // Sweep the stray CURRENT.tmp the crash left behind.
        store.repair().unwrap();

        let rep = store.fsck().unwrap();
        assert_eq!(rep.current_generation, Some(1));
        assert_eq!(rep.abandoned_generations, vec![2]);
        // Abandoned is dead weight, not corruption.
        assert!(rep.healthy(), "{:?}", rep.issues);
        assert!(rep.render().contains("abandoned"), "{}", rep.render());

        // A dry run reports the same files but deletes nothing.
        let dry = store.prune_abandoned(true).unwrap();
        assert_eq!(dry.abandoned_generations, vec![2]);
        assert!(!dry.deleted);
        assert!(dry.render().contains("dry run"), "{}", dry.render());
        assert!(root.join("MANIFEST-2").exists());
        assert!(root.join("price-2.syn").exists());

        // A real prune deletes both files of generation 2, is idempotent,
        // and leaves the committed generation serving as primary.
        let p = store.prune_abandoned(false).unwrap();
        assert_eq!(p.abandoned_generations, vec![2]);
        assert!(p.deleted);
        assert!(
            p.files.contains(&"price-2.syn".to_string())
                && p.files.contains(&"MANIFEST-2".to_string()),
            "{:?}",
            p.files
        );
        assert!(!root.join("MANIFEST-2").exists());
        assert!(!root.join("price-2.syn").exists());
        let again = store.prune_abandoned(false).unwrap();
        assert!(again.abandoned_generations.is_empty());
        let e = store
            .estimate("price", RangeQuery { lo: 0, hi: 11 })
            .unwrap();
        assert_eq!(e.source, AnswerSource::Primary);
        assert!(store.fsck().unwrap().healthy());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn prune_without_committed_pointer_removes_nothing() {
        // A store whose only save crashed at the pointer swap has a valid
        // generation-1 manifest and no CURRENT: nothing is provably
        // abandoned, so prune must not destroy the only copy of the data.
        let root = tmp_root("prunenocur");
        let faulty = FaultyStorage::new(
            FsStorage::new(),
            vec![
                Fault::CleanWrite,
                Fault::CleanWrite,
                Fault::CrashBeforeRename,
            ],
        );
        let store = DurableCatalog::open(&root, faulty).unwrap();
        assert!(store.save(&sample_catalog()).is_err());
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        let p = store.prune_abandoned(false).unwrap();
        assert!(p.abandoned_generations.is_empty());
        assert!(p.files.is_empty());
        assert!(root.join("MANIFEST-1").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn enospc_during_save_leaves_store_consistent() {
        let root = tmp_root("enospc");
        {
            let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
            store.save(&sample_catalog()).unwrap();
        }
        let faulty = FaultyStorage::new(FsStorage::new(), vec![Fault::Enospc]);
        let store = DurableCatalog::open(&root, faulty).unwrap();
        assert!(store.save(&sample_catalog()).is_err());
        let store = DurableCatalog::open(&root, FsStorage::new()).unwrap();
        assert_eq!(store.effective_manifest().unwrap().generation, 1);
        assert!(store.fsck().unwrap().healthy());
        let _ = std::fs::remove_dir_all(&root);
    }
}
