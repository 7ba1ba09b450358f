//! Lease-based leader election, fencing terms, and follower re-seed.
//!
//! Replication (PR 6) made a follower converge or refuse loudly; this
//! module makes failover *automatic*. The design is deliberately the
//! smallest thing that is safe for a primary/backup pair, not a
//! consensus protocol:
//!
//! * **Terms** are monotonic epoch counters persisted in the catalog
//!   manifest's WAL-marks section ([`synoptic_catalog::ELECTION_TERM_KEY`])
//!   — the same atomically-swapped generation machinery that protects
//!   synopses protects the term, so a crash can never roll a term back.
//! * **Leases** are heartbeat-renewed: a follower tracks the last tick a
//!   current-term heartbeat arrived and considers the leader dead once
//!   `ttl` ticks pass in silence. Time is an injected [`Clock`] —
//!   [`ManualClock`] in tests (fully deterministic, no wall-clock) and
//!   [`WallClock`] in the CLI.
//! * **Fencing**: every wire frame carries its sender's term. A receiver
//!   on a newer term refuses the frame with its own term in the refusal;
//!   the sender's shipper turns that into
//!   [`SynopticError::StaleLeaderTerm`]. A deposed leader cannot write —
//!   not because it promises to stop, but because every follower refuses
//!   it with provenance.
//! * **Promotion** is follower-driven and reuses the proven `recover`
//!   path: when the lease expires, the follower recovers its own catalog
//!   plus journal (exactly the crash path tested by the promotion
//!   sweep), claims `term + 1`, and starts serving.
//! * **Re-seed** ([`Seeder`]) brings a stranded node back: a fenced
//!   ex-leader receives each column's committed frequency snapshot
//!   ([`crate::wire::Frame::Snapshot`]) plus the journal tail as ordinary
//!   segments, and rejoins as a follower.
//!
//! Safety argument (two nodes, one link): at most one node holds a valid
//! lease per term because a term is only ever claimed by the single node
//! that observed the previous lease expire, and every claim is granted at
//! most once — the grant is persisted (term + vote) before the `Grant`
//! frame is sent, so even a crash-and-restart cannot double-grant. An
//! ex-leader that never observed the new term keeps writing under its old
//! term and every such write is refused.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use synoptic_catalog::storage::Storage;
use synoptic_catalog::store::DurableCatalog;
use synoptic_core::{Result, SynopticError};

use crate::ship::ship_journals;
use crate::transport::{Received, Transport};
use crate::wire::{decode_frame, encode_frame, Frame};

/// A source of monotonic ticks. Lease arithmetic never touches the wall
/// clock directly — tests inject a [`ManualClock`] and advance it
/// explicitly, so every timeout path is deterministic.
pub trait Clock: Send + Sync {
    /// The current tick. Units are the caller's choice (tests use
    /// abstract ticks, the CLI uses milliseconds); only differences are
    /// ever computed.
    fn now(&self) -> u64;
}

/// A hand-advanced clock for deterministic tests. Clones share the same
/// underlying tick counter.
#[derive(Clone, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances by one tick.
    pub fn tick(&self) {
        self.advance(1);
    }

    /// Advances by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.0.fetch_add(ticks, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Milliseconds since the clock was created — the production clock behind
/// `synoptic follow --auto-promote`.
pub struct WallClock(std::time::Instant);

impl WallClock {
    /// A clock whose tick 0 is now.
    pub fn new() -> Self {
        Self(std::time::Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// Follower-side lease bookkeeping: when did the leader last prove it was
/// alive, and has the lease expired?
#[derive(Debug, Clone)]
pub struct LeaseTracker {
    ttl: u64,
    renewed_at: u64,
}

impl LeaseTracker {
    /// Arms a lease of `ttl` ticks, treating `now` as the first renewal —
    /// a leader that never heartbeats at all still expires.
    pub fn arm(ttl: u64, now: u64) -> Self {
        Self {
            ttl,
            renewed_at: now,
        }
    }

    /// Records a heartbeat (of a current-or-newer term) at `now`.
    pub fn renew(&mut self, now: u64) {
        self.renewed_at = self.renewed_at.max(now);
    }

    /// Whether more than `ttl` ticks have passed since the last renewal.
    pub fn expired(&self, now: u64) -> bool {
        now.saturating_sub(self.renewed_at) > self.ttl
    }

    /// Ticks left before expiry (0 when already expired).
    pub fn remaining(&self, now: u64) -> u64 {
        (self.renewed_at + self.ttl).saturating_sub(now)
    }
}

/// Durable term/vote state, persisted through a [`DurableCatalog`]'s
/// manifest generations. Opening the ledger on a node's catalog root
/// reads whatever term that node last committed; [`TermLedger::claim`]
/// persists a newer term before it takes effect.
pub struct TermLedger<S: Storage> {
    store: DurableCatalog<S>,
}

impl<S: Storage> TermLedger<S> {
    /// Opens the ledger over a catalog root.
    pub fn open(root: impl Into<PathBuf>, storage: S) -> Result<Self> {
        Ok(Self {
            store: DurableCatalog::open(root, storage)?,
        })
    }

    /// The committed `(term, vote)` pair. Term 0 with no vote means the
    /// node has never participated in an election.
    pub fn current(&self) -> Result<(u64, Option<u64>)> {
        let cat = self.store.load()?;
        Ok((cat.election_term(), cat.election_vote()))
    }

    /// Persists `node`'s claim on `term`. Refuses (with provenance) a
    /// term at or below the committed one unless the committed vote
    /// already names `node` — terms are monotonic and granted at most
    /// once, which is the whole single-leaseholder argument.
    pub fn claim(&self, term: u64, node: u64) -> Result<u64> {
        let mut cat = self.store.load()?;
        let committed = cat.election_term();
        if term < committed || (term == committed && cat.election_vote() != Some(node)) {
            return Err(SynopticError::StaleLeaderTerm {
                stale_term: term,
                current_term: committed,
            });
        }
        cat.set_election_term(term);
        cat.set_election_vote(node);
        self.store.save(&cat)
    }
}

/// What one [`Seeder::seed`] call transferred.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeedReport {
    /// Columns whose committed frequency snapshot was transferred.
    pub snapshots: usize,
    /// Journal segments shipped after the snapshots.
    pub segments: usize,
    /// The term the receiver granted.
    pub term: u64,
}

/// The sending half of the re-seed path: the *current* leader streams its
/// committed state to a node that cannot catch up from segments alone (a
/// fenced ex-leader).
///
/// Protocol, over one [`Transport`]:
///
/// 1. [`Frame::Claim`] announces the leader's term; the receiver persists
///    its grant and answers [`Frame::Grant`] (or refuses — a refusal on a
///    newer term fences *this* leader too).
/// 2. One [`Frame::Snapshot`] per committed frequency column (values +
///    WAL mark), each acknowledged.
/// 3. The journal tail past each mark ships as ordinary segments through
///    the term-stamped [`ship_journals`] fan-in.
pub struct Seeder<S: Storage + Clone> {
    storage: S,
    catalog_root: PathBuf,
    wal_dir: PathBuf,
    term: u64,
    node: u64,
    timeout: Duration,
}

impl<S: Storage + Clone> Seeder<S> {
    /// A seeder for the leader state under `catalog_root` + `wal_dir`,
    /// announcing `term` held by `node`.
    pub fn new(
        storage: S,
        catalog_root: impl Into<PathBuf>,
        wal_dir: impl Into<PathBuf>,
        term: u64,
        node: u64,
    ) -> Self {
        Self {
            storage,
            catalog_root: catalog_root.into(),
            wal_dir: wal_dir.into(),
            term,
            node,
            timeout: Duration::from_millis(500),
        }
    }

    /// Sets how long each step waits for the receiver's response.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn diverged(&self, detail: impl Into<String>) -> SynopticError {
        SynopticError::ReplicationDivergence {
            context: "reseed".to_string(),
            detail: detail.into(),
        }
    }

    /// One response frame, with timeouts and link closure loud.
    fn expect_frame(&self, transport: &mut dyn Transport, what: &str) -> Result<Frame> {
        match transport.recv(Some(self.timeout))? {
            Received::Frame(bytes) => decode_frame(&bytes),
            Received::TimedOut => {
                Err(self.diverged(format!("receiver went quiet waiting for {what}")))
            }
            Received::Closed => {
                Err(self.diverged(format!("receiver closed the link waiting for {what}")))
            }
        }
    }

    /// Runs the full re-seed transfer. On success the receiver holds the
    /// committed snapshots, the granted term, and the journal tail — it
    /// rejoins as a follower via `synoptic_stream`'s rejoin path.
    pub fn seed(&self, transport: &mut dyn Transport) -> Result<SeedReport> {
        let mut report = SeedReport {
            term: self.term,
            ..SeedReport::default()
        };
        transport.send(&encode_frame(&Frame::Claim {
            term: self.term,
            node: self.node,
        }))?;
        match self.expect_frame(transport, "the term grant")? {
            Frame::Grant { term, node } if term == self.term && node == self.node => {}
            Frame::Refuse { term, reason, .. } => {
                if term > self.term {
                    return Err(SynopticError::StaleLeaderTerm {
                        stale_term: self.term,
                        current_term: term,
                    });
                }
                return Err(self.diverged(format!("claim refused: {reason}")));
            }
            other => return Err(self.diverged(format!("expected a grant, got {other:?}"))),
        }

        // Committed snapshots, one per frequency column.
        let store = DurableCatalog::open(&self.catalog_root, self.storage.clone())?;
        let cat = store.load()?;
        for (name, entry) in cat.iter() {
            let Some(values) = entry
                .synopsis
                .load()
                .ok()
                .and_then(|l| l.exact_frequencies().map(<[i64]>::to_vec))
            else {
                continue; // summary-only columns are rebuilt, not seeded
            };
            let mark = cat.wal_mark(name);
            transport.send(&encode_frame(&Frame::Snapshot {
                term: self.term,
                column: name.to_string(),
                mark,
                values,
            }))?;
            match self.expect_frame(transport, "a snapshot ack")? {
                Frame::Ack { column, .. } if column == name => {}
                Frame::Refuse { term, reason, .. } => {
                    if term > self.term {
                        return Err(SynopticError::StaleLeaderTerm {
                            stale_term: self.term,
                            current_term: term,
                        });
                    }
                    return Err(self.diverged(format!("snapshot refused: {reason}")));
                }
                other => return Err(self.diverged(format!("expected an ack, got {other:?}"))),
            }
            report.snapshots += 1;
        }

        // The journal tail past each mark, as ordinary term-stamped
        // segment shipping.
        for (_, ship) in ship_journals(&self.storage, &self.wal_dir, self.term, None, transport)? {
            report.segments += ship.shipped;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_catalog::storage::FsStorage;
    use synoptic_catalog::Catalog;

    #[test]
    fn manual_clock_is_shared_across_clones() {
        let clock = ManualClock::new();
        let other = clock.clone();
        assert_eq!(clock.now(), 0);
        other.advance(3);
        clock.tick();
        assert_eq!(clock.now(), 4);
        assert_eq!(other.now(), 4);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let clock = WallClock::new();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(clock.now() >= a);
    }

    #[test]
    fn lease_expires_only_after_ttl_ticks_of_silence() {
        let mut lease = LeaseTracker::arm(10, 100);
        assert!(!lease.expired(110), "exactly ttl is still alive");
        assert_eq!(lease.remaining(105), 5);
        assert!(lease.expired(111));
        lease.renew(111);
        assert!(!lease.expired(121));
        assert!(lease.expired(122));
        // Renewals never move backwards.
        lease.renew(50);
        assert!(!lease.expired(121));
    }

    fn ledger_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("synoptic_election_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn seed_catalog(root: &PathBuf) {
        let store = DurableCatalog::open(root, FsStorage::new()).unwrap();
        let mut cat = Catalog::new();
        cat.insert_exact("c", &[1, 2, 3, 4], 0).unwrap();
        store.save(&cat).unwrap();
    }

    #[test]
    fn term_ledger_is_monotonic_and_grants_once() {
        let d = ledger_dir("ledger");
        seed_catalog(&d);
        let ledger = TermLedger::open(&d, FsStorage::new()).unwrap();
        assert_eq!(ledger.current().unwrap(), (0, None));
        ledger.claim(3, 11).unwrap();
        assert_eq!(ledger.current().unwrap(), (3, Some(11)));
        // Re-claiming the same term for the same node is idempotent.
        ledger.claim(3, 11).unwrap();
        // A different node cannot take an already-granted term…
        let err = ledger.claim(3, 99).unwrap_err();
        assert_eq!(
            err,
            SynopticError::StaleLeaderTerm {
                stale_term: 3,
                current_term: 3
            }
        );
        // …and a lower term is fenced outright.
        assert!(ledger.claim(2, 11).is_err());
        // The claim survives reopen: it was a manifest generation.
        drop(ledger);
        let reopened = TermLedger::open(&d, FsStorage::new()).unwrap();
        assert_eq!(reopened.current().unwrap(), (3, Some(11)));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn election_term_rides_the_catalog_untouched_by_column_saves() {
        let d = ledger_dir("coexist");
        seed_catalog(&d);
        let ledger = TermLedger::open(&d, FsStorage::new()).unwrap();
        ledger.claim(5, 1).unwrap();
        // A routine catalog save that edits columns (and knows nothing of
        // elections) must carry the term forward.
        let store = DurableCatalog::open(&d, FsStorage::new()).unwrap();
        let mut cat = store.load().unwrap();
        cat.set_wal_mark("c", 42);
        store.save(&cat).unwrap();
        assert_eq!(ledger.current().unwrap(), (5, Some(1)));
        assert_eq!(store.load().unwrap().wal_mark("c"), 42);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn seeder_is_fenced_by_a_newer_term_refusal() {
        let d = ledger_dir("seedfence");
        seed_catalog(&d);
        let (mut leader_end, mut other_end) = crate::transport::MemTransport::pair();
        let peer = std::thread::spawn(move || {
            match other_end.recv(None).unwrap() {
                Received::Frame(bytes) => {
                    assert!(matches!(decode_frame(&bytes).unwrap(), Frame::Claim { .. }));
                    other_end
                        .send(&encode_frame(&Frame::Refuse {
                            term: 9,
                            column: String::new(),
                            applied_lsn: 0,
                            reason: "fenced".into(),
                        }))
                        .unwrap();
                }
                other => panic!("{other:?}"),
            }
            other_end.recv(None).unwrap() // drain until close
        });
        let seeder = Seeder::new(FsStorage::new(), &d, d.join("wal"), 4, 1);
        let err = seeder.seed(&mut leader_end).unwrap_err();
        assert_eq!(
            err,
            SynopticError::StaleLeaderTerm {
                stale_term: 4,
                current_term: 9
            }
        );
        leader_end.close();
        peer.join().unwrap();
        let _ = std::fs::remove_dir_all(&d);
    }
}
