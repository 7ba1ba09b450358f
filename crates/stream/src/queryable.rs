//! [`Queryable`] implementations for the stream tier's two answerers, so
//! maintained pool columns and replication followers expose the same
//! provenance-carrying estimate surface as the durable catalog and the
//! network client.

use synoptic_api::{AnswerEnvelope, Queryable};
use synoptic_core::{AnswerSource, RangeQuery, Result, SynopticError};

use crate::follow::Follower;
use crate::pool::ColumnHandle;

/// A pool column answers for its own name only. The envelope's
/// generation is the hot-swap serving generation, its lag the updates
/// applied since the last successful rebuild, and the build provenance
/// (monolithic and per-segment) rides along — nothing the handle knows
/// is dropped.
impl Queryable for ColumnHandle {
    fn query(&self, column: &str, q: RangeQuery) -> Result<AnswerEnvelope> {
        if column != self.name() {
            return Err(SynopticError::InvalidParameter(format!(
                "unknown column {column:?} (this handle serves {:?})",
                self.name()
            )));
        }
        // One pinned read gives (generation, snapshot) atomically: a
        // hot-swap landing between two separate loads would stamp the
        // NEW generation onto a value computed from the OLD snapshot —
        // provenance that lies. The serving tier pins the same way.
        let mut reader = self.reader();
        let (generation, snapshot) = reader.pinned();
        if q.hi >= snapshot.n() {
            return Err(SynopticError::IndexOutOfBounds {
                index: q.hi,
                n: snapshot.n(),
            });
        }
        Ok(AnswerEnvelope {
            value: snapshot.estimate(q),
            source: AnswerSource::Primary,
            generation,
            lag: self.stats().updates_since_rebuild,
            outcome: self.last_outcome(),
            segment_outcomes: self.segment_outcomes(),
        })
    }
}

/// A replication follower answers within its configured lag bound or
/// refuses ([`SynopticError::ReplicationLagExceeded`]) — the refusal
/// carries the same provenance the envelope would. The envelope's
/// generation is the applied LSN (the follower's publication counter)
/// and its lag the records it trails the leader by.
impl Queryable for Follower {
    fn query(&self, column: &str, q: RangeQuery) -> Result<AnswerEnvelope> {
        let value = self.estimate(column, q)?;
        let generation = self.applied_lsn(column).unwrap_or(0);
        let lag = self.lag(column).unwrap_or(0);
        Ok(AnswerEnvelope {
            value,
            source: AnswerSource::Primary,
            generation,
            lag,
            outcome: None,
            segment_outcomes: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintained::{RebuildConfig, RebuildPolicy};
    use crate::pool::{ColumnBuild, MaintainedPool};
    use synoptic_core::{Budget, PrefixSums, RangeEstimator};
    use synoptic_hist::sap0::build_sap0_with_budget;

    fn sap0_build() -> ColumnBuild {
        ColumnBuild::Custom(Box::new(|_v: &[i64], ps: &PrefixSums, b: &Budget| {
            Ok(Box::new(build_sap0_with_budget(ps, 3, b)?.0) as Box<dyn RangeEstimator>)
        }))
    }

    #[test]
    fn pool_column_envelope_carries_generation_and_lag() {
        let pool = MaintainedPool::new(1);
        let col = pool
            .add_column(
                "price",
                &[10i64; 16],
                sap0_build(),
                RebuildConfig::new(RebuildPolicy::Manual),
            )
            .unwrap();
        let env = col.query("price", RangeQuery::new(0, 15).unwrap()).unwrap();
        assert_eq!(env.generation, 0);
        assert_eq!(env.lag, 0);
        assert_eq!(env.source, AnswerSource::Primary);

        col.update(3, 5).unwrap();
        col.update(4, 5).unwrap();
        let env = col.query("price", RangeQuery::point(3)).unwrap();
        assert_eq!(env.lag, 2, "applied-but-not-rebuilt updates are the lag");

        col.request_rebuild().unwrap();
        col.quiesce();
        let env = col.query("price", RangeQuery::point(3)).unwrap();
        assert_eq!(env.generation, 1, "the rebuild's swap is visible");
        assert_eq!(env.lag, 0);

        // Wrong name and out-of-bounds ranges refuse loudly.
        assert!(col.query("ghost", RangeQuery::point(0)).is_err());
        assert!(matches!(
            col.query("price", RangeQuery::new(0, 16).unwrap()),
            Err(SynopticError::IndexOutOfBounds { index: 16, n: 16 })
        ));
        drop(pool);
    }
}
