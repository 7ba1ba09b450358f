//! The `charge`-batching knob trades cancellation latency for lower
//! checkpoint overhead — and must trade *nothing else*. This sweep pins
//! the contract: on unconstrained builds (no deadline, no cell cap, no
//! cancellation), every batch setting produces bit-identical synopses,
//! because batching only changes how often constraints are *evaluated*,
//! never what work is metered or built. The scenario runs on a one-worker
//! pool column that waits for each scheduled rebuild before the next
//! update, so every batch setting sees the same rebuild cuts.

use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, Result};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_stream::{ColumnBuild, MaintainedPool, RebuildConfig, RebuildPolicy};

const N: usize = 64;

fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 3 + (i * 11) % 37).collect()
}

fn stream(len: usize) -> Vec<(usize, i64)> {
    let mut s = 0x0601_u64;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let i = (s % N as u64) as usize;
        let d = ((s >> 32) % 11) as i64 - 5;
        out.push((i, if d == 0 { 3 } else { d }));
    }
    out
}

fn builder() -> impl FnMut(&[i64], &PrefixSums, &Budget) -> Result<Box<dyn RangeEstimator>> {
    |_vals: &[i64], ps: &PrefixSums, budget: &Budget| {
        Ok(Box::new(build_sap0_with_budget(ps, 8, budget)?) as Box<dyn RangeEstimator>)
    }
}

/// Runs the same maintenance scenario at one batch setting and returns
/// every queryable bit: per-query estimate bit patterns plus rebuild
/// counts.
fn run_at_batch(batch: u64) -> (Vec<u64>, u64) {
    let values = initial_values();
    let config = RebuildConfig::new(RebuildPolicy::EveryKUpdates(7)).with_charge_batch(batch);
    let pool = MaintainedPool::new(1);
    let mh = pool
        .add_column(
            "c",
            &values,
            ColumnBuild::Custom(Box::new(builder())),
            config,
        )
        .unwrap();
    for (i, d) in stream(96) {
        if mh.update(i, d).unwrap() {
            mh.quiesce();
        }
    }
    let mut bits = Vec::new();
    for lo in (0..N).step_by(5) {
        for hi in (lo..N).step_by(7) {
            let q = RangeQuery::new(lo, hi).unwrap();
            bits.push(mh.estimator().estimate(q).to_bits());
        }
    }
    (bits, mh.stats().rebuilds)
}

/// Unconstrained builds are bit-identical at every batch setting,
/// including the degenerate 0 (normalized to 1) and a batch far larger
/// than the total checkpoint count.
#[test]
fn charge_batch_sweep_is_bit_identical_on_unconstrained_builds() {
    let (baseline_bits, baseline_rebuilds) = run_at_batch(1);
    assert!(baseline_rebuilds >= 10, "scenario must actually rebuild");
    for batch in [0, 2, 4, 64, 1024, u64::MAX] {
        let (bits, rebuilds) = run_at_batch(batch);
        assert_eq!(
            bits, baseline_bits,
            "batch {batch} must not change a single output bit"
        );
        assert_eq!(rebuilds, baseline_rebuilds, "batch {batch}");
    }
}
