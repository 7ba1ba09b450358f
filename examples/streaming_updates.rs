//! Keeping synopses fresh under a live update feed.
//!
//! An ingest pipeline applies point updates (`A[i] += δ`) while the
//! optimizer keeps answering from its synopsis. This example contrasts:
//!
//! * a **stale** histogram (built once, never refreshed),
//! * a **policy-maintained** histogram (rebuilt when drift exceeds 5% of
//!   the table), and
//! * the **streaming wavelet** transforms, whose coefficients are updated
//!   in O(log n) per change so a snapshot is always exactly up to date.
//!
//! Run with: `cargo run --release --example streaming_updates`

use synoptic::core::rng::Rng;
use synoptic::core::sse::sse_brute;
use synoptic::data::zipf::{paper_dataset, ZipfConfig};
use synoptic::prelude::*;
use synoptic::stream::{ColumnBuild, MaintainedPool, RebuildConfig, RebuildPolicy};
use synoptic::wavelet::StreamingRangeOptimal;

fn main() -> Result<()> {
    let data = paper_dataset(&ZipfConfig {
        n: 64,
        ..ZipfConfig::default()
    });
    let mut live = data.values().to_vec();
    println!("column: n = {}, initial rows = {}", data.n(), data.total());

    // Stale snapshot, built once.
    let (stale, _) =
        synoptic::hist::sap0::build_sap0_with_budget(&data.prefix_sums(), 8, &Budget::unlimited())?;

    // Policy-maintained histogram: rebuild at 5% drift, on one background
    // maintenance worker.
    let pool = MaintainedPool::new(1);
    let maintained = pool.add_column(
        "column",
        data.values(),
        ColumnBuild::Custom(Box::new(
            |_vals: &[i64], ps: &PrefixSums, budget: &synoptic::core::Budget| {
                Ok(
                    Box::new(synoptic::hist::sap0::build_sap0_with_budget(ps, 8, budget)?.0)
                        as Box<dyn RangeEstimator>,
                )
            },
        )),
        RebuildConfig::new(RebuildPolicy::DriftFraction(0.05)),
    )?;

    // Streaming wavelet transforms (always exact coefficients).
    let mut streaming = StreamingRangeOptimal::new(data.values())?;

    // A bursty update feed: inserts concentrated on a hot region.
    let mut rng = Rng::new(99);
    let updates = 3000usize;
    for _ in 0..updates {
        let i = if rng.f64() < 0.7 {
            rng.usize_in(40, 56) // hot region
        } else {
            rng.usize_in(0, 64)
        };
        let delta = rng.i64_in(1, 3);
        live[i] += delta;
        if maintained.update(i, delta)? {
            maintained.quiesce(); // let the rebuild land before the next update
        }
        streaming.update(i, delta)?;
    }

    let ps_now = PrefixSums::from_values(&live);
    println!(
        "after {updates} inserts: rows = {}, rebuilds = {}",
        ps_now.total(),
        maintained.stats().rebuilds
    );

    let (fresh, _) =
        synoptic::hist::sap0::build_sap0_with_budget(&ps_now, 8, &Budget::unlimited())?;
    let snap = streaming.snapshot(12);
    println!("\nall-ranges SSE against the *current* data:");
    println!(
        "  {:<26} {:>14.4e}",
        "stale SAP0 (never rebuilt)",
        sse_brute(&stale, &ps_now)
    );
    println!(
        "  {:<26} {:>14.4e}",
        "maintained SAP0 (5% drift)",
        sse_brute(&maintained.estimator().as_ref(), &ps_now)
    );
    println!(
        "  {:<26} {:>14.4e}",
        "fresh SAP0 (rebuilt now)",
        sse_brute(&fresh, &ps_now)
    );
    println!(
        "  {:<26} {:>14.4e}",
        "streaming wavelet snapshot",
        sse_brute(&snap, &ps_now)
    );

    // The streaming snapshot must coincide with a from-scratch build.
    let scratch = synoptic::wavelet::RangeOptimalWavelet::build_with_budget(
        &ps_now,
        12,
        &Budget::unlimited(),
    )?;
    let (a, b) = (sse_brute(&snap, &ps_now), sse_brute(&scratch, &ps_now));
    assert!(
        (a - b).abs() <= 1e-9 * (1.0 + b),
        "streaming and from-scratch must agree: {a} vs {b}"
    );
    println!("\nstreaming snapshot ≡ from-scratch rebuild (checked).");
    Ok(())
}
