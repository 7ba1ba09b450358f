//! Selectivity estimation for a cost-based query optimizer — the paper's
//! motivating scenario (§1).
//!
//! A query optimizer must choose between an index scan and a full table scan
//! for predicates like `WHERE price BETWEEN lo AND hi`. It keeps a small
//! histogram of the `price` column's value distribution and estimates the
//! predicate's *selectivity* (fraction of rows matched); if the estimate is
//! below a threshold, it picks the index scan.
//!
//! This example builds OPT-A and POINT-OPT synopses at the same budget and
//! counts how often each leads the optimizer to the right plan — making the
//! paper's point that optimizing the synopsis for *range* queries matters.
//!
//! Run with: `cargo run --release --example selectivity_estimation`

use synoptic::data::workload::random_ranges;
use synoptic::data::zipf::{paper_dataset, ZipfConfig};
use synoptic::hist::builder::{build_with_budget, HistogramMethod};
use synoptic::prelude::*;

/// The optimizer prefers an index scan when the predicate selects less than
/// this fraction of the table.
const INDEX_SCAN_THRESHOLD: f64 = 0.10;

fn main() -> Result<()> {
    // A "price" column: 127 distinct values, Zipf-distributed frequencies
    // (a few bestsellers, a long tail), ~10k rows.
    let data = paper_dataset(&ZipfConfig::default());
    let ps = data.prefix_sums();
    let total = ps.total() as f64;
    println!(
        "table: {} rows over {} distinct price points",
        ps.total(),
        data.n()
    );

    // The optimizer's statistics budget: 32 words per column.
    let budget = 32;
    let methods = [
        HistogramMethod::EquiDepth,
        HistogramMethod::PointOpt,
        HistogramMethod::OptA,
        HistogramMethod::OptAReopt,
    ];

    // A workload of 2000 BETWEEN predicates.
    let queries = random_ranges(data.n(), 2000, 42);

    println!(
        "\n{:<12} {:>10} {:>12} {:>14}",
        "method", "words", "plan errors", "mean |sel err|"
    );
    for m in methods {
        let est = build_with_budget(m, data.values(), &ps, budget, &Budget::unlimited())?;
        let mut plan_errors = 0usize;
        let mut abs_err_sum = 0.0;
        for &q in &queries {
            let truth = ps.answer(q) as f64 / total;
            let guess = (est.estimate(q) / total).clamp(0.0, 1.0);
            abs_err_sum += (truth - guess).abs();
            let right_plan = truth < INDEX_SCAN_THRESHOLD;
            let chosen_plan = guess < INDEX_SCAN_THRESHOLD;
            if right_plan != chosen_plan {
                plan_errors += 1;
            }
        }
        println!(
            "{:<12} {:>10} {:>12} {:>14.5}",
            m.name(),
            est.storage_words(),
            plan_errors,
            abs_err_sum / queries.len() as f64
        );
    }

    println!(
        "\nLower is better in both columns; the range-optimal histograms keep the\n\
         optimizer on the right plan more often at the same statistics budget."
    );
    Ok(())
}
