//! Quickstart: build the paper's main synopses over a small attribute-value
//! distribution, answer a few range queries, and compare exact SSE.
//!
//! Run with: `cargo run --release --example quickstart`

use synoptic::core::sse::sse_brute;
use synoptic::hist::opta::{build_opt_a, OptAConfig};
use synoptic::hist::reopt::reoptimize_with_budget;
use synoptic::hist::sap0::build_sap0_with_budget;
use synoptic::hist::sap1::build_sap1_with_budget;
use synoptic::prelude::*;

fn main() -> Result<()> {
    // An attribute-value distribution: A[i] = #records with value i.
    // (Think: order quantities 0..=15 in a sales table.)
    let data = DataArray::new(vec![
        120, 85, 60, 44, 30, 22, 18, 14, 10, 8, 5, 4, 3, 2, 1, 1,
    ])?;
    let ps = data.prefix_sums();
    println!("n = {}, total records = {}", data.n(), ps.total());

    // Build three provably range-optimal histograms with ~8 words of budget.
    let opta = build_opt_a(&ps, &OptAConfig::exact(4, RoundingMode::None))?;
    let unlimited = Budget::unlimited(); // no deadline or cell cap
    let (sap0, _) = build_sap0_with_budget(&ps, 2, &unlimited)?; // 3 words per bucket
    let (sap1, _) = build_sap1_with_budget(&ps, 1, &unlimited)?; // 5 words per bucket
    let naive = NaiveEstimator::new(&ps);

    // …and the §5 re-optimization of the OPT-A boundaries.
    let reopt = reoptimize_with_budget(opta.histogram.bucketing(), &ps, "OPT-A", &unlimited)?;

    // Answer a range query with each.
    let q = RangeQuery::new(3, 9)?;
    let truth = ps.answer(q) as f64;
    println!("\nquery: how many records have value in [3, 9]?  truth = {truth}");
    let estimators: Vec<(&str, &dyn RangeEstimator)> = vec![
        ("NAIVE", &naive),
        ("OPT-A", &opta.histogram),
        ("OPT-A-reopt", &reopt.histogram),
        ("SAP0", &sap0),
        ("SAP1", &sap1),
    ];
    for (name, est) in &estimators {
        println!(
            "  {name:<12} estimate = {:8.1}   ({} words)",
            est.estimate(q),
            est.storage_words()
        );
    }

    // The paper's quality metric: SSE over all n(n+1)/2 ranges.
    println!(
        "\nexact SSE over all {} ranges:",
        RangeQuery::count_all(data.n())
    );
    for (name, est) in &estimators {
        println!("  {name:<12} {:12.1}", sse_brute(est, &ps));
    }

    // The optimal DP's objective equals the measured SSE (the implementation
    // re-checks this internally).
    assert!((opta.dp_objective - opta.sse).abs() < 1e-6 * (1.0 + opta.sse));
    println!(
        "\nOPT-A DP objective matches its measured SSE: {:.1}",
        opta.sse
    );
    Ok(())
}
