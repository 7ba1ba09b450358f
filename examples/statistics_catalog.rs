//! A table's statistics catalog: allocate one global storage budget across
//! columns, persist the chosen synopses, and answer predicates after a
//! reload — the workflow a database engine wraps around the paper's
//! algorithms.
//!
//! Run with: `cargo run --release --example statistics_catalog`

use synoptic::catalog::{
    allocate_budget, Catalog, ColumnCurve, ColumnEntry, DurableCatalog, FsStorage,
    PersistentSynopsis,
};
use synoptic::core::sse::sse_brute;
use synoptic::data::generators::{normal_mixture, steps, uniform};
use synoptic::data::zipf::{paper_dataset, ZipfConfig};
use synoptic::hist::sap0::build_sap0_with_budget;
use synoptic::prelude::*;

fn main() -> Result<()> {
    // Four columns with very different shapes.
    let columns: Vec<(&str, DataArray, f64)> = vec![
        (
            "price",
            paper_dataset(&ZipfConfig {
                n: 64,
                ..ZipfConfig::default()
            }),
            3.0, // queried often → higher weight
        ),
        ("age", normal_mixture(64, 3, 200.0, 5), 2.0),
        ("discount", steps(64, 4, 120, 9), 1.0),
        ("noise", uniform(64, 0, 50, 11), 0.5),
    ];

    // Per-column error curves for SAP0 on a budget grid.
    let grid = [6usize, 9, 12, 18, 24, 36, 48];
    let mut curves = Vec::new();
    for (name, data, weight) in &columns {
        let ps = data.prefix_sums();
        let points: Vec<(usize, f64)> = grid
            .iter()
            .filter_map(|&w| {
                let b = w / 3;
                if b == 0 {
                    return None;
                }
                let (h, _) = build_sap0_with_budget(&ps, b, &Budget::unlimited()).ok()?;
                Some((w, sse_brute(&h, &ps)))
            })
            .collect();
        curves.push(ColumnCurve {
            name: name.to_string(),
            weight: *weight,
            points,
        });
    }

    // Split 72 words across the four columns, optimally over the grid.
    let total_budget = 72;
    let alloc = allocate_budget(&curves, total_budget)?;
    println!("global budget: {total_budget} words\n");
    println!("{:<10} {:>7} {:>14}", "column", "words", "sse at choice");
    for (name, words, sse) in &alloc.choices {
        println!("{name:<10} {words:>7} {sse:>14.4e}");
    }
    println!(
        "spent {} words, total weighted SSE {:.4e}\n",
        alloc.total_words, alloc.total_weighted_sse
    );

    // Build the allocated synopses and persist the catalog.
    let mut catalog = Catalog::new();
    for ((name, data, _), (_, words, _)) in columns.iter().zip(&alloc.choices) {
        let ps = data.prefix_sums();
        let (h, _) = build_sap0_with_budget(&ps, (words / 3).max(1), &Budget::unlimited())?;
        catalog.insert(
            *name,
            ColumnEntry {
                n: data.n(),
                total_rows: ps.total() as i64,
                synopsis: PersistentSynopsis::from_sap0(&h),
            },
        );
    }
    let dir = std::env::temp_dir().join("synoptic_stats_store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableCatalog::open(&dir, FsStorage::new())?;
    let generation = store.save(&catalog)?;
    println!(
        "persisted catalog ({} words) to {} as generation {generation}",
        catalog.total_words(),
        dir.display()
    );

    // Reload and answer predicates — no base data needed.
    let loaded = store.load()?;
    println!("\nreloaded; sample predicates:");
    for (col, lo, hi) in [("price", 0, 9), ("age", 20, 40), ("discount", 10, 30)] {
        let est = loaded.estimate(col, RangeQuery::new(lo, hi)?)?;
        println!("  {col} BETWEEN {lo} AND {hi}  →  ~{est:.0} rows");
    }
    println!("\n{}", loaded.summary());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
