//! DP kernel benchmark — the offline emitter behind `results/BENCH_dp.json`.
//!
//! Times the shared bucket-additive DP of `hist::dp` with the SAP0, SAP1,
//! A0 and POINT-OPT bucket costs over the grid n ∈ {256, 1024} ×
//! B ∈ {1, 8, 64, 192}, SAP0 alone at n = 4096 (perfbench's column size)
//! with B ∈ {8, 64}, and the OPT-A DP at the paper's n = 127, B = 16.
//! Every entry reports its DP cells (the work units the DP charges its
//! `Budget`) and, for the additive kernels, its cost-oracle calls; both are
//! deterministic and counted in one untimed warm-up run. The timed runs
//! then give wall-clock ms, ns per cell and ns per oracle call, each as
//! min / median / max over `TRIALS` runs.
//!
//! Run with: `cargo run --release --example dp_bench`
//! Writes `results/BENCH_dp.json` (override dir with `BENCH_OUT_DIR`).

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use synoptic::core::window::{WeightedPointOracle, WindowOracle};
use synoptic::core::{Budget, PrefixSums, RoundingMode};
use synoptic::data::zipf::{paper_dataset, ZipfConfig};
use synoptic::eval::json::JsonValue;
use synoptic::hist::a0::a0_bucket_cost;
use synoptic::hist::dp::optimal_bucketing_with_budget;
use synoptic::hist::opta::{build_opt_a_with_budget, OptAConfig};
use synoptic::hist::sap0::sap0_bucket_cost;
use synoptic::hist::sap1::sap1_bucket_cost;

const GRID_N: [usize; 2] = [256, 1024];
const GRID_B: [usize; 4] = [1, 8, 64, 192];
/// The monolithic SAP0 build the construction-kernel target is stated at.
const LARGE_N: usize = 4096;
const LARGE_B: [usize; 2] = [8, 64];
const OPTA_BUCKETS: usize = 16;
const TRIALS: usize = 5;

/// The signed column `segments_bench` uses, at length `n`.
fn values(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| (i * i * 31 + 7 * i) % 997 - 300)
        .collect()
}

/// `{min, median, max}` of the ascending `xs`.
fn spread(xs: Vec<f64>) -> JsonValue {
    JsonValue::obj([
        ("min", JsonValue::Num(xs[0])),
        ("median", JsonValue::Num(xs[xs.len() / 2])),
        ("max", JsonValue::Num(xs[xs.len() - 1])),
    ])
}

/// Runs `run` (which returns the DP cells it charged) once untimed, then
/// `TRIALS` times timed; returns the cells and the per-trial nanoseconds in
/// ascending order (so every per-unit series derived from them is too).
fn trials(mut run: impl FnMut() -> u64) -> (u64, Vec<f64>) {
    let cells = run();
    let mut ns: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let started = Instant::now();
            black_box(run());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    (cells, ns)
}

/// One grid entry for a bucket-additive kernel with window cost `cost`.
fn additive_entry(
    method: &str,
    n: usize,
    buckets: usize,
    cost: impl Fn(usize, usize) -> f64,
) -> JsonValue {
    let calls = Cell::new(0u64);
    let counted = |l: usize, r: usize| {
        calls.set(calls.get() + 1);
        cost(l, r)
    };
    let budget = Budget::unlimited();
    optimal_bucketing_with_budget(n, buckets, counted, &budget).unwrap();
    let calls = calls.get();
    let (cells, ns) = trials(|| {
        let budget = Budget::unlimited();
        black_box(optimal_bucketing_with_budget(n, buckets, &cost, &budget).unwrap());
        budget.cells_used()
    });
    assert_eq!(cells, budget.cells_used(), "{method}: cells must repeat");
    let median = ns[TRIALS / 2];
    println!(
        "{method:>9} n={n:>4} B={buckets:>3}: {:>9.3} ms, {:>6.2} ns/cell, \
         {:>7.1} ns/oracle call ({cells} cells, {calls} calls)",
        median / 1e6,
        median / cells as f64,
        median / calls as f64,
    );
    JsonValue::obj([
        ("method", JsonValue::Str(method.to_string())),
        ("n", JsonValue::Int(n as i128)),
        ("buckets", JsonValue::Int(buckets as i128)),
        ("cells", JsonValue::Int(cells as i128)),
        ("oracle_calls", JsonValue::Int(calls as i128)),
        ("ms", spread(ns.iter().map(|t| t / 1e6).collect())),
        (
            "ns_per_cell",
            spread(ns.iter().map(|t| t / cells as f64).collect()),
        ),
        (
            "ns_per_oracle_call",
            spread(ns.iter().map(|t| t / calls as f64).collect()),
        ),
    ])
}

/// The OPT-A entry at the paper's dataset (n = 127) and B = 16. OPT-A has
/// no per-window cost oracle, so it reports ns per cell only.
fn opt_a_entry() -> JsonValue {
    let ps = paper_dataset(&ZipfConfig::default()).prefix_sums();
    let cfg = OptAConfig::exact(OPTA_BUCKETS, RoundingMode::None);
    let (cells, ns) = trials(|| {
        let budget = Budget::unlimited();
        black_box(build_opt_a_with_budget(&ps, &cfg, &budget).unwrap());
        budget.cells_used()
    });
    let median = ns[TRIALS / 2];
    println!(
        "{:>9} n={:>4} B={OPTA_BUCKETS:>3}: {:>9.3} ms, {:>6.2} ns/cell ({cells} cells)",
        "OPT-A",
        ps.n(),
        median / 1e6,
        median / cells as f64,
    );
    JsonValue::obj([
        ("method", JsonValue::Str("OPT-A".to_string())),
        ("n", JsonValue::Int(ps.n() as i128)),
        ("buckets", JsonValue::Int(OPTA_BUCKETS as i128)),
        ("cells", JsonValue::Int(cells as i128)),
        ("ms", spread(ns.iter().map(|t| t / 1e6).collect())),
        (
            "ns_per_cell",
            spread(ns.iter().map(|t| t / cells as f64).collect()),
        ),
    ])
}

fn main() {
    let mut entries = Vec::new();
    for n in GRID_N {
        let vals = values(n);
        let ps = PrefixSums::from_values(&vals);
        let window = WindowOracle::new(&ps).unwrap();
        let fits = window.fits().unwrap();
        let point = WeightedPointOracle::range_inclusion(&vals);
        for buckets in GRID_B.into_iter().filter(|&b| b <= n) {
            entries.push(additive_entry("SAP0", n, buckets, |l, r| {
                sap0_bucket_cost(&window, n, l, r)
            }));
            entries.push(additive_entry("SAP1", n, buckets, |l, r| {
                sap1_bucket_cost(&fits, n, l, r)
            }));
            entries.push(additive_entry("A0", n, buckets, |l, r| {
                a0_bucket_cost(&window, n, l, r)
            }));
            entries.push(additive_entry("POINT-OPT", n, buckets, |l, r| {
                point.cost(l, r)
            }));
        }
    }
    let ps = PrefixSums::from_values(&values(LARGE_N));
    let window = WindowOracle::new(&ps).unwrap();
    for buckets in LARGE_B {
        entries.push(additive_entry("SAP0", LARGE_N, buckets, |l, r| {
            sap0_bucket_cost(&window, LARGE_N, l, r)
        }));
    }
    entries.push(opt_a_entry());
    let report = JsonValue::obj([
        ("bench", JsonValue::Str("dp".to_string())),
        ("trials", JsonValue::Int(TRIALS as i128)),
        ("entries", JsonValue::Arr(entries)),
    ]);
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| "results".to_string());
    std::fs::create_dir_all(&out_dir).unwrap();
    let path = std::path::Path::new(&out_dir).join("BENCH_dp.json");
    std::fs::write(&path, report.to_string_pretty()).unwrap();
    println!("wrote {}", path.display());
}
