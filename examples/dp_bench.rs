//! DP kernel benchmark — the offline emitter behind `results/BENCH_dp.json`.
//!
//! Times the shared bucket-additive DP of `hist::dp` with the SAP0, SAP1,
//! A0 and POINT-OPT bucket costs over the grid n ∈ {256, 1024} ×
//! B ∈ {1, 8, 64, 192}, SAP0 alone at n = 4096 (perfbench's column size)
//! with B ∈ {8, 64}, the OPT-A DP at the paper's n = 127, B = 16, and
//! SAP0 over perfbench's served column as the pool builds it at
//! registration: 16 segments of 256 keys at their `split_segment_budget`
//! shares of 384 words (the kernel behind perfbench's `setup_s`; that
//! column's windows mostly fit `i64`, the signed grid's long windows do
//! not). SAP0 runs through the column filler its builder uses
//! (`sap0_columns`), the other kernels window by window. Every entry
//! reports its DP cells (the work units the DP charges its `Budget`) and,
//! for the additive kernels, its cost-oracle calls (windows costed); both
//! are deterministic and counted in one untimed warm-up run. The timed runs
//! then give wall-clock ms, ns per cell and ns per oracle call (not at
//! B = 1, where the one call is the whole build), each as
//! min / median / max over `TRIALS` runs (`SERVED_TRIALS` for the
//! segmented entry, which sums all 16 segments in each run). The segmented
//! entry and the n = 4096 entries follow each timed run with the window
//! columns the warm-up run filled, filled again in the same order through
//! the same `ColumnCost` with no DP around them, and report the run with
//! the median `ms` as `median_trial`: its `ms` and its own `fill_ms`, so
//! `ms − fill_ms` is the min-plus and bookkeeping share of one build.
//!
//! Run with: `cargo run --release --example dp_bench`
//! Writes `results/BENCH_dp.json` (override dir with `BENCH_OUT_DIR`).

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use synoptic::core::segment::SegmentLayout;
use synoptic::core::window::{WeightedPointOracle, WindowOracle};
use synoptic::core::{Budget, PrefixSums, Rng, RoundingMode};
use synoptic::data::normal_mixture;
use synoptic::data::zipf::{paper_dataset, ZipfConfig};
use synoptic::eval::bench::{spread, write_report};
use synoptic::eval::json::JsonValue;
use synoptic::hist::a0::a0_bucket_cost;
use synoptic::hist::builder::HistogramMethod;
use synoptic::hist::dp::{optimal_bucketing_with_budget, ColumnCost};
use synoptic::hist::opta::{build_opt_a_with_budget, OptAConfig};
use synoptic::hist::sap0::sap0_columns;
use synoptic::hist::sap1::sap1_bucket_cost;
use synoptic::stream::split_segment_budget;

const GRID_N: [usize; 2] = [256, 1024];
const GRID_B: [usize; 4] = [1, 8, 64, 192];
/// The monolithic SAP0 build the construction-kernel target is stated at.
const LARGE_N: usize = 4096;
const LARGE_B: [usize; 2] = [8, 64];
const OPTA_BUCKETS: usize = 16;
const TRIALS: usize = 5;
/// Runs of the served-segments entry: its build takes milliseconds and
/// swings between back-to-back runs, so it gets more than `TRIALS`.
const SERVED_TRIALS: usize = 41;
/// perfbench's served column: its segment count, its word budget, and the
/// seed of the noise (the first of the seeds its alternating runs use).
const SERVED_SEGMENTS: usize = 16;
const SERVED_WORDS: usize = SERVED_SEGMENTS * 8 * 3;
const SERVED_SEED: u64 = 11;

/// The signed column `segments_bench` uses, at length `n`.
fn values(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| (i * i * 31 + 7 * i) % 997 - 300)
        .collect()
}

/// perfbench's served column at `SERVED_SEED`: a fixed twelve-mode shape
/// plus seeded per-key noise in [0, 100].
fn served_values() -> Vec<i64> {
    let shape = normal_mixture(LARGE_N, 12, 1000.0, 2001);
    let mut rng = Rng::new(SERVED_SEED ^ 0x00C0_FFEE);
    shape
        .values()
        .iter()
        .map(|v| v + rng.i64_in(0, 100))
        .collect()
}

/// Runs `run` (which returns the DP cells it charged) once untimed, then
/// `TRIALS` times timed; returns the cells and the per-trial nanoseconds in
/// ascending order.
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

/// One grid entry for a bucket-additive kernel with window costs `cost`.
fn additive_entry(
    method: &str,
    n: usize,
    buckets: usize,
    cost: impl ColumnCost + Copy,
    split_fill: bool,
) -> JsonValue {
    let label = format!("{method:>9} n={n:>4} B={buckets:>3}");
    let entry = parts_entry(&label, &[(n, buckets, cost)], TRIALS, split_fill);
    JsonValue::obj(
        [
            ("method", JsonValue::Str(method.to_string())),
            ("n", JsonValue::Int(n as i128)),
            ("buckets", JsonValue::Int(buckets as i128)),
        ]
        .into_iter()
        .chain(entry),
    )
}

/// The segmented SAP0 entry: every segment of perfbench's served column at
/// its share of the joint budget split, timed together.
fn served_segments_entry() -> JsonValue {
    let vals = served_values();
    let layout = SegmentLayout::equi_width(vals.len(), SERVED_SEGMENTS).unwrap();
    let method = HistogramMethod::Sap0;
    let budgets = split_segment_budget(&vals, &layout, method, SERVED_WORDS).unwrap();
    let oracles: Vec<(usize, usize, WindowOracle)> = layout
        .iter()
        .zip(&budgets)
        .map(|((l, r), &words)| {
            let ps = PrefixSums::from_values(&vals[l..=r]);
            let buckets = words / method.words_per_bucket();
            (r - l + 1, buckets, WindowOracle::new(&ps).unwrap())
        })
        .collect();
    let parts: Vec<_> = oracles
        .iter()
        .map(|(n, buckets, oracle)| (*n, *buckets, sap0_columns(oracle, *n)))
        .collect();
    let buckets: usize = parts.iter().map(|p| p.1).sum();
    let label = format!(
        "{:>9} n={LARGE_N:>4} B={buckets:>3} in {SERVED_SEGMENTS} segments",
        "SAP0"
    );
    let entry = parts_entry(&label, &parts, SERVED_TRIALS, true);
    JsonValue::obj(
        [
            ("method", JsonValue::Str("SAP0".to_string())),
            ("column", JsonValue::Str("perfbench served".to_string())),
            ("n", JsonValue::Int(LARGE_N as i128)),
            ("segments", JsonValue::Int(SERVED_SEGMENTS as i128)),
            ("trials", JsonValue::Int(SERVED_TRIALS as i128)),
            ("words", JsonValue::Int(SERVED_WORDS as i128)),
            ("buckets", JsonValue::Int(buckets as i128)),
        ]
        .into_iter()
        .chain(entry),
    )
}

/// Window costs that record the columns they fill: `(r, windows)` each.
struct Recorded<'a, C> {
    cost: C,
    fills: &'a RefCell<Vec<(usize, usize)>>,
}

impl<C: ColumnCost> ColumnCost for Recorded<'_, C> {
    fn fill(&self, r: usize, col: &mut [f64]) {
        self.fills.borrow_mut().push((r, col.len()));
        self.cost.fill(r, col);
    }
}

/// Times the DP over every `(n, buckets, cost)` of `parts` in each of
/// `count` runs, prints one line under `label`, and returns the summed
/// cells and oracle calls with the ms, ns per cell and ns per oracle call
/// spreads (the last omitted when every part has one bucket). With
/// `split_fill`, each run is followed by filling the same columns alone,
/// and `median_trial` gives the run with the median ms together with its
/// own fill ms, so the fill share comes from one trial.
fn parts_entry<C: ColumnCost + Copy>(
    label: &str,
    parts: &[(usize, usize, C)],
    count: usize,
    split_fill: bool,
) -> Vec<(&'static str, JsonValue)> {
    let warm_up = Budget::unlimited();
    let fills: Vec<Vec<(usize, usize)>> = parts
        .iter()
        .map(|&(n, buckets, cost)| {
            let fills = RefCell::new(Vec::new());
            let recorded = Recorded {
                cost,
                fills: &fills,
            };
            optimal_bucketing_with_budget(n, buckets, recorded, &warm_up).unwrap();
            fills.into_inner()
        })
        .collect();
    let calls: u64 = fills.iter().flatten().map(|&(_, len)| len as u64).sum();
    let cells = warm_up.cells_used();
    let dp = || {
        let budget = Budget::unlimited();
        for &(n, buckets, cost) in parts {
            black_box(optimal_bucketing_with_budget(n, buckets, cost, &budget).unwrap());
        }
        assert_eq!(budget.cells_used(), cells, "{label}: cells must repeat");
    };
    // The recorded columns, in the DP's order, with no DP around them.
    let mut col = vec![0.0; parts.iter().map(|p| p.0).max().unwrap_or(0)];
    let mut fill = || {
        for (&(_, _, cost), fills) in parts.iter().zip(&fills) {
            for &(r, len) in fills {
                cost.fill(r, &mut col[..len]);
                black_box(&col[..len]);
            }
        }
    };
    // One untimed run of each, then `(dp_ns, fill_ns)` per timed run,
    // sorted by the DP's time.
    dp();
    if split_fill {
        fill();
    }
    let mut runs: Vec<(f64, f64)> = (0..count)
        .map(|_| {
            let started = Instant::now();
            dp();
            let dp_ns = started.elapsed().as_nanos() as f64;
            let started = Instant::now();
            if split_fill {
                fill();
            }
            (dp_ns, started.elapsed().as_nanos() as f64)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ns: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let (median, median_fill) = runs[count / 2];
    // With one bucket the DP costs one window per part, so a time per
    // oracle call would be the whole build's time: report none.
    let per_call = parts.iter().any(|&(_, buckets, _)| buckets > 1);
    let ns_per_call = if per_call {
        format!("{:.1}", median / calls as f64)
    } else {
        "-".to_string()
    };
    println!(
        "{label}: {:>9.3} ms, {:>6.2} ns/cell, \
         {ns_per_call:>7} ns/oracle call ({cells} cells, {calls} calls)",
        median / 1e6,
        median / cells as f64,
    );
    let mut fields = vec![
        ("cells", JsonValue::Int(cells as i128)),
        ("oracle_calls", JsonValue::Int(calls as i128)),
        ("ms", spread(ns.iter().map(|t| t / 1e6))),
        ("ns_per_cell", spread(ns.iter().map(|t| t / cells as f64))),
    ];
    if per_call {
        fields.push((
            "ns_per_oracle_call",
            spread(ns.iter().map(|t| t / calls as f64)),
        ));
    }
    if split_fill {
        println!(
            "{label}: {:>9.3} ms of that trial fills the window columns",
            median_fill / 1e6
        );
        fields.push((
            "median_trial",
            JsonValue::obj([
                ("ms", JsonValue::Num(median / 1e6)),
                ("fill_ms", JsonValue::Num(median_fill / 1e6)),
            ]),
        ));
    }
    fields
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
        ("ms", spread(ns.iter().map(|t| t / 1e6))),
        ("ns_per_cell", spread(ns.iter().map(|t| t / cells as f64))),
    ])
}

fn main() {
    let mut entries = Vec::new();
    for n in GRID_N {
        let vals = values(n);
        let ps = PrefixSums::from_values(&vals);
        let window = WindowOracle::new(&ps).unwrap();
        let fits = window.fits().unwrap();
        let point = WeightedPointOracle::range_inclusion(&vals).unwrap();
        for buckets in GRID_B.into_iter().filter(|&b| b <= n) {
            let sap0 = sap0_columns(&window, n);
            let sap1 = |l, r| sap1_bucket_cost(&fits, n, l, r);
            let a0 = |l, r| a0_bucket_cost(&window, n, l, r);
            let point_opt = |l, r| point.cost(l, r);
            entries.push(additive_entry("SAP0", n, buckets, sap0, false));
            entries.push(additive_entry("SAP1", n, buckets, sap1, false));
            entries.push(additive_entry("A0", n, buckets, a0, false));
            entries.push(additive_entry("POINT-OPT", n, buckets, point_opt, false));
        }
    }
    let ps = PrefixSums::from_values(&values(LARGE_N));
    let window = WindowOracle::new(&ps).unwrap();
    for buckets in LARGE_B {
        entries.push(additive_entry(
            "SAP0",
            LARGE_N,
            buckets,
            sap0_columns(&window, LARGE_N),
            true,
        ));
    }
    entries.push(served_segments_entry());
    entries.push(opt_a_entry());
    let report = JsonValue::obj([
        ("bench", JsonValue::Str("dp".to_string())),
        ("trials", JsonValue::Int(TRIALS as i128)),
        ("entries", JsonValue::Arr(entries)),
    ]);
    write_report("BENCH_dp.json", &report);
}
