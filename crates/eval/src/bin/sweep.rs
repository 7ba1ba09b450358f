//! Runs the extended ablations A1–A6 (DESIGN.md §6).
//!
//! Usage: `sweep <rounding|states|wavelets|datasets|bounds|hull|all> [--out DIR]`

use synoptic_data::zipf::ZipfConfig;
use synoptic_eval::methods::MethodSpec;
use synoptic_eval::report::write_artifact;
use synoptic_eval::sweeps::{
    bounds_sweep, dataset_sweep, hull_cap_sweep, rounding_sweep, states_sweep, wavelet_sweep,
};

fn out_dir(args: &[String]) -> String {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results".into())
}

fn run_rounding(out: &str) {
    let rows = rounding_sweep(&ZipfConfig::default(), 12, &[1, 2, 4, 8, 16, 32])
        .expect("rounding sweep failed");
    println!("A1 — OPT-A-ROUNDED (B = 12, paper dataset)");
    println!(
        "{:>6} {:>14} {:>10} {:>12} {:>9}",
        "scale", "sse", "vs exact", "states", "seconds"
    );
    for r in &rows {
        println!(
            "{:>6} {:>14.4e} {:>9.3}x {:>12} {:>9.3}",
            r.scale, r.sse, r.ratio_vs_exact, r.states_kept, r.seconds
        );
    }
    let json = synoptic_eval::json::to_string_pretty(&rows);
    let _ = write_artifact(out, "sweep_rounding.json", &json);
}

fn run_states(out: &str) {
    let rows = states_sweep(&[32, 64, 127, 192, 256], 16, 2001).expect("states sweep failed");
    println!("A2 — hull-pruned DP states vs the paper's Λ*-table width (B = 16)");
    println!(
        "{:>5} {:>12} {:>9} {:>18} {:>9} {:>14} {:>12}",
        "n", "states", "max hull", "paper Λ-width", "seconds", "sse", "max |Λ|"
    );
    for r in &rows {
        println!(
            "{:>5} {:>12} {:>9} {:>18} {:>9.3} {:>14.4e} {:>12.0}",
            r.n, r.states_kept, r.max_hull, r.paper_table_width, r.seconds, r.sse, r.max_abs_lambda
        );
    }
    let json = synoptic_eval::json::to_string_pretty(&rows);
    let _ = write_artifact(out, "sweep_states.json", &json);
}

fn run_wavelets(out: &str) {
    let rows = wavelet_sweep(&ZipfConfig::default(), &[8, 16, 24, 32, 48, 64])
        .expect("wavelet sweep failed");
    println!("A3 — wavelet strategies vs OPT-A (paper dataset)");
    if let Some(first) = rows.first() {
        print!("{:>7}", "words");
        for (m, _) in &first.sse {
            print!(" {m:>14}");
        }
        println!();
    }
    for r in &rows {
        print!("{:>7}", r.budget_words);
        for (_, s) in &r.sse {
            print!(" {s:>14.4e}");
        }
        println!();
    }
    let json = synoptic_eval::json::to_string_pretty(&rows);
    let _ = write_artifact(out, "sweep_wavelets.json", &json);
}

fn run_datasets(out: &str) {
    let methods = [
        MethodSpec::Naive,
        MethodSpec::PointOpt,
        MethodSpec::A0,
        MethodSpec::Sap0,
        MethodSpec::Sap1,
        MethodSpec::OptA,
        MethodSpec::WaveletRange,
    ];
    let rows = dataset_sweep(127, 32, 2001, &methods).expect("dataset sweep failed");
    println!("A4 — dataset families at 32 words (n = 127)");
    if let Some(first) = rows.first() {
        print!("{:>12}", "dataset");
        for (m, _) in &first.sse {
            print!(" {m:>12}");
        }
        println!();
    }
    for r in &rows {
        print!("{:>12}", r.dataset);
        for (_, s) in &r.sse {
            print!(" {s:>12.3e}");
        }
        println!();
    }
    let json = synoptic_eval::json::to_string_pretty(&rows);
    let _ = write_artifact(out, "sweep_datasets.json", &json);
}

fn run_bounds(out: &str) {
    let rows =
        bounds_sweep(&ZipfConfig::default(), &[8, 16, 24, 32, 48, 64]).expect("bounds sweep");
    println!("A5 — certified intervals of BOUNDED (OPT-A boundaries, paper dataset)");
    println!(
        "{:>7} {:>12} {:>12} {:>8} {:>10}",
        "words", "mean width", "max width", "exact%", "rmse"
    );
    for r in &rows {
        println!(
            "{:>7} {:>12.2} {:>12.2} {:>7.1}% {:>10.2}",
            r.budget_words,
            r.mean_width,
            r.max_width,
            100.0 * r.exact_fraction,
            r.rmse
        );
    }
    let json = synoptic_eval::json::to_string_pretty(&rows);
    let _ = write_artifact(out, "sweep_bounds.json", &json);
}

fn run_hull(out: &str) {
    let rows = hull_cap_sweep(&ZipfConfig::default(), 16, &[1, 2, 4, 8, 16, 32, 0])
        .expect("hull-cap sweep");
    println!("A6 — hull-cap ablation (B = 16, paper dataset; cap 0 = exact)");
    println!(
        "{:>5} {:>14} {:>10} {:>12} {:>9}",
        "cap", "sse", "vs exact", "states", "seconds"
    );
    for r in &rows {
        println!(
            "{:>5} {:>14.4e} {:>9.4}x {:>12} {:>9.3}",
            r.cap, r.sse, r.ratio_vs_exact, r.states_kept, r.seconds
        );
    }
    let json = synoptic_eval::json::to_string_pretty(&rows);
    let _ = write_artifact(out, "sweep_hull.json", &json);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let out = out_dir(&args);
    match which {
        "rounding" => run_rounding(&out),
        "states" => run_states(&out),
        "wavelets" => run_wavelets(&out),
        "datasets" => run_datasets(&out),
        "bounds" => run_bounds(&out),
        "hull" => run_hull(&out),
        "all" => {
            run_rounding(&out);
            println!();
            run_states(&out);
            println!();
            run_wavelets(&out);
            println!();
            run_datasets(&out);
            println!();
            run_bounds(&out);
            println!();
            run_hull(&out);
        }
        other => {
            eprintln!("unknown sweep '{other}'; expected rounding|states|wavelets|datasets|bounds|hull|all");
            std::process::exit(2);
        }
    }
}
