//! `build_cold`: single-threaded synopsis construction through
//! `hist::build_with_budget` with an unlimited budget, on the paper's
//! Zipf(1.8) recipe (the seed draws the fair-coin rounding). No server:
//! the DP does nearly all the work.

use std::time::{Duration, Instant};

use synoptic_core::sse::{sse_brute, sse_value_histogram};
use synoptic_core::{
    Budget, NaiveEstimator, PrefixSums, RangeEstimator, RangeQuery, Rng, RoundingMode,
    Sap0Histogram, ValueHistogram,
};
use synoptic_hist::builder::{build_with_budget, HistogramMethod};
use synoptic_hist::exhaustive::exhaustive_optimal;
use synoptic_hist::opta::{build_opt_a, OptAConfig};
use synoptic_hist::vopt::{build_point_opt, PointWeighting};
use synoptic_hist::{a0::build_a0, sap0::build_sap0_with_sse};

use crate::layers::{build_timed, hist_builds};
use crate::report::{p50, tail, Report};
use crate::trace::Tracer;
use crate::Res;

/// One round: every construction below, back to back, as
/// `(name, method, n, buckets)`. Sizes give each a similar share of the
/// round (POINT-OPT's cells are ~8x cheaper); OPT-A runs at the paper's
/// n = 127.
const ROUND: [(&str, HistogramMethod, usize, usize); 4] = [
    ("sap0", HistogramMethod::Sap0, 256, 32),
    ("a0", HistogramMethod::A0, 256, 32),
    ("pointopt", HistogramMethod::PointOpt, 768, 32),
    ("opta", HistogramMethod::OptA, 127, 16),
];
/// Size of the exhaustive-search cross-check (2^(n-1) bucketings).
const SMALL_N: usize = 20;
const SMALL_B: usize = 6;
const SETUPS: usize = 5;

fn zipf(n: usize, seed: u64) -> Vec<i64> {
    synoptic_data::paper_dataset(&synoptic_data::ZipfConfig {
        n,
        seed,
        ..Default::default()
    })
    .values()
    .to_vec()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Inputs and the reference values the builds are checked against.
struct Setup {
    inputs: Vec<Vec<i64>>,
    naive_sse: Vec<f64>,
    small: Vec<i64>,
    /// Exhaustive-search optimum of SAP0 and of average-valued histograms
    /// at `SMALL_N`, `SMALL_B`.
    small_sap0_best: f64,
    small_avg_best: f64,
}

impl Setup {
    fn new(seed: u64) -> Res<Self> {
        let inputs: Vec<Vec<i64>> = ROUND.iter().map(|&(_, _, n, _)| zipf(n, seed)).collect();
        let naive_sse = inputs
            .iter()
            .map(|v| {
                let ps = PrefixSums::from_values(v);
                sse_brute(&NaiveEstimator::new(&ps), &ps)
            })
            .collect();
        let small = zipf(SMALL_N, seed);
        let ps = PrefixSums::from_values(&small);
        let (_, small_sap0_best) = exhaustive_optimal(SMALL_N, SMALL_B, |bk| {
            let h = Sap0Histogram::optimal_values(bk.clone(), &ps).expect("valid bucketing");
            sse_brute(&h, &ps)
        })?;
        let (_, small_avg_best) = exhaustive_optimal(SMALL_N, SMALL_B, |bk| {
            let h =
                ValueHistogram::with_averages(bk.clone(), &ps, "cand").expect("valid bucketing");
            sse_value_histogram(h.xprefix(), &ps)
        })?;
        Ok(Self {
            inputs,
            naive_sse,
            small,
            small_sap0_best,
            small_avg_best,
        })
    }

    /// The DP's own optimum for construction `k`, from the typed builder.
    fn dp_sse(&self, k: usize) -> Res<f64> {
        let values = &self.inputs[k];
        let ps = PrefixSums::from_values(values);
        let (_, method, _, b) = ROUND[k];
        Ok(match method {
            HistogramMethod::Sap0 => build_sap0_with_sse(&ps, b)?.1,
            HistogramMethod::A0 => sse_value_histogram(build_a0(&ps, b)?.xprefix(), &ps),
            HistogramMethod::PointOpt => {
                let h = build_point_opt(values, &ps, b, PointWeighting::RangeInclusion)?;
                sse_value_histogram(h.xprefix(), &ps)
            }
            _ => build_opt_a(&ps, &OptAConfig::exact(b, RoundingMode::None))?.sse,
        })
    }

    /// The optimal methods match exhaustive search at a small n: SAP0
    /// exactly, OPT-A at least as well as the best average-valued
    /// bucketing (it also optimizes the stored values).
    fn check_small(&self, report: &mut Report) -> Res<()> {
        let ps = PrefixSums::from_values(&self.small);
        let unlimited = Budget::unlimited();
        let sap0 = build_with_budget(
            HistogramMethod::Sap0,
            &self.small,
            &ps,
            3 * SMALL_B,
            &unlimited,
        )?;
        let got = sse_brute(&sap0, &ps);
        report.check(close(got, self.small_sap0_best), || {
            format!(
                "SAP0 at n={SMALL_N}: SSE {got} but exhaustive optimum {}",
                self.small_sap0_best
            )
        });
        let opta = build_with_budget(
            HistogramMethod::OptA,
            &self.small,
            &ps,
            2 * SMALL_B,
            &unlimited,
        )?;
        let got = sse_brute(&opta, &ps);
        report.check(got <= self.small_avg_best * (1.0 + 1e-9) + 1e-9, || {
            format!(
                "OPT-A at n={SMALL_N}: SSE {got} above exhaustive bound {}",
                self.small_avg_best
            )
        });
        Ok(())
    }
}

/// Ranges whose estimates must repeat bit for bit in every round.
fn probes(n: usize) -> Vec<RangeQuery> {
    let mut rng = Rng::new(n as u64);
    (0..64)
        .map(|_| {
            let a = rng.usize_in(0, n);
            let b = rng.usize_in(0, n);
            RangeQuery {
                lo: a.min(b),
                hi: a.max(b),
            }
        })
        .collect()
}

/// Storage words for `buckets` buckets of `method`.
fn words(method: HistogramMethod, buckets: usize) -> usize {
    method.words_per_bucket() * buckets
}

/// Estimates of each construction on its probe ranges, as bits.
fn probe_bits(k: usize, est: &dyn RangeEstimator) -> Vec<u64> {
    probes(ROUND[k].2)
        .iter()
        .map(|&q| est.estimate(q).to_bits())
        .collect()
}

/// One untimed round that checks every construction's SSE, taken by the
/// exact oracle over all ranges, against the DP's own optimum. Returns the
/// probe answers later rounds must repeat, and each construction's SSE
/// over NAIVE's.
fn check_round(setup: &Setup, report: &mut Report) -> Res<(Vec<Vec<u64>>, Vec<f64>)> {
    let mut bits = Vec::with_capacity(ROUND.len());
    let mut ratios = Vec::with_capacity(ROUND.len());
    for (k, &(name, method, _, b)) in ROUND.iter().enumerate() {
        let values = &setup.inputs[k];
        let ps = PrefixSums::from_values(values);
        let est = build_with_budget(method, values, &ps, words(method, b), &Budget::unlimited())?;
        let oracle = sse_brute(&est, &ps);
        let dp = setup.dp_sse(k)?;
        report.check(close(oracle, dp), || {
            format!("{name}: exact-oracle SSE {oracle} but DP optimum {dp}")
        });
        bits.push(probe_bits(k, est.as_ref()));
        ratios.push(oracle / setup.naive_sse[k]);
    }
    Ok((bits, ratios))
}

#[derive(Default)]
struct Rounds {
    seconds: f64,
    round_us: Vec<f64>,
    build_ms: [Vec<f64>; 4],
    cells: [u64; 4],
}

/// Builds rounds back to back until `until` (at least one round).
fn drive(
    setup: &Setup,
    until: Instant,
    tracer: &Tracer,
    expected: &[Vec<u64>],
    report: &mut Report,
) -> Res<Rounds> {
    let mut rounds = Rounds::default();
    let started = Instant::now();
    while rounds.round_us.is_empty() || Instant::now() < until {
        let mut round_ms = 0.0;
        for (k, &(name, method, _, b)) in ROUND.iter().enumerate() {
            report.attempted += 1;
            let (ms, cells, est) = build_timed(method, &setup.inputs[k], words(method, b), tracer)?;
            round_ms += ms;
            rounds.build_ms[k].push(ms);
            rounds.cells[k] = cells;
            report.check(probe_bits(k, est.as_ref()) == expected[k], || {
                format!("{name}: a rebuild of the same input answered differently")
            });
        }
        rounds.round_us.push(round_ms * 1e3);
    }
    rounds.seconds = started.elapsed().as_secs_f64();
    Ok(rounds)
}

pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &Tracer, report: &mut Report) -> Res<()> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        setup = Some(Setup::new(seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    report.put("setup_s", p50(&mut setup_s), "s");
    let setup = setup.ok_or("no set-up ran")?;
    setup.check_small(report)?;
    let (expected, ratios) = check_round(&setup, report)?;
    let logs: f64 = ratios.iter().map(|r| r.ln()).sum();
    report.put("sse_ratio", (logs / ratios.len() as f64).exp(), "ratio");

    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut rounds = drive(
        &setup,
        Instant::now() + Duration::from_secs_f64(untraced_s),
        tracer,
        &expected,
        report,
    )?;
    report.put(
        "requests_per_s",
        rounds.round_us.len() as f64 / rounds.seconds,
        "1/s",
    );
    let round_p50 = p50(&mut rounds.round_us);
    report.put("latency_p50_us", round_p50, "us");
    let (t, pct) = tail(&mut rounds.round_us);
    report.put("latency_tail_us", t, "us");
    report.put("latency_tail_pct", pct, "%");
    for (k, &(stem, ..)) in ROUND.iter().enumerate() {
        let ms = p50(&mut rounds.build_ms[k]);
        report.put(&format!("build_{stem}_ms"), ms, "ms");
        report.put(
            &format!("hist.{stem}_ns_per_cell"),
            ms * 1e6 / rounds.cells[k].max(1) as f64,
            "ns",
        );
    }
    report.put("hist.sap0_cells", rounds.cells[0] as f64, "count");
    println!(
        "{} rounds of {} builds in {:.2}s",
        rounds.round_us.len(),
        ROUND.len(),
        rounds.seconds
    );

    if traced {
        tracer.enable();
        let mut traced_rounds = drive(
            &setup,
            Instant::now() + Duration::from_secs_f64(seconds - untraced_s),
            tracer,
            &expected,
            report,
        )?;
        report.put(
            "trace.overhead_frac",
            p50(&mut traced_rounds.round_us) / round_p50 - 1.0,
            "ratio",
        );
        let sap1 = words(HistogramMethod::Sap1, ROUND[0].3);
        hist_builds(
            &[("sap1", HistogramMethod::Sap1, &setup.inputs[0], sap1)],
            tracer,
            report,
        )?;
    }
    report.put(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(())
}
