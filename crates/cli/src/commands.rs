//! The CLI subcommands.

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use synoptic_catalog::{Catalog, ColumnEntry, DurableCatalog, FsStorage, PersistentSynopsis};
use synoptic_core::{
    Budget, CancelToken, PrefixSums, RangeEstimator, RangeQuery, RoundingMode, SynopticError,
};
use synoptic_data::zipf::{paper_dataset, ZipfConfig};
use synoptic_eval::methods::{exact_sse, MethodSpec};
use synoptic_hist::opta::{build_opt_a_with_budget, OptAConfig};
use synoptic_hist::reopt::reoptimize_with_budget;
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_hist::sap1::build_sap1_with_budget;
use synoptic_hist::{run_ladder, AnytimeParams, HistogramMethod};
use synoptic_wavelet::{coeffs_for_budget, RangeOptimalWavelet};

use crate::io::{parse_range, read_column, write_column, Flags};

// The exit-code contract lives in `synoptic_api::exit` — one table shared
// by the CLI, the serving tier's wire errors, and `docs/ROBUSTNESS.md`
// (whose §7.2 table the api crate's tests parse). `CliError::from` maps
// every `SynopticError` through `synoptic_api::exit_code`; the constants
// imported here are the ones the command layer assigns directly.
pub use synoptic_api::{EXIT_CORRUPT, EXIT_FAILURE, EXIT_USAGE};

/// A CLI failure carrying the process exit code it maps to. The code
/// contract is part of the CLI's public interface (see `USAGE` and
/// `crates/cli/tests/store_cli.rs`).
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message, printed to stderr by `main`.
    pub msg: String,
    /// Process exit code (one of the `EXIT_*` constants).
    pub code: u8,
}

impl CliError {
    /// A usage error (exit 2).
    pub fn usage(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            code: EXIT_USAGE,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        Self {
            msg,
            code: EXIT_FAILURE,
        }
    }
}

impl From<SynopticError> for CliError {
    fn from(e: SynopticError) -> Self {
        Self {
            msg: e.to_string(),
            code: synoptic_api::exit_code(&e),
        }
    }
}

/// Maps flag/usage-layer `Result<_, String>` values to exit-2 errors.
trait UsageExt<T> {
    fn usage(self) -> Result<T, CliError>;
}

impl<T> UsageExt<T> for Result<T, String> {
    fn usage(self) -> Result<T, CliError> {
        self.map_err(CliError::usage)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
synoptic — range-sum synopses from the PODS 2001 paper

USAGE:
  synoptic generate --n N [--alpha A] [--mass M] [--seed S] [--permuted] --out FILE
  synoptic build    --input FILE --method METHOD --budget WORDS \\
                    --catalog DIR --column NAME \\
                    [--deadline-ms MS] [--max-cells N] [--anytime] \\
                    [--cancel-after-checks K]
  synoptic estimate --catalog DIR --column NAME --range LO..HI
  synoptic evaluate --input FILE [--budget WORDS] [--deadline-ms MS] [--max-cells N]
  synoptic maintain --input FILE --method METHOD [--budget WORDS] \\
                    [--updates U] [--every-k K | --drift F] [--workers W] \\
                    [--segments N] \\
                    [--upgrade-in-background] [--upgrade-factor X] \\
                    [--deadline-ms MS] [--max-cells N] [--seed S] \\
                    [--wal-dir DIR --catalog DIR [--fsync every|N|rotate]
                     [--segment-bytes B] [--discard-journal]
                     [--replicate-to HOST:PORT]]
  synoptic serve    --input FILE --method METHOD [--budget WORDS] \\
                    --listen HOST:PORT [--port-file FILE] [--column NAME] \\
                    [--workers W] [--every-k K | --drift F] \\
                    [--max-batch N] [--max-queue-depth N] \\
                    [--max-rebuild-lag N] [--tenant-burst N] \\
                    [--tenant-refill-ms MS] \\
                    [--cache-capacity N] [--max-conns N] \\
                    [--deadline-ms MS] [--max-cells N]
  synoptic ship     --wal-dir DIR --to HOST:PORT [--column NAME] \\
                    [--seed --catalog DIR [--node N] [--term T]]
  synoptic follow   --catalog DIR --wal-dir DIR --listen HOST:PORT \\
                    [--max-lag N] [--sessions K] [--port-file FILE] \\
                    [--auto-promote [--node N] [--lease-ttl-ms MS]]
  synoptic reseed   --catalog DIR --wal-dir DIR --listen HOST:PORT \\
                    [--max-lag N] [--port-file FILE]
  synoptic recover  --catalog DIR --wal-dir DIR [--commit]
  synoptic report   --catalog DIR
  synoptic fsck     --catalog DIR
  synoptic repair   --catalog DIR [--prune]

METHODS: naive | opt-a | opt-a-reopt | sap0 | sap1 | wavelet-range
         (maintain: naive | equi-depth | point-opt | a0 | sap0 | sap1 | opt-a)
FILES:   one integer frequency per line ('#' comments allowed)
CATALOG: a store directory of checksummed synopsis files with generational
         manifests (see docs/PERSISTENCE.md); corrupt files are quarantined,
         never deleted, and estimates degrade gracefully with a warning.
MAINTAIN: simulates a live column on the background worker pool: U updates
         ingest while rebuilds run off-thread (--workers threads, --every-k /
         --drift policy); --upgrade-in-background re-runs the requested
         method at --upgrade-factor x budget after a degraded rebuild and
         hot-swaps the result (see docs/ROBUSTNESS.md). --segments N splits
         the domain into N equi-width segments with per-segment synopses
         (budget divided once by the catalog's knapsack DP): updates dirty
         only the touched segment, rebuilds re-run the ladder on dirty
         slices alone, and the report lists per-segment provenance
         (see docs/SEGMENTS.md).
SERVE:   binds a TCP listener and answers the checksummed SQP1 query
         protocol (see docs/SERVING.md): batched range estimates answered
         against a single snapshot pin, point updates, and per-column
         stats. A generation-keyed answer cache (--cache-capacity entries;
         0 disables) is invalidated wholesale by every hot-swap. Admission
         control refuses loudly (exit 10) when in-flight requests exceed
         --max-queue-depth, a column's unrebuilt updates exceed
         --max-rebuild-lag, a tenant's token bucket (--tenant-burst
         tokens, one back every --tenant-refill-ms) runs dry, or
         concurrent connections exceed --max-conns. Requests may carry a
         deadline, a tenant name, and a degrade-ok flag; expired work is
         shed before execution and degrade-ok estimates are answered
         from a stamped fallback ladder instead of refused. --port-file
         publishes the bound port (for --listen HOST:0).
DURABILITY: with --wal-dir every acknowledged update is appended to a
         checksummed write-ahead journal before it touches memory, and each
         successful rebuild commits an exact snapshot + WAL mark to
         --catalog, truncating the journal. --fsync picks the sync cadence:
         'every' record (default), every N records, or on segment rotation.
         `recover` replays journal records past the committed mark onto the
         snapshot (fsck + abandoned-generation pruning run first) and with
         --commit saves the result as a new generation and checkpoints the
         journals (see docs/PERSISTENCE.md). maintain refuses to start over
         a journal holding unreplayed acknowledged records from an earlier
         run unless --discard-journal explicitly drops them.
REPLICATION: `follow` binds a listener, accepts --sessions leader
         connections (default 1), verifies every shipped segment (frame
         CRC, record CRCs, consecutive-LSN anchoring at its applied mark),
         journals it locally, and applies it to a live read-only replica;
         a segment that does not validate is refused with the reason, never
         applied in part. `ship` streams a journal's sealed segments to a
         follower and retries until the follower's cumulative ack covers
         the journal; `maintain --replicate-to` does the same continuously,
         shipping on every segment seal while retention holds keep
         checkpoint truncation from deleting unacknowledged segments.
         Replica reads staler than --max-lag records are refused with the
         observed lag (exit 8). Promotion is `recover` on the follower's
         own catalog + journal (see docs/REPLICATION.md). `maintain
         --replicate-to` also fans in every other column journal found
         under --wal-dir over the same link before the live loop starts.
FAILOVER: with --auto-promote, `follow` serves under a heartbeat lease:
         a leader silent past --lease-ttl-ms (default 3000) expires the
         lease and the replica promotes itself in place — crash recovery
         over its own files plus a durable claim of the next election
         term — and serves its first read immediately. Every shipped
         frame carries the sender's term; a deposed leader's writes are
         refused with both terms and its shipper exits fenced (exit 9).
         `ship --seed` streams the committed snapshot + journal tail of
         --catalog so the fenced ex-leader can run `reseed` (fresh
         directories) and rejoin as a follower of the new leader
         (see docs/REPLICATION.md and docs/ROBUSTNESS.md).
REPAIR:  quarantines corrupt/stray files and re-points CURRENT at the
         newest valid generation; with --prune it also deletes abandoned
         never-committed generation files (fsck lists them; repair without
         --prune never deletes anything).
BUDGETS: --deadline-ms / --max-cells bound the build (wall clock / DP cells).
         By default an exhausted budget aborts with a distinct exit code;
         with --anytime the build falls down a cheaper-method ladder and the
         committed synopsis reports its provenance (see docs/ROBUSTNESS.md).
         --cancel-after-checks K trips cooperative cancellation at the K-th
         budget checkpoint (deterministic; for scripting and tests).

EXIT CODES:
  0 success    1 failure    2 usage error    4 corrupt synopsis/store
  5 deadline or cell budget exceeded         6 build cancelled
  7 unrecoverable write-ahead journal (recover)
  8 replication divergence or stale replica read refused
  9 fenced: this node's election term was superseded by a newer leader
  10 refused by the serving tier's admission control (back off and retry)";

/// Opens the store at `dir`, creating it only when `create` is set —
/// read-only commands must not invent an empty store at a mistyped path.
fn open_store(dir: &str, create: bool) -> Result<DurableCatalog<FsStorage>, CliError> {
    if !create && !std::path::Path::new(dir).is_dir() {
        return Err(CliError::usage(format!(
            "catalog store '{dir}' does not exist"
        )));
    }
    Ok(DurableCatalog::open(dir, FsStorage::new())?)
}

/// `generate`: emit a synthetic Zipf column per the paper's recipe.
pub fn generate(args: &[String]) -> Result<(), CliError> {
    let f = Flags::parse(args).usage()?;
    let cfg = ZipfConfig {
        n: f.parsed("n").usage()?,
        alpha: f.parsed_or("alpha", 1.8).usage()?,
        total_mass: f.parsed_or("mass", 10_000.0).usage()?,
        permute: f.switch("permuted"),
        seed: f.parsed_or("seed", 2001).usage()?,
        ..ZipfConfig::default()
    };
    let out = f.required("out").usage()?;
    let data = paper_dataset(&cfg);
    write_column(out, data.values())?;
    println!(
        "wrote {} values (total mass {}) to {out}",
        data.n(),
        data.total()
    );
    Ok(())
}

/// Execution-control knobs parsed from `--deadline-ms` / `--max-cells` /
/// `--cancel-after-checks`. Fresh [`Budget`]s are minted per build attempt
/// (ladder rungs each get the full allowance); the cancel token is shared,
/// so cancellation cuts through every rung.
fn parse_exec(f: &Flags) -> Result<AnytimeParams, CliError> {
    Ok(AnytimeParams {
        deadline: f
            .parsed_opt::<u64>("deadline-ms")
            .usage()?
            .map(Duration::from_millis),
        max_cells: f.parsed_opt::<u64>("max-cells").usage()?,
        cancel: f
            .parsed_opt::<u64>("cancel-after-checks")
            .usage()?
            .map(|k| {
                let t = CancelToken::new();
                t.cancel_after_checks(k);
                t
            }),
    })
}

/// Builds one persistable `method` under `exec`. The method names are
/// the ones [`persistable_ladder`] admits.
fn build_synopsis(
    method: &str,
    ps: &PrefixSums,
    budget: usize,
    exec: &Budget,
) -> synoptic_core::Result<PersistentSynopsis> {
    // Sizes come from the library's word accounting, so a budget too small
    // for one bucket (or one coefficient) is refused, never exceeded.
    let buckets = |m: HistogramMethod| m.buckets_for_budget(budget, ps.n());
    Ok(match method {
        "naive" => {
            buckets(HistogramMethod::Naive)?;
            exec.check()?;
            PersistentSynopsis::from_naive(ps)
        }
        "opt-a" => {
            let b = buckets(HistogramMethod::OptA)?;
            let r = build_opt_a_with_budget(ps, &OptAConfig::exact(b, RoundingMode::None), exec)?;
            let vh = synoptic_core::ValueHistogram::with_averages(
                r.histogram.bucketing().clone(),
                ps,
                "OPT-A",
            )?;
            PersistentSynopsis::from_value_histogram(&vh)
        }
        "opt-a-reopt" => {
            let b = buckets(HistogramMethod::OptAReopt)?;
            let base =
                build_opt_a_with_budget(ps, &OptAConfig::exact(b, RoundingMode::None), exec)?;
            let re = reoptimize_with_budget(base.histogram.bucketing(), ps, "OPT-A", exec)?;
            PersistentSynopsis::from_value_histogram(&re.histogram)
        }
        "sap0" => {
            let b = buckets(HistogramMethod::Sap0)?;
            PersistentSynopsis::from_sap0(&build_sap0_with_budget(ps, b, exec)?.0)
        }
        "sap1" => {
            let b = buckets(HistogramMethod::Sap1)?;
            PersistentSynopsis::from_sap1(&build_sap1_with_budget(ps, b, exec)?.0)
        }
        "wavelet-range" => {
            let b = coeffs_for_budget(budget)?;
            PersistentSynopsis::from_wavelet_range(&RangeOptimalWavelet::build_with_budget(
                ps, b, exec,
            )?)
        }
        other => {
            return Err(SynopticError::InvalidParameter(format!(
                "no persistable build for '{other}'"
            )))
        }
    })
}

/// The CLI-side fallback ladder over *persistable* methods, mirroring the
/// library ladder in `synoptic_hist::fallback_ladder`; `None` for a method
/// the CLI cannot persist. The terminal `naive` rung runs without resource
/// constraints so a synopsis always lands.
fn persistable_ladder(method: &str) -> Option<Vec<(&'static str, bool)>> {
    Some(match method {
        "naive" => vec![("naive", false)],
        "opt-a" => vec![("opt-a", true), ("sap0", true), ("naive", false)],
        "opt-a-reopt" => vec![("opt-a-reopt", true), ("sap0", true), ("naive", false)],
        "sap0" => vec![("sap0", true), ("naive", false)],
        "sap1" => vec![("sap1", true), ("sap0", true), ("naive", false)],
        "wavelet-range" => vec![("wavelet-range", true), ("naive", false)],
        _ => return None,
    })
}

/// `build`: construct a synopsis and commit it to the store as a new
/// generation (the previous generation stays on disk for fallback).
pub fn build(args: &[String]) -> Result<(), CliError> {
    let f = Flags::parse(args).usage()?;
    let input = f.required("input").usage()?;
    let method = f.required("method").usage()?;
    let budget: usize = f.parsed_or("budget", 32).usage()?;
    let store_dir = f.required("catalog").usage()?;
    let column = f.required("column").usage()?;
    let exec = parse_exec(&f)?;
    let anytime = f.switch("anytime");

    let Some(ladder) = persistable_ladder(method) else {
        return Err(CliError::usage(format!(
            "unknown method '{method}' (naive|opt-a|opt-a-reopt|sap0|sap1|wavelet-range)"
        )));
    };

    let values = read_column(input)?;
    let ps = PrefixSums::from_values(&values);
    let total_rows = i64::try_from(ps.total()).map_err(|_| SynopticError::Overflow)?;
    // Without --anytime the requested method is the only rung, so any
    // exhausted limit aborts (distinct exit code); with it the build
    // descends the persistable ladder and the outcome says what landed.
    let rungs = if anytime {
        ladder
    } else {
        vec![(method, true)]
    };
    let (synopsis, outcome) = run_ladder(
        method,
        &rungs,
        &exec,
        |rung| rung.to_string(),
        |rung, b| build_synopsis(rung, &ps, budget, b),
    )?;
    if outcome.is_degraded() {
        eprintln!("warning: degraded build for column '{column}' ({outcome})");
    }

    let store = open_store(store_dir, true)?;
    // Start from the committed generation when one exists; a damaged store
    // refuses here — run `fsck`/`repair` first rather than overwriting
    // evidence.
    let mut catalog = match store.effective_manifest() {
        Ok(_) => store.load()?,
        Err(_) => Catalog::new(),
    };
    let words = synopsis.storage_words();
    catalog.insert(
        column,
        ColumnEntry {
            n: values.len(),
            total_rows,
            synopsis,
        },
    );
    let generation = store.save(&catalog)?;
    println!(
        "built {method} for column '{column}' ({words} words) → {store_dir} generation {generation}"
    );
    if !exec.is_unconstrained() || anytime {
        println!("provenance: {outcome}");
    }
    Ok(())
}

/// `estimate`: answer one range query through the degraded-mode-aware
/// fallback chain. A non-primary answer prints a warning on stderr so
/// degradation is never silent. Goes through the unified
/// [`Queryable`](synoptic_api::Queryable) surface — the same trait the
/// serving tier, pool columns, and replication followers answer on — so
/// the CLI consumes exactly the envelope a remote client would.
pub fn estimate(args: &[String]) -> Result<(), CliError> {
    use synoptic_api::Queryable;

    let f = Flags::parse(args).usage()?;
    let store = open_store(f.required("catalog").usage()?, false)?;
    let column = f.required("column").usage()?;
    let (lo, hi) = parse_range(f.required("range").usage()?).usage()?;
    let q = RangeQuery::new(lo, hi)?;
    let answer = store.query(column, q)?;
    if answer.is_degraded() {
        eprintln!(
            "warning: degraded answer for column '{column}' (source: {})",
            answer.source
        );
    }
    println!("{:.2}", answer.value);
    Ok(())
}

/// `serve`: bind a TCP listener and answer the checksummed SQP1 batched
/// query protocol over a maintained pool column — batched estimates
/// against a single snapshot pin, point updates feeding the rebuild
/// policy, per-column stats, and loud admission-control refusals
/// (exit 10). Runs until killed (or the listener fails); scripts read
/// the bound port from `--port-file`. See `docs/SERVING.md`.
pub fn serve(args: &[String]) -> Result<(), CliError> {
    use std::net::ToSocketAddrs;
    use synoptic_serve::{ServeConfig, Server};
    use synoptic_stream::{ColumnBuild, MaintainedPool, RebuildConfig};

    let f = Flags::parse(args).usage()?;
    let values = read_column(f.required("input").usage()?)?;
    let method_name = f.required("method").usage()?;
    let method = maintained_method(method_name)?;
    let budget: usize = f.parsed_or("budget", 32).usage()?;
    let column = f.optional("column").unwrap_or("cli").to_string();
    let listen = f.required("listen").usage()?;
    // Validate the address (including the port range) up front so a typo
    // is a usage error, not a runtime bind failure.
    if listen
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .is_none()
    {
        return Err(CliError::usage(format!(
            "invalid --listen address '{listen}' (expected HOST:PORT)"
        )));
    }
    let workers: usize = f.parsed_or("workers", 2).usage()?;
    if workers == 0 {
        return Err(CliError::usage("--workers must be at least 1"));
    }

    let policy = rebuild_policy(&f, 64)?;
    let rebuild = RebuildConfig::new(policy).with_exec(parse_exec(&f)?);

    // Serving-tier bounds, each validated before the listener binds.
    let defaults = ServeConfig::default();
    let max_batch: usize = f.parsed_or("max-batch", defaults.max_batch).usage()?;
    if max_batch == 0 {
        return Err(CliError::usage("--max-batch must be at least 1"));
    }
    let max_queue_depth: u64 = f
        .parsed_or("max-queue-depth", defaults.max_queue_depth)
        .usage()?;
    if max_queue_depth == 0 {
        return Err(CliError::usage("--max-queue-depth must be at least 1"));
    }
    let tenant_burst: Option<u64> = f.parsed_opt("tenant-burst").usage()?;
    if tenant_burst == Some(0) {
        return Err(CliError::usage("--tenant-burst must be at least 1"));
    }
    let tenant_refill_ms: u64 = f
        .parsed_or("tenant-refill-ms", defaults.tenant_refill_ms)
        .usage()?;
    let cache_capacity: usize = f
        .parsed_or("cache-capacity", defaults.cache_capacity)
        .usage()?;
    let max_connections: u64 = f.parsed_or("max-conns", defaults.max_connections).usage()?;
    if max_connections == 0 {
        return Err(CliError::usage("--max-conns must be at least 1"));
    }
    let config = ServeConfig {
        max_batch,
        max_queue_depth,
        max_rebuild_lag: f.parsed_opt("max-rebuild-lag").usage()?,
        tenant_burst,
        tenant_refill_ms,
        cache_capacity,
        max_connections,
        ..defaults
    };

    let n = values.len();
    let pool = MaintainedPool::new(workers);
    let col = pool.add_column(
        &column,
        &values,
        ColumnBuild::Anytime {
            method,
            budget_words: budget,
        },
        rebuild,
    )?;
    if let Some(outcome) = col.last_outcome() {
        println!("initial build: {outcome}");
    }

    let (listener, local) = bind_listener(&f, listen)?;
    let server = Server::new(config);
    server.register(col);
    println!("serving column '{column}' ({method_name}, {budget} words, n = {n}) on {local}");
    server
        .serve(listener)
        .map_err(|e| CliError::from(format!("serve: {e}")))?;
    drop(pool);
    Ok(())
}

/// `evaluate`: compare methods on a column file at one budget. Every
/// method builds through the anytime ladder (constrained by
/// `--deadline-ms`/`--max-cells` when given) and every row carries its
/// provenance, so a method that could not be built shows *what it degraded
/// to* rather than silently misreporting its error.
pub fn evaluate(args: &[String]) -> Result<(), CliError> {
    let f = Flags::parse(args).usage()?;
    let values = read_column(f.required("input").usage()?)?;
    let ps = PrefixSums::from_values(&values);
    let budget: usize = f.parsed_or("budget", 32).usage()?;
    let params = parse_exec(&f)?;
    println!(
        "n = {}, rows = {}, budget = {budget} words; SSE over all {} ranges",
        values.len(),
        ps.total(),
        RangeQuery::count_all(values.len())
    );
    println!(
        "{:<14} {:>8} {:>14} {:>12}  provenance",
        "method", "words", "sse", "rmse"
    );
    for m in [
        MethodSpec::Naive,
        MethodSpec::EquiDepth,
        MethodSpec::PointOpt,
        MethodSpec::Sap0,
        MethodSpec::Sap1,
        MethodSpec::OptA,
        MethodSpec::OptAReopt,
        MethodSpec::WaveletRange,
    ] {
        match m.build_tracked(&values, &ps, budget, &params) {
            Ok((est, outcome)) => {
                let sse = exact_sse(est.as_ref(), &ps);
                let rmse = (sse / RangeQuery::count_all(values.len()) as f64).sqrt();
                println!(
                    "{:<14} {:>8} {:>14.4e} {:>12.2}  {outcome}",
                    m.name(),
                    est.storage_words(),
                    sse,
                    rmse
                );
            }
            Err(e @ SynopticError::Cancelled) => return Err(e.into()),
            Err(e) => println!("{:<14} {:>8} {e}", m.name(), "-"),
        }
    }
    Ok(())
}

/// Maps a CLI method spelling to the anytime-ladder histogram family used
/// by `maintain` (the pool rebuilds through `build_anytime`, so only
/// histogram methods — not wavelets — are maintainable this way).
fn maintained_method(name: &str) -> Result<synoptic_hist::HistogramMethod, CliError> {
    use synoptic_hist::HistogramMethod as M;
    Ok(match name {
        "naive" => M::Naive,
        "equi-depth" => M::EquiDepth,
        "point-opt" => M::PointOpt,
        "a0" => M::A0,
        "sap0" => M::Sap0,
        "sap1" => M::Sap1,
        "opt-a" => M::OptA,
        other => {
            return Err(CliError::usage(format!(
                "unknown maintainable method '{other}' \
                 (naive|equi-depth|point-opt|a0|sap0|sap1|opt-a)"
            )));
        }
    })
}

/// The `--every-k K | --drift F` rebuild policy shared by `maintain` and
/// `serve`: mutually exclusive and bounds-checked here (exit 2, not a
/// runtime refusal later). Without either flag the column rebuilds every
/// `default_every_k` updates.
fn rebuild_policy(
    f: &Flags,
    default_every_k: u64,
) -> Result<synoptic_stream::RebuildPolicy, CliError> {
    use synoptic_stream::RebuildPolicy;

    let every_k: Option<u64> = f.parsed_opt("every-k").usage()?;
    let drift: Option<f64> = f.parsed_opt("drift").usage()?;
    if every_k.is_some() && drift.is_some() {
        return Err(CliError::usage(
            "--every-k and --drift are mutually exclusive",
        ));
    }
    if every_k == Some(0) {
        return Err(CliError::usage("--every-k must be at least 1"));
    }
    if drift.is_some_and(|fr| !(fr.is_finite() && fr > 0.0)) {
        return Err(CliError::usage(
            "--drift must be a finite positive fraction",
        ));
    }
    Ok(match drift {
        Some(fr) => RebuildPolicy::DriftFraction(fr),
        None => RebuildPolicy::EveryKUpdates(every_k.unwrap_or(default_every_k)),
    })
}

/// Parses the `--fsync` cadence: `every` (per record, the default), a
/// number `N` (every N records), or `rotate` (on segment rotation only).
fn parse_fsync(s: &str) -> Result<synoptic_catalog::wal::FsyncCadence, CliError> {
    use synoptic_catalog::wal::FsyncCadence;
    Ok(match s {
        "every" => FsyncCadence::EveryRecord,
        "rotate" => FsyncCadence::OnRotate,
        n => match n.parse::<u64>() {
            Ok(k) if k > 0 => FsyncCadence::EveryN(k),
            _ => {
                return Err(CliError::usage(format!(
                    "invalid --fsync '{s}' (every | N | rotate)"
                )));
            }
        },
    })
}

/// `maintain`: simulate a live column on the sharded background worker
/// pool — ingest a pseudo-random update stream, let the rebuild policy
/// fire, and report what the maintenance layer did. With budget flags the
/// rebuilds degrade down the anytime ladder; with
/// `--upgrade-in-background` the pool then quietly re-runs the requested
/// method at a larger budget and hot-swaps the better synopsis in. With
/// `--wal-dir` (plus `--catalog`) ingest becomes crash-safe: updates are
/// journaled before they are acknowledged and rebuild snapshots commit
/// durably with their WAL mark (see `recover`).
pub fn maintain(args: &[String]) -> Result<(), CliError> {
    use synoptic_stream::{ColumnBuild, MaintainedPool, RebuildConfig};

    let f = Flags::parse(args).usage()?;
    let values = read_column(f.required("input").usage()?)?;
    let method_name = f.required("method").usage()?;
    let method = maintained_method(method_name)?;
    let budget: usize = f.parsed_or("budget", 32).usage()?;
    let updates: u64 = f.parsed_or("updates", 256).usage()?;
    let workers: usize = f.parsed_or("workers", 2).usage()?;
    let policy = rebuild_policy(&f, (updates / 8).max(1))?;
    let seed: u64 = f.parsed_or("seed", 2001).usage()?;

    let mut config = RebuildConfig::new(policy).with_exec(parse_exec(&f)?);
    if f.switch("upgrade-in-background") {
        let factor: u32 = f.parsed_or("upgrade-factor", 4).usage()?;
        config = config.with_background_upgrade(factor);
    }

    let n = values.len();
    let pool = MaintainedPool::new(workers);
    let build = match f.parsed_opt("segments").usage()? {
        None => ColumnBuild::Anytime {
            method,
            budget_words: budget,
        },
        Some(segments) => ColumnBuild::Segmented {
            method,
            budget_words: budget,
            segments,
        },
    };
    let wal_dir = f.optional("wal-dir").map(str::to_string);
    let col = match &wal_dir {
        None => pool.add_column("cli", &values, build, config)?,
        Some(wal_dir) => {
            use std::sync::Arc;
            use synoptic_catalog::wal::scan_column_journal;
            use synoptic_stream::{catalog_persist_hook, DurabilityConfig, SharedStorage};

            let Some(catalog_dir) = f.optional("catalog") else {
                return Err(CliError::usage(
                    "--wal-dir requires --catalog (the journal replays onto \
                     committed snapshots; see `synoptic recover`)",
                ));
            };
            let mut durability = DurabilityConfig::journaled(wal_dir);
            if let Some(s) = f.optional("fsync") {
                durability = durability.with_fsync(parse_fsync(s)?);
            }
            if let Some(bytes) = f.parsed_opt("segment-bytes").usage()? {
                durability = durability.with_segment_bytes(bytes);
            }
            // Commit the input as the initial generation. The WAL mark is
            // set past any pre-existing journal so stale records from an
            // earlier run never replay onto this fresh snapshot — which
            // would silently discard acknowledged records a crashed earlier
            // run left unreplayed, so that needs explicit consent.
            let store = DurableCatalog::open(catalog_dir, FsStorage::new())?;
            let mut catalog = match store.effective_manifest() {
                Ok(_) => store.load()?,
                Err(_) => Catalog::new(),
            };
            let scan =
                scan_column_journal(&FsStorage::new(), std::path::Path::new(wal_dir), "cli", 0)?;
            if scan.max_lsn > catalog.wal_mark("cli") && !f.switch("discard-journal") {
                return Err(CliError::usage(format!(
                    "journal in {wal_dir} holds acknowledged record(s) past the \
                     committed mark {} (up to lsn {}) from an earlier run; replay \
                     them first with `synoptic recover --catalog {catalog_dir} \
                     --wal-dir {wal_dir} --commit`, or pass --discard-journal to \
                     drop them",
                    catalog.wal_mark("cli"),
                    scan.max_lsn
                )));
            }
            catalog.insert_exact("cli", &values, scan.max_lsn)?;
            let generation = store.save(&catalog)?;

            // Each successful rebuild commits the exact snapshot + WAL mark
            // as a new generation; the pool then truncates the journal up
            // to that mark.
            let hook =
                catalog_persist_hook(DurableCatalog::open(catalog_dir, FsStorage::new())?, "cli");
            let storage: SharedStorage = Arc::new(FsStorage::new());
            pool.add_column_durable(
                "cli",
                &values,
                build,
                config,
                storage,
                &durability,
                generation,
                Some(hook),
            )?
        }
    };
    if let Some(outcome) = col.last_outcome() {
        println!("initial build: {outcome}");
    }

    // Continuous replication: a shipping thread streams every sealed
    // segment to the follower, while a retention hold keeps checkpoint
    // truncation from deleting anything the follower has not acked.
    let replication = match f.optional("replicate-to") {
        None => None,
        Some(addr) => {
            let Some(wal_dir) = &wal_dir else {
                return Err(CliError::usage(
                    "--replicate-to requires --wal-dir (only journaled segments ship)",
                ));
            };
            // Stamp every shipped frame with this node's election term so
            // a replica that granted a newer term fences us loudly
            // (exit 9) instead of accepting a deposed leader's writes.
            let catalog_dir = f.required("catalog").usage()?;
            let (term, _) =
                synoptic_repl::TermLedger::open(catalog_dir, FsStorage::new())?.current()?;
            Some(start_replication(&col, addr, wal_dir, term)?)
        }
    };

    // A deterministic xorshift update stream: positions over the domain,
    // deltas in ±[1, 8].
    let mut state = seed | 1;
    let mut scheduled = 0u64;
    for _ in 0..updates {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let i = (state % n as u64) as usize;
        let delta = ((state >> 32) % 8 + 1) as i64 * if state & 1 == 0 { 1 } else { -1 };
        if col.update(i, delta)? {
            scheduled += 1;
        }
    }
    col.quiesce();

    let stats = col.stats();
    let full = RangeQuery { lo: 0, hi: n - 1 };
    let exact = col.exact(full);
    let est = col.estimate(full);
    println!(
        "ingested {} updates on {} worker(s): {} rebuilds scheduled, \
         {} completed, {} failed, {} upgrades ({} failed), {} coalesced",
        stats.updates,
        pool.workers(),
        scheduled,
        stats.rebuilds,
        stats.failed_rebuilds,
        stats.upgrades,
        stats.failed_upgrades,
        stats.coalesced
    );
    if let Some(segs) = col.segments() {
        println!(
            "segments: {segs} — {} rebuilt, {} reused across {} rebuild(s)",
            stats.segments_rebuilt, stats.segments_reused, stats.rebuilds
        );
        if let (Some(outcomes), Some(budgets)) = (col.segment_outcomes(), col.segment_budgets()) {
            for (s, (outcome, words)) in outcomes.iter().zip(&budgets).enumerate() {
                println!("  segment {s}: {words} words — {outcome}");
            }
        }
    }
    if let Some(wal_dir) = &wal_dir {
        println!(
            "journal: wal mark {} in {wal_dir} (replay with `synoptic recover`)",
            col.wal_mark()
        );
    }
    if let Some(outcome) = col.last_outcome() {
        println!(
            "serving: {} (generation {}) — {outcome}",
            col.estimator().method_name(),
            col.serving_generation()
        );
    }
    if let Some(err) = col.last_error() {
        eprintln!("warning: last maintenance error: {err}");
    }
    if let Some(link) = replication {
        let (acked, rounds) = link.finish(&col)?;
        println!(
            "replication: follower acked lsn {acked} (of mark {}) over {rounds} ship round(s)",
            col.wal_mark()
        );
    } else if let Some(journal) = col.journal() {
        // A clean exit leaves the journal sealed: synced, padding trimmed.
        journal.seal()?;
    }
    println!("full-range estimate {est:.2} vs exact {exact} after the stream");
    pool.shutdown();
    Ok(())
}

/// Name under which `maintain --replicate-to` registers its follower's
/// retention hold.
const REPLICA_HOLD: &str = "replica";

/// A live leader→follower shipping link: a seal hook feeding a channel,
/// drained by a thread that ships and advances the retention hold.
struct ReplicationLink {
    tx: std::sync::mpsc::Sender<u64>,
    thread: std::thread::JoinHandle<Result<(u64, u64), SynopticError>>,
}

/// Connects to the follower, registers the retention hold, and installs
/// the seal hook that triggers a ship round on every segment rotation.
/// Fails fast (before any ingest) when the follower is unreachable.
fn start_replication(
    col: &synoptic_stream::ColumnHandle,
    addr: &str,
    wal_dir: &str,
    term: u64,
) -> Result<ReplicationLink, CliError> {
    use synoptic_repl::{ship_journals, Shipper, TcpTransport};

    let journal = col.journal().expect("--replicate-to requires a journal");
    let mut transport = TcpTransport::connect(addr)?;
    journal.set_retention_hold(REPLICA_HOLD, 0);

    // Multi-column fan-in: journals other columns left under the same
    // --wal-dir (earlier runs, other processes) ship over this same link
    // before the live loop starts, so one follower session converges on
    // every column the directory holds — not just the maintained one.
    let fanned_in = ship_journals(
        &FsStorage::new(),
        std::path::Path::new(wal_dir),
        term,
        Some("cli"),
        &mut transport,
    )?;
    for (column, report) in &fanned_in {
        println!(
            "replication: fanned in column {column} (follower acked lsn {} of {})",
            report.acked_lsn, report.target_lsn
        );
    }
    if !fanned_in.is_empty() {
        println!(
            "replication: {} side column(s) fanned in over the link",
            fanned_in.len()
        );
    }
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    let hook_tx = tx.clone();
    // The hook runs under the journal lock: enqueue only, ship elsewhere.
    journal.set_seal_hook(Some(Box::new(move |_path, last_lsn| {
        let _ = hook_tx.send(last_lsn);
    })));
    let handle = col.clone();
    let shipper = Shipper::new(FsStorage::new(), wal_dir, "cli").with_term(term);
    let thread = std::thread::spawn(move || -> Result<(u64, u64), SynopticError> {
        let mut acked = 0u64;
        let mut rounds = 0u64;
        while let Ok(mark) = rx.recv() {
            // Coalesce a burst of seals into one ship round.
            let mut mark = mark;
            while let Ok(later) = rx.try_recv() {
                mark = mark.max(later);
            }
            let report = shipper.ship(&mut transport, mark)?;
            acked = acked.max(report.acked_lsn);
            rounds += 1;
            // Checkpoints may now truncate everything the follower holds.
            if let Some(journal) = handle.journal() {
                journal.set_retention_hold(REPLICA_HOLD, acked);
            }
        }
        Ok((acked, rounds))
    });
    Ok(ReplicationLink { tx, thread })
}

impl ReplicationLink {
    /// Seals the journal's active tail, ships it as the final round, and
    /// joins the shipping thread. A divergence surfaces here with its
    /// dedicated exit code.
    fn finish(self, col: &synoptic_stream::ColumnHandle) -> Result<(u64, u64), CliError> {
        if let Some(journal) = col.journal() {
            journal.set_seal_hook(None);
            journal.seal()?;
            let _ = self.tx.send(journal.pending_mark());
        }
        drop(self.tx);
        match self.thread.join() {
            Ok(result) => Ok(result?),
            Err(_) => Err(CliError::from("replication thread panicked".to_string())),
        }
    }
}

/// `ship`: stream a journal's segments to a listening follower and block
/// until the follower's cumulative ack covers the journal's last record.
/// With `--seed` it instead streams the full leader state — committed
/// snapshots, the granted election term, and every column's journal
/// tail — to a `reseed` receiver, so a fenced ex-leader can rejoin.
pub fn ship(args: &[String]) -> Result<(), CliError> {
    use synoptic_catalog::wal::scan_column_journal;
    use synoptic_repl::{Seeder, Shipper, TcpTransport, TermLedger, Transport};

    let f = Flags::parse(args).usage()?;
    let wal_dir = f.required("wal-dir").usage()?;
    let to = f.required("to").usage()?;
    let column = f.optional("column").unwrap_or("cli");
    if !std::path::Path::new(wal_dir).is_dir() {
        return Err(CliError::usage(format!(
            "journal directory '{wal_dir}' does not exist"
        )));
    }
    if f.switch("seed") {
        let Some(catalog_dir) = f.optional("catalog") else {
            return Err(CliError::usage(
                "--seed requires --catalog (it streams the committed snapshots)",
            ));
        };
        let ledger = TermLedger::open(catalog_dir, FsStorage::new())?;
        let (recorded_term, vote) = ledger.current()?;
        let term = f.parsed_opt("term").usage()?.unwrap_or(recorded_term);
        if term == 0 {
            return Err(CliError::usage(format!(
                "catalog '{catalog_dir}' records no election term; promote \
                 first (`follow --auto-promote`) or pass --term explicitly"
            )));
        }
        let node: u64 = match f.parsed_opt("node").usage()? {
            Some(n) => n,
            None => vote.unwrap_or(1),
        };
        let mut transport = TcpTransport::connect(to)?;
        let seeder = Seeder::new(FsStorage::new(), catalog_dir, wal_dir, term, node);
        let report = seeder.seed(&mut transport)?;
        transport.close();
        println!(
            "seeded {} snapshot(s) and {} journal segment(s) to {to} on \
             term {} (node {node})",
            report.snapshots, report.segments, report.term
        );
        return Ok(());
    }
    let journal = scan_column_journal(&FsStorage::new(), std::path::Path::new(wal_dir), column, 0)?;
    let mut transport = TcpTransport::connect(to)?;
    let shipper = Shipper::new(FsStorage::new(), wal_dir, column);
    let report = shipper.ship_journal(&mut transport, journal)?;
    println!(
        "shipped {} segment(s) of column {column} to {to}: follower acked \
         lsn {} of {} in {} pass(es)",
        report.shipped, report.acked_lsn, report.target_lsn, report.passes
    );
    for refusal in &report.refusals {
        eprintln!("follower refused: {refusal}");
    }
    Ok(())
}

/// `follow`: run a read-only replica. Bootstraps via full crash recovery
/// over its own catalog + journal, then accepts `--sessions` leader
/// connections, verifying and applying shipped segments. Reads staler
/// than `--max-lag` are refused with the observed lag (exit 8).
pub fn follow(args: &[String]) -> Result<(), CliError> {
    use std::sync::Arc;
    use synoptic_repl::{TcpTransport, WallClock};
    use synoptic_stream::{promote, FollowConfig, Follower, ServeOutcome, SharedStorage};

    let f = Flags::parse(args).usage()?;
    let catalog_dir = f.required("catalog").usage()?;
    let wal_dir = f.required("wal-dir").usage()?;
    let listen = f.required("listen").usage()?;
    let max_lag: Option<u64> = f.parsed_opt("max-lag").usage()?;
    let sessions: u64 = f.parsed_or("sessions", 1).usage()?;
    let auto_promote = f.switch("auto-promote");
    let node: u64 = f.parsed_or("node", 1).usage()?;
    let lease_ttl_ms: u64 = f.parsed_or("lease-ttl-ms", 3000).usage()?;
    if !std::path::Path::new(catalog_dir).is_dir() {
        return Err(CliError::usage(format!(
            "catalog store '{catalog_dir}' does not exist"
        )));
    }
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let config = FollowConfig {
        max_lag,
        ..FollowConfig::default()
    };
    let (mut follower, report) = Follower::open(storage, catalog_dir, wal_dir, config)?;
    print!("{}", report.render());

    let (listener, local) = bind_listener(&f, listen)?;
    println!("replica listening on {local} for {sessions} session(s)");
    for session in 1..=sessions {
        let (stream, peer) = listener
            .accept()
            .map_err(|e| CliError::from(format!("accept: {e}")))?;
        let mut transport = TcpTransport::from_stream(stream);
        if !auto_promote {
            follower.serve(&mut transport)?;
            println!("session {session} from {peer}: stream complete");
            continue;
        }
        // Automated failover: serve under a heartbeat lease. A leader
        // that closes cleanly ends the session as usual; a leader that
        // goes silent past the TTL expires the lease and this replica
        // promotes itself in place.
        let clock = WallClock::new();
        match follower.serve_with_lease(
            &mut transport,
            &clock,
            lease_ttl_ms,
            Duration::from_millis(50),
        )? {
            ServeOutcome::LeaderClosed => {
                println!("session {session} from {peer}: stream complete");
            }
            ServeOutcome::LeaseExpired => {
                println!(
                    "session {session} from {peer}: lease expired after \
                     {lease_ttl_ms} ms of leader silence — promoting"
                );
                let storage: SharedStorage = Arc::new(FsStorage::new());
                let (term, report) = promote(storage, catalog_dir, wal_dir, node)?;
                print!("{}", report.render());
                println!("promoted node {node} to leader for term {term}");
                // The promoted replica serves its first read immediately,
                // straight off the recovered state (lag 0 by definition).
                let storage: SharedStorage = Arc::new(FsStorage::new());
                let (promoted, _) =
                    Follower::open(storage, catalog_dir, wal_dir, FollowConfig::default())?;
                for column in promoted.columns() {
                    if let Some(values) = promoted.values(&column) {
                        if !values.is_empty() {
                            let q = RangeQuery::new(0, values.len() - 1)?;
                            let est = promoted.estimate(&column, q)?;
                            println!(
                                "promoted column {column}: first served read \
                                 (full-range sum) {est:.0}"
                            );
                        }
                    }
                }
                return Ok(());
            }
        }
    }
    report_follower(&follower, "replica")
}

/// Binds `listen` for `serve`, `follow` and `reseed`, and writes the bound
/// port to `--port-file` when given: port 0 binds an ephemeral port, and
/// the port file tells scripts (and tests) where the process listens.
fn bind_listener(f: &Flags, listen: &str) -> Result<(TcpListener, SocketAddr), CliError> {
    let listener =
        TcpListener::bind(listen).map_err(|e| CliError::from(format!("bind {listen}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::from(format!("local_addr: {e}")))?;
    if let Some(path) = f.optional("port-file") {
        std::fs::write(path, local.port().to_string())
            .map_err(|e| CliError::from(format!("write {path}: {e}")))?;
    }
    Ok((listener, local))
}

/// The end-of-session report of `follow` and `reseed`: per column (each
/// line prefixed `{label} column`), the applied LSN and lag, then the
/// lag-bounded full-range read, which refuses (exit 8) when too stale;
/// then every refusal the follower recorded, on stderr.
fn report_follower(follower: &synoptic_stream::Follower, label: &str) -> Result<(), CliError> {
    for column in follower.columns() {
        let applied = follower.applied_lsn(&column).unwrap_or(0);
        let lag = follower.lag(&column).unwrap_or(0);
        println!("{label} column {column}: applied lsn {applied}, lag {lag}");
        if let Some(values) = follower.values(&column) {
            if !values.is_empty() {
                let q = RangeQuery::new(0, values.len() - 1)?;
                let est = follower.estimate(&column, q)?;
                println!("{label} column {column}: full-range sum {est:.0}");
            }
        }
    }
    for refusal in follower.refusals() {
        eprintln!("refused: {refusal}");
    }
    Ok(())
}

/// `reseed`: rebuild a stranded (typically fenced ex-leader) node as a
/// follower from a live leader's `ship --seed` stream. The target
/// directories must be fresh — re-seeding exists precisely because the
/// local history diverged, so it never merges onto old state. Receives
/// the granted term, committed snapshots, and journal tail, then keeps
/// serving the session like `follow` until the seeder closes.
pub fn reseed(args: &[String]) -> Result<(), CliError> {
    use std::sync::Arc;
    use synoptic_repl::TcpTransport;
    use synoptic_stream::{rejoin, FollowConfig, SharedStorage};

    let f = Flags::parse(args).usage()?;
    let catalog_dir = f.required("catalog").usage()?;
    let wal_dir = f.required("wal-dir").usage()?;
    let listen = f.required("listen").usage()?;
    let max_lag: Option<u64> = f.parsed_opt("max-lag").usage()?;

    let (listener, local) = bind_listener(&f, listen)?;
    println!("re-seed target listening on {local} (into {catalog_dir} + {wal_dir})");
    let (stream, peer) = listener
        .accept()
        .map_err(|e| CliError::from(format!("accept: {e}")))?;
    let mut transport = TcpTransport::from_stream(stream);
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let config = FollowConfig {
        max_lag,
        ..FollowConfig::default()
    };
    let (mut follower, report) = rejoin(storage, catalog_dir, wal_dir, config, &mut transport)?;
    print!("{}", report.render());
    println!(
        "re-seeded from {peer}: rejoined as a follower on term {}",
        follower.term()
    );
    follower.serve(&mut transport)?;
    report_follower(&follower, "rejoined")
}

/// `recover`: replay the write-ahead journals under `--wal-dir` on top of
/// the committed catalog snapshots (running fsck/repair and
/// abandoned-generation pruning first) and report the reconstructed
/// per-column state. With `--commit` the recovered frequencies are saved
/// back as a new generation and the journals are checkpointed, so the
/// next `maintain` run starts from the recovered state. An untrustworthy
/// journal (corruption beyond the tolerated torn tail, or a journal from
/// a newer generation than the snapshot) exits with the dedicated
/// unrecoverable code.
pub fn recover(args: &[String]) -> Result<(), CliError> {
    use synoptic_catalog::wal::{ColumnWal, WalConfig};

    let f = Flags::parse(args).usage()?;
    let store = open_store(f.required("catalog").usage()?, false)?;
    let wal_dir = f.required("wal-dir").usage()?;
    let report = synoptic_stream::recover(&store, wal_dir)?;
    print!("{}", report.render());
    if !f.switch("commit") {
        return Ok(());
    }
    if report.columns.is_empty() {
        println!("nothing to commit");
        return Ok(());
    }
    let synoptic_stream::RecoveryReport {
        columns,
        mut catalog,
        ..
    } = report;
    for c in &columns {
        catalog.insert_exact(c.name.as_str(), &c.values, c.max_lsn.max(c.committed_mark))?;
    }
    let generation = store.save(&catalog)?;
    for c in &columns {
        let wal = ColumnWal::open(
            FsStorage::new(),
            wal_dir,
            &c.name,
            generation,
            WalConfig::default(),
        )?;
        wal.checkpoint(c.max_lsn.max(c.committed_mark), generation)?;
    }
    println!(
        "committed recovered state as generation {generation}; {} journal(s) checkpointed",
        columns.len()
    );
    Ok(())
}

/// `report`: summarize the committed generation of a store.
pub fn report(args: &[String]) -> Result<(), CliError> {
    let f = Flags::parse(args).usage()?;
    let store = open_store(f.required("catalog").usage()?, false)?;
    let m = store.effective_manifest()?;
    let catalog = store.load()?;
    println!("generation {}", m.generation);
    print!("{}", catalog.summary());
    Ok(())
}

/// `fsck`: read-only consistency check. Exits non-zero when issues exist.
/// On a healthy store it also reports (without touching) abandoned
/// never-committed generations that `repair --prune` would reclaim.
pub fn fsck(args: &[String]) -> Result<(), CliError> {
    let f = Flags::parse(args).usage()?;
    let store = open_store(f.required("catalog").usage()?, false)?;
    let report = store.fsck()?;
    print!("{}", report.render());
    if report.healthy() {
        let prunable = store.prune_abandoned(true)?;
        if !prunable.abandoned_generations.is_empty() {
            print!("{}", prunable.render());
            println!("reclaim with `synoptic repair --catalog DIR --prune`");
        }
        Ok(())
    } else {
        Err(CliError {
            msg: format!(
                "{} issue(s) found — run `synoptic repair --catalog DIR` to quarantine damage",
                report.issues.len()
            ),
            code: EXIT_CORRUPT,
        })
    }
}

/// `repair`: quarantine corrupt/stray files and re-point `CURRENT` at the
/// newest valid generation. Deletes nothing by default; `--prune`
/// additionally reclaims abandoned (valid but never committed) generation
/// files, which is idempotent and skips anything the committed chain still
/// references.
pub fn repair(args: &[String]) -> Result<(), CliError> {
    let f = Flags::parse(args).usage()?;
    let store = open_store(f.required("catalog").usage()?, false)?;
    let report = store.repair()?;
    print!("{}", report.render());
    if f.switch("prune") {
        let pruned = store.prune_abandoned(false)?;
        print!("{}", pruned.render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::AnswerSource;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("{name}_{}", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn full_cli_pipeline() {
        let col = tmp("synoptic_cli_col.txt");
        let cat = tmp("synoptic_cli_store");
        let _ = std::fs::remove_dir_all(&cat);

        generate(&s(&["--n", "32", "--out", &col])).unwrap();
        build(&s(&[
            "--input",
            &col,
            "--method",
            "sap0",
            "--budget",
            "18",
            "--catalog",
            &cat,
            "--column",
            "price",
        ]))
        .unwrap();
        build(&s(&[
            "--input",
            &col,
            "--method",
            "opt-a",
            "--budget",
            "16",
            "--catalog",
            &cat,
            "--column",
            "qty",
        ]))
        .unwrap();
        estimate(&s(&[
            "--catalog",
            &cat,
            "--column",
            "price",
            "--range",
            "0..31",
        ]))
        .unwrap();
        report(&s(&["--catalog", &cat])).unwrap();
        fsck(&s(&["--catalog", &cat])).unwrap();
        evaluate(&s(&["--input", &col, "--budget", "16"])).unwrap();

        // The store answers the whole-domain query near the true total, from
        // the primary synopsis.
        let values = read_column(&col).unwrap();
        let total: i64 = values.iter().sum();
        let store = open_store(&cat, false).unwrap();
        let e = store.estimate("qty", RangeQuery { lo: 0, hi: 31 }).unwrap();
        assert_eq!(e.source, AnswerSource::Primary);
        assert!(
            (e.value - total as f64).abs() < 1.0,
            "estimate {} vs total {total}",
            e.value
        );

        let _ = std::fs::remove_file(&col);
        let _ = std::fs::remove_dir_all(&cat);
    }

    #[test]
    fn build_rejects_unknown_method() {
        let col = tmp("synoptic_cli_col2.txt");
        write_column(&col, &[1, 2, 3, 4]).unwrap();
        let err = build(&s(&[
            "--input",
            &col,
            "--method",
            "magic",
            "--catalog",
            "/dev/null",
            "--column",
            "x",
        ]))
        .unwrap_err();
        assert!(err.msg.contains("unknown method"));
        assert_eq!(err.code, EXIT_USAGE);
        let _ = std::fs::remove_file(&col);
    }

    #[test]
    fn estimate_errors_cleanly_on_missing_store() {
        let err = estimate(&s(&[
            "--catalog",
            "/nonexistent/stats",
            "--column",
            "x",
            "--range",
            "0..1",
        ]))
        .unwrap_err();
        assert!(err.msg.contains("does not exist"), "{}", err.msg);
        assert_eq!(err.code, EXIT_USAGE);
    }

    #[test]
    fn every_cli_method_builds() {
        let col = tmp("synoptic_cli_col3.txt");
        let cat = tmp("synoptic_cli_store3");
        let _ = std::fs::remove_dir_all(&cat);
        generate(&s(&["--n", "24", "--out", &col])).unwrap();
        for m in [
            "naive",
            "opt-a",
            "opt-a-reopt",
            "sap0",
            "sap1",
            "wavelet-range",
        ] {
            build(&s(&[
                "--input",
                &col,
                "--method",
                m,
                "--budget",
                "20",
                "--catalog",
                &cat,
                "--column",
                m,
            ]))
            .unwrap();
        }
        let store = open_store(&cat, false).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 6);
        let _ = std::fs::remove_file(&col);
        let _ = std::fs::remove_dir_all(&cat);
    }

    #[test]
    fn maintain_runs_the_pool_end_to_end() {
        let col = tmp("synoptic_cli_col5.txt");
        generate(&s(&["--n", "48", "--out", &col])).unwrap();
        maintain(&s(&[
            "--input",
            &col,
            "--method",
            "sap0",
            "--budget",
            "18",
            "--updates",
            "200",
            "--every-k",
            "25",
            "--workers",
            "2",
        ]))
        .unwrap();
        // Degraded + upgrade path: a 0-cell budget forces the ladder down to
        // naive, then the background upgrade (huge factor) restores opt-a.
        maintain(&s(&[
            "--input",
            &col,
            "--method",
            "opt-a",
            "--budget",
            "16",
            "--updates",
            "64",
            "--every-k",
            "16",
            "--max-cells",
            "1",
            "--upgrade-in-background",
            "--upgrade-factor",
            "1000000",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&col);
    }

    #[test]
    fn maintain_journals_and_recover_replays() {
        let col = tmp("synoptic_cli_col7.txt");
        let cat = tmp("synoptic_cli_store7");
        let wal = tmp("synoptic_cli_wal7");
        let _ = std::fs::remove_dir_all(&cat);
        let _ = std::fs::remove_dir_all(&wal);
        generate(&s(&["--n", "32", "--out", &col])).unwrap();
        // A rebuild threshold above the update count keeps every update in
        // the journal only: the committed snapshot stays at generation 1.
        maintain(&s(&[
            "--input",
            &col,
            "--method",
            "sap0",
            "--budget",
            "18",
            "--updates",
            "100",
            "--every-k",
            "1000000",
            "--workers",
            "1",
            "--wal-dir",
            &wal,
            "--catalog",
            &cat,
            "--fsync",
            "rotate",
        ]))
        .unwrap();
        let store = open_store(&cat, false).unwrap();
        let r1 = synoptic_stream::recover(&store, &wal).unwrap();
        let c1 = r1.column("cli").unwrap().clone();
        assert_eq!(c1.replayed, 100, "all acknowledged updates replay");
        recover(&s(&["--catalog", &cat, "--wal-dir", &wal, "--commit"])).unwrap();
        // After --commit the journal is checkpointed and the catalog holds
        // the recovered values: a second recovery replays nothing and
        // reconstructs the same state.
        let r2 = synoptic_stream::recover(&store, &wal).unwrap();
        let c2 = r2.column("cli").unwrap();
        assert_eq!(c2.replayed, 0);
        assert_eq!(c2.values, c1.values);
        let _ = std::fs::remove_file(&col);
        let _ = std::fs::remove_dir_all(&cat);
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn maintain_refuses_an_unreplayed_journal_without_discard() {
        let col = tmp("synoptic_cli_col8.txt");
        let cat = tmp("synoptic_cli_store8");
        let wal = tmp("synoptic_cli_wal8");
        let _ = std::fs::remove_dir_all(&cat);
        let _ = std::fs::remove_dir_all(&wal);
        generate(&s(&["--n", "32", "--out", &col])).unwrap();
        let base = [
            "--input",
            &col,
            "--method",
            "naive",
            "--updates",
            "50",
            "--every-k",
            "1000000",
            "--workers",
            "1",
            "--wal-dir",
            &wal,
            "--catalog",
            &cat,
        ];
        // First run leaves 50 acknowledged records in the journal (the
        // rebuild threshold is never reached, so no checkpoint runs): a
        // rerun would silently discard them by fast-forwarding the mark.
        maintain(&s(&base)).unwrap();
        let err = maintain(&s(&base)).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        assert!(err.msg.contains("synoptic recover"), "{}", err.msg);
        assert!(err.msg.contains("--discard-journal"), "{}", err.msg);
        // Replaying them via `recover --commit` clears the debt...
        recover(&s(&["--catalog", &cat, "--wal-dir", &wal, "--commit"])).unwrap();
        maintain(&s(&base)).unwrap();
        // ...and --discard-journal is the explicit drop-them escape hatch.
        let mut discard: Vec<&str> = base.to_vec();
        discard.push("--discard-journal");
        maintain(&s(&discard)).unwrap();
        let _ = std::fs::remove_file(&col);
        let _ = std::fs::remove_dir_all(&cat);
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn maintain_rejects_unmaintainable_method() {
        let col = tmp("synoptic_cli_col6.txt");
        write_column(&col, &[1, 2, 3, 4]).unwrap();
        let err = maintain(&s(&["--input", &col, "--method", "wavelet-range"])).unwrap_err();
        assert!(
            err.msg.contains("unknown maintainable method"),
            "{}",
            err.msg
        );
        assert_eq!(err.code, EXIT_USAGE);
        let _ = std::fs::remove_file(&col);
    }

    #[test]
    fn fsck_flags_damage_and_repair_restores_service() {
        let col = tmp("synoptic_cli_col4.txt");
        let cat = tmp("synoptic_cli_store4");
        let _ = std::fs::remove_dir_all(&cat);
        generate(&s(&["--n", "16", "--out", &col])).unwrap();
        for _ in 0..2 {
            build(&s(&[
                "--input",
                &col,
                "--method",
                "sap1",
                "--budget",
                "20",
                "--catalog",
                &cat,
                "--column",
                "price",
            ]))
            .unwrap();
        }
        // Corrupt the newest synopsis file.
        let victim = std::path::Path::new(&cat).join("price-2.syn");
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&victim, bytes).unwrap();

        let err = fsck(&s(&["--catalog", &cat])).unwrap_err();
        assert!(err.msg.contains("issue"), "{}", err.msg);
        assert_eq!(err.code, EXIT_CORRUPT);
        repair(&s(&["--catalog", &cat])).unwrap();
        // Damage was quarantined, not deleted.
        assert!(std::path::Path::new(&cat)
            .join("quarantine")
            .join("price-2.syn")
            .exists());
        // Repair rolled CURRENT back to the last fully-valid generation, so
        // estimates serve it as primary again.
        estimate(&s(&[
            "--catalog",
            &cat,
            "--column",
            "price",
            "--range",
            "0..15",
        ]))
        .unwrap();
        let store = open_store(&cat, false).unwrap();
        let e = store
            .estimate("price", RangeQuery { lo: 0, hi: 15 })
            .unwrap();
        assert_eq!(e.source, AnswerSource::Primary);
        // And fsck is clean again.
        fsck(&s(&["--catalog", &cat])).unwrap();
        let _ = std::fs::remove_file(&col);
        let _ = std::fs::remove_dir_all(&cat);
    }
}
