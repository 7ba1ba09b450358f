#!/usr/bin/env sh
# Repo gate: formatting, lints, and the tier-1 verify — all fully offline.
# Run from the repo root. Fails fast on the first broken step.
set -eu

# Hard wall-clock cap for each test invocation (seconds). A hung test —
# e.g. a rebuild loop that stops observing its cancellation token — must
# fail CI, not wedge it. `timeout` is in coreutils; degrade gracefully to
# an uncapped run where it is unavailable.
TEST_CAP="${CI_TEST_CAP_SECS:-900}"
if command -v timeout >/dev/null 2>&1; then
    CAP="timeout ${TEST_CAP}"
else
    echo "warning: coreutils 'timeout' not found; running tests uncapped" >&2
    CAP=""
fi

# Everything a step generates goes to one temporary directory, never to a
# tracked file: the bench reports (BENCH_OUT_DIR) and the regenerated paper
# artefacts. The last step checks that results/ is untouched.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "${CI_TMP}"' EXIT
BENCH_OUT="${CI_TMP}/bench"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints tests, examples and benches too, so the sweeps and
# examples are held to the same bar as library code.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --lib"
# Broken or private intra-doc links fail the gate, so a doc comment cannot
# keep pointing at a deleted function. --lib skips the `synoptic` binary,
# whose rustdoc output filename collides with the facade library's.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> tier-1: cargo build --release (offline)"
# This build doubles as the compile-time thread-safety gate: const-context
# `assert_send_sync` proofs in crates/core/src/budget.rs (Budget,
# CancelToken), crates/core/src/swap.rs (HotSwap/HotSwapReader),
# crates/stream/src/pool.rs (ColumnHandle, PinnedBuild, MaintainedPool, and
# the Send bound on DurablePersistFn — the persist hook crosses a thread
# boundary), and
# crates/catalog/src/store.rs (DurableCatalog behind the persist hook)
# fail the build if any of them regresses to !Send or !Sync.
cargo build --release --offline

echo "==> tier-1: cargo test -q (offline, capped at ${TEST_CAP}s)"
${CAP} cargo test -q --offline

echo "==> threaded stress suite: pool under fault injection (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test pool_stress --offline

echo "==> crash-recovery suite: kill-and-recover sweeps (single updates and batches) + journal faults (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test recovery_sweep --offline
${CAP} cargo test -q -p synoptic-stream --test batch_sweep --offline
${CAP} cargo test -q -p synoptic-stream --test maintained_faults --offline
${CAP} cargo test -q -p synoptic-cli --test store_cli --offline

echo "==> replication suite: wire + transports, TCP frame reassembly sweep, faulty-link convergence, promotion sweep, TCP e2e, and (release) the TCP polling window: the reassembly sweep with every recv inside the window, a timeout inside it, a length prefix dribbled past the timeout, a shutdown inside the window, and a 4 MiB send to a slow reader right after a recv that polled (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-repl --offline
# The window is 50 us of wall clock: a release build polls it many more
# times than a debug one, the way the served path runs it.
${CAP} cargo test -q --release -p synoptic-repl --test tcp_reassembly --offline
${CAP} cargo test -q -p synoptic-stream --test replication --offline
${CAP} cargo test -q -p synoptic-stream --test promotion_sweep --offline
${CAP} cargo test -q -p synoptic-cli --test replication_cli --offline

echo "==> failover suite: kill-the-leader sweep, CLI election e2e (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test failover_sweep --offline
${CAP} cargo test -q -p synoptic-cli --test failover_cli --offline

echo "==> serving suite: wire codec + exit-code table, batch pinning, cache invalidation, admission control, CLI e2e, and (release) swap::tests::a_pin_never_pairs_a_value_with_another_generation, the hot-swap pin race, and cache::tests::a_hit_is_always_same_generation_under_concurrent_swaps, the answer-cache generation race (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-api --offline
${CAP} cargo test -q -p synoptic-serve --offline
${CAP} cargo test -q -p synoptic-cli --test serve_cli --offline
${CAP} cargo test -q --release -p synoptic-core --lib swap --offline
${CAP} cargo test -q --release -p synoptic-serve --lib cache --offline

echo "==> decoder fuzz: CRC-resealed mutants of SQP1, SRP1, SYNWAL01 and SYNOPTC1 decode or refuse, never panic (capped at ${TEST_CAP}s)"
${CAP} cargo test -q --test decoder_fuzz --offline

echo "==> overload suite: deadline sheds, tenant admission, degradation ladder, storm proof (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-serve --test overload --offline

echo "==> segment suite: dirty-segment rebuilds, parallel registration, cancellation, and segmented columns against monolithic ones (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test segments --offline

echo "==> replication bench: ship+replay throughput and follower lag (capped at ${TEST_CAP}s)"
BENCH_OUT_DIR="${BENCH_OUT}" ${CAP} cargo run -q --release --offline --example replication_bench

echo "==> failover bench: detection -> promotion -> first-served-read latency, min/median/max over 7 trials (capped at ${TEST_CAP}s)"
BENCH_OUT_DIR="${BENCH_OUT}" ${CAP} cargo run -q --release --offline --example failover_bench

echo "==> segments bench: dirty-segment vs full rebuild and the served column's exact all-range SSE at 1/4/16/64 segments (capped at ${TEST_CAP}s)"
BENCH_OUT_DIR="${BENCH_OUT}" ${CAP} cargo run -q --release --offline --example segments_bench

echo "==> DP kernel bench: ns per DP cell and per oracle call, SAP0/SAP1/A0/POINT-OPT over n x B, SAP0 at n=4096 and over the served segments with the median trial's window-fill split, OPT-A at n=127 (capped at ${TEST_CAP}s)"
BENCH_OUT_DIR="${BENCH_OUT}" ${CAP} cargo run -q --release --offline --example dp_bench

echo "==> overload bench: fresh and answered per second, shed rate, degraded fraction, p50/p99 at 1x/2x/4x offered load, min/median/max over 5 trials (capped at ${TEST_CAP}s)"
BENCH_OUT_DIR="${BENCH_OUT}" ${CAP} cargo run -q --release --offline --example overload_bench

echo "==> perfbench smoke: every BENCHMARK.json workload runs, passes its output checks and reports every declared metric (capped at ${TEST_CAP}s)"
# perfbench is built outside the workspace (into .bench_build), so this is
# the step that catches a pool or serving API change breaking the
# benchmark before the benchmark itself runs.
${CAP} python3 perfbench/smoke_test.py

echo "==> anytime ladder suite: run_ladder under cancellation and the oracle's Overflow step-down, eval build_tracked (capped at ${TEST_CAP}s)"
# Every build that may degrade runs through one rung loop; these name the
# layer a ladder regression lands in before the full run repeats them.
${CAP} cargo test -q -p synoptic-hist --test cancellation_sweep --test oracle_envelope --offline
${CAP} cargo test -q -p synoptic-eval --lib --offline

echo "==> kernel exactness (release): the checked-i64 SAP0 column, its certified i128 fallback and the per-window cost agree bit for bit, and the column DP's lane min-plus matches its k-outer reference on NaN, infinite, signed-zero and tied costs, without debug overflow checks (capped at ${TEST_CAP}s)"
# The narrow path must detect every i64 overflow with its own checked
# arithmetic; a release build has no debug overflow traps to lean on.
${CAP} cargo test -q --release -p synoptic-hist --test oracle_envelope --test additive_vs_exhaustive --offline
${CAP} cargo test -q --release -p synoptic-core --lib window --offline
${CAP} cargo test -q --release -p synoptic-hist --lib dp --offline

echo "==> paper artefacts (release): fig1 (both orders), claims and sweep all regenerate results/ field for field, the wall-clock seconds of sweep_rounding, sweep_states and sweep_hull aside; the comparison script checks itself first (capped at ${TEST_CAP}s)"
# Any change to a DP, an answering procedure or an evaluator that moves a
# figure entry, even by one ulp, fails here with the file and field path.
# A change that moves a figure on purpose regenerates results/ with the
# commands in results/README.md.
python3 scripts/test_compare_artifacts.py
ARTEFACTS="${CI_TMP}/artefacts"
mkdir -p "${ARTEFACTS}"
${CAP} cargo run -q --release --offline -p synoptic-eval --bin fig1 -- --out "${ARTEFACTS}" >/dev/null
${CAP} cargo run -q --release --offline -p synoptic-eval --bin fig1 -- --permuted --out "${ARTEFACTS}/permuted" >/dev/null
${CAP} cargo run -q --release --offline -p synoptic-eval --bin claims -- --out "${ARTEFACTS}" >/dev/null
${CAP} cargo run -q --release --offline -p synoptic-eval --bin sweep -- all --out "${ARTEFACTS}" >/dev/null
python3 scripts/compare_artifacts.py results "${ARTEFACTS}"

echo "==> journal reader (release): the one journal walk, the golden SYNWAL01 bytes, LSNs past u64 refused, CRC-resealed segment mutants refused, the zero-padded segment (wal::tests::a_segment_is_padded_while_active_and_trimmed_when_sealed, ::a_torn_write_at_every_byte_of_a_padded_batch_is_dropped_whole, ::a_torn_final_segment_survives_two_restarts, ::a_damaged_record_the_stream_continues_past_is_refused, ::a_corrupt_read_is_read_again_and_refused_only_when_it_repeats, and ::a_reader_racing_the_writer_sees_whole_batches_and_no_error, a reader thread against a writer appending into the padding), recovery refusing a zeroed record inside the final segment (recovery::tests::a_zeroed_record_inside_the_final_segment_is_refused), the storage backend's one-slot open file (storage::tests::a_write_after_a_remove_or_rename_reaches_the_new_file) and its stat-free listing (storage::tests::fs_storage_lists_files_and_links_to_files_only), the shipper's one validation rule (ship::tests::ship_and_ship_journal_send_the_same_frames over a torn tail, a mid-chain wreck and a sequence floor, and ::a_segment_naming_another_column_is_refused), and the read count of every journal consumer, the shipper's sequence floor and the one-read fan-in (journal_reads::the_fan_in_reads_each_file_once) included, without debug overflow checks (capped at ${TEST_CAP}s)"
# An LSN that wraps u64 is silent in a release build, which has no
# overflow traps: the decoder's own checked arithmetic must refuse it.
${CAP} cargo test -q --release -p synoptic-catalog --lib wal --offline
${CAP} cargo test -q --release -p synoptic-catalog --lib storage --offline
${CAP} cargo test -q --release --test decoder_fuzz --offline
${CAP} cargo test -q --release -p synoptic-stream --lib recovery --offline
${CAP} cargo test -q --release -p synoptic-repl --lib ship --offline
${CAP} cargo test -q --release -p synoptic-stream --test journal_reads --offline

echo "==> full workspace tests (offline, capped at ${TEST_CAP}s)"
${CAP} cargo test -q --workspace --offline

echo "==> doc tests (offline, capped at ${TEST_CAP}s)"
${CAP} cargo test -q --workspace --doc --offline

# Surface this run's bench reports at the repo root (git-ignored), so a CI
# archiver that only collects top-level files still gets them. The
# committed copies in results/ change only on purpose (results/README.md).
echo "==> collecting BENCH artifacts at the repo root"
for artifact in "${BENCH_OUT}"/BENCH_*.json; do
    if [ -f "${artifact}" ]; then
        cp -f "${artifact}" .
    fi
done

echo "==> results/ untouched: no step rewrote a tracked artefact"
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    changed="$(git status --porcelain -- results/)"
    if [ -n "${changed}" ]; then
        echo "error: results/ differs from the commit (a step wrote there, or a refresh is uncommitted):" >&2
        echo "${changed}" >&2
        exit 1
    fi
fi

echo "==> ci.sh: all checks passed"
