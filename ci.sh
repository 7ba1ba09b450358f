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
# crates/stream/src/pool.rs (ColumnHandle, MaintainedPool, and the Send
# bound on PersistFn — the persist hook crosses a thread boundary), and
# crates/catalog/src/store.rs (DurableCatalog behind the persist hook)
# fail the build if any of them regresses to !Send or !Sync.
cargo build --release --offline

echo "==> tier-1: cargo test -q (offline, capped at ${TEST_CAP}s)"
${CAP} cargo test -q --offline

echo "==> threaded stress suite: pool under fault injection (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test pool_stress --offline

echo "==> crash-recovery suite: kill-and-recover sweep + journal faults (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test recovery_sweep --offline
${CAP} cargo test -q -p synoptic-stream --test maintained_faults --offline
${CAP} cargo test -q -p synoptic-cli --test store_cli --offline

echo "==> replication suite: wire + transports, faulty-link convergence, promotion sweep, TCP e2e (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-repl --offline
${CAP} cargo test -q -p synoptic-stream --test replication --offline
${CAP} cargo test -q -p synoptic-stream --test promotion_sweep --offline
${CAP} cargo test -q -p synoptic-cli --test replication_cli --offline

echo "==> failover suite: kill-the-leader sweep, CLI election e2e (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test failover_sweep --offline
${CAP} cargo test -q -p synoptic-cli --test failover_cli --offline

echo "==> serving suite: wire codec + exit-code table, batch pinning, cache invalidation, admission control, CLI e2e (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-api --offline
${CAP} cargo test -q -p synoptic-serve --offline
${CAP} cargo test -q -p synoptic-cli --test serve_cli --offline

echo "==> decoder fuzz: CRC-resealed mutants of SQP1, SRP1, SYNWAL01 and SYNOPTC1 decode or refuse, never panic (capped at ${TEST_CAP}s)"
${CAP} cargo test -q --test decoder_fuzz --offline

echo "==> overload suite: deadline sheds, tenant admission, degradation ladder, storm proof, retry/breaker sweep (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-serve --test overload --offline
${CAP} cargo test -q -p synoptic-serve --test resilience --offline

echo "==> segment suite: dirty-segment rebuilds + merge equivalence (capped at ${TEST_CAP}s)"
${CAP} cargo test -q -p synoptic-stream --test segments --offline
${CAP} cargo test -q -p synoptic-hist --test merge_equivalence --offline
${CAP} cargo test -q -p synoptic-wavelet --test merge_bound --offline

echo "==> replication bench: ship+replay throughput and follower lag (capped at ${TEST_CAP}s)"
${CAP} cargo run -q --release --offline --example replication_bench

echo "==> failover bench: detection -> promotion -> first-served-read latency (capped at ${TEST_CAP}s)"
${CAP} cargo run -q --release --offline --example failover_bench

echo "==> segments bench: dirty-segment vs full rebuild at 1/4/16/64 segments (capped at ${TEST_CAP}s)"
${CAP} cargo run -q --release --offline --example segments_bench

echo "==> DP kernel bench: ns per DP cell and per oracle call, SAP0/SAP1/A0/POINT-OPT over n x B, OPT-A at n=127 (capped at ${TEST_CAP}s)"
${CAP} cargo run -q --release --offline --example dp_bench

echo "==> serve bench: mixed update+query throughput and wire latency over live TCP (capped at ${TEST_CAP}s)"
${CAP} cargo run -q --release --offline --example serve_bench

echo "==> overload bench: goodput, shed rate, degraded fraction, p50/p99 at 1x/2x/4x offered load (capped at ${TEST_CAP}s)"
${CAP} cargo run -q --release --offline --example overload_bench

echo "==> full workspace tests (offline, capped at ${TEST_CAP}s)"
${CAP} cargo test -q --workspace --offline

echo "==> doc tests (offline, capped at ${TEST_CAP}s)"
${CAP} cargo test -q --workspace --doc --offline

# Surface the bench artifacts at the repo root on every run, so a CI
# archiver that only collects top-level files still gets them. The
# canonical copies stay in results/.
echo "==> collecting BENCH artifacts at the repo root"
for artifact in results/BENCH_*.json; do
    if [ -f "${artifact}" ]; then
        cp -f "${artifact}" .
    fi
done

echo "==> ci.sh: all checks passed"
