#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 test suite.
#
#   ./ci.sh          # everything below
#   ./ci.sh quick    # skip the release build (lints + tests only)
#
# Must stay green before every commit. The tier-1 gate (ROADMAP.md) is
# `cargo build --release && cargo test -q`; the fmt and clippy steps keep
# the tree warning-free so regressions stand out.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

# Every test step runs under a deadline, so a hang (a lost wakeup, a
# deadlocked pool) fails CI instead of stalling it. The deadlines are
# loose enough to cover compiling the suite on a slow host.
limit() { timeout --kill-after=30s "$@"; }

# Path of a release test binary (built first if stale), from the
# "Executable" line `cargo test --no-run` prints, e.g.
#   release_test_bin -p clite-cluster --test threaded
release_test_bin() {
    cargo test "$@" --release --no-run 2>&1 \
        | sed -n 's/^ *Executable .* (\(.*\))$/\1/p' | tail -n 1
}

step "cargo fmt --all --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --no-deps (warnings denied, own crates only)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p clite-sim -p clite-gp -p clite-bo -p clite -p clite-telemetry \
    -p clite-store -p clite-policies -p clite-cluster -p clite-bench \
    -p clite-faults -p clite-load -p clite-par -p clite-learn -p clite-repro

if [[ "${1:-}" != "quick" ]]; then
    # --workspace: the smoke tests below run the clite-bench binaries,
    # which a bare `cargo build` at the root (the facade package) skips.
    step "cargo build --release --workspace"
    cargo build --release --workspace
fi

step "cargo test -q (tier-1)"
limit 1200 cargo test -q

step "cargo test --workspace -q"
limit 3600 cargo test --workspace -q

if [[ "${1:-}" != "quick" ]]; then
    # The workspace run above already covers these in debug; re-run the
    # serial == threaded / incremental == scratch equivalences under
    # release optimizations, where thread interleavings and float codegen
    # differ most. (Cluster admission byte-identity runs in the
    # CLITE_PAR_THREADS loop below, at both pool sizes.)

    # Fleet loop byte-identity (serial == threaded, 1 shard == any shard
    # count, incremental == scratch stats) at 256 nodes with injected
    # crashes must hold under release codegen too.
    step "cargo test -p clite-cluster --test fleet --release -q"
    limit 1200 cargo test -p clite-cluster --test fleet --release -q

    step "cargo test -p clite-gp --test incremental --release -q"
    limit 1200 cargo test -p clite-gp --test incremental --release -q

    # Shared-pool byte-identity at three pool sizes: the determinism suites
    # must produce bit-identical suggestions whether the global pool has
    # one executor (everything inline), two (the default on a 2-core
    # host) or four (work actually handed to pool workers). Slot counts inside the suites cover 1/2/4/8, so the
    # pool-size x slot-count cross product spans under- and over-committed
    # pools under release codegen.
    for pool_size in 1 2 4; do
        step "byte-identity suite (CLITE_PAR_THREADS=$pool_size, release)"
        CLITE_PAR_THREADS=$pool_size \
            limit 1200 cargo test -p clite-par --release -q
        CLITE_PAR_THREADS=$pool_size \
            limit 1200 cargo test -p clite-bo --test parallel_determinism --release -q
        CLITE_PAR_THREADS=$pool_size \
            limit 1200 cargo test -p clite-gp --release -q hyper::tests::threaded_scan
        CLITE_PAR_THREADS=$pool_size \
            limit 1200 cargo test -p clite-cluster --test threaded --release -q
        # Training determinism: same seed => bit-identical weights at
        # any pool size (the suite itself crosses slot counts 1/2/4/8).
        CLITE_PAR_THREADS=$pool_size \
            limit 1200 cargo test -p clite-learn --release -q
    done

    # Stress loop: re-run the already-built release binaries of the
    # concurrency suites many times under real parallelism, so a rare
    # interleaving (a lost wakeup, a compactor that outlives its store)
    # shows up here rather than once in a hundred CI runs. The binaries
    # run directly, with no cargo per iteration; the whole loop shares
    # one deadline. Measured on a 2-core host: ~3.5 s per threaded-suite
    # run and <0.1 s per store-suite run; 177 s for the loop at 12
    # threaded runs per pool size, so 10 keeps it near 2.5 min.
    step "stress loop (CLITE_PAR_THREADS=2/4/8, release binaries)"
    threaded_bin="$(release_test_bin -p clite-cluster --test threaded)"
    shard_bin="$(release_test_bin -p clite-store --test shard_invariance)"
    drop_bin="$(release_test_bin -p clite-store --test compactor_drop)"
    for bin in "$threaded_bin" "$shard_bin" "$drop_bin"; do
        [[ -x "$bin" ]] || { echo "stress loop: test binary not found: '$bin'" >&2; exit 1; }
    done
    # A failing run prints its own output, then stops the loop.
    limit 600 bash -euc '
        run() { out="$("$1" -q 2>&1)" || { printf "%s\n" "$out"; exit 1; }; }
        for pool_size in 2 4 8; do
            export CLITE_PAR_THREADS=$pool_size
            for _ in $(seq 10); do run "$1"; done
            for _ in $(seq 100); do run "$2"; run "$3"; done
        done' stress "$threaded_bin" "$shard_bin" "$drop_bin"

    # The observation store's crash-safety (truncated/bit-flipped tail
    # recovery) must hold under release codegen too.
    step "cargo test -p clite-store --release -q"
    limit 1200 cargo test -p clite-store --release -q

    # Chaos hardening: the fault-injection determinism proptests and the
    # controller's degradation ladder must hold under release codegen
    # (the rate-0 byte-identity check is float-codegen-sensitive).
    step "cargo test -p clite-faults --release -q"
    limit 1200 cargo test -p clite-faults --release -q

    step "cargo test -p clite --test chaos --release -q"
    limit 1200 cargo test -p clite --test chaos --release -q

    # End-to-end warm-start smoke test: a second colocate run against the
    # same store path must warm-start from the first run's samples.
    step "colocate --store smoke test"
    store_tmp="$(mktemp -d)"
    trap 'rm -rf "$store_tmp"' EXIT
    ./target/release/colocate run --store "$store_tmp/obs.clite" \
        memcached:30 xapian:30 streamcluster > "$store_tmp/first.txt"
    grep -q "store: miss" "$store_tmp/first.txt"
    ./target/release/colocate run --store "$store_tmp/obs.clite" \
        memcached:30 xapian:30 streamcluster > "$store_tmp/second.txt"
    grep -q "store: hit" "$store_tmp/second.txt"

    # Chaos smoke test: a forced node crash must degrade gracefully —
    # fallback engaged, marker printed, exit 0 — never panic.
    step "colocate --faults smoke test"
    ./target/release/colocate run --faults crash=6 --seed 42 \
        memcached:40 img-dnn:30 streamcluster > "$store_tmp/chaos.txt"
    grep -q "fallback engaged" "$store_tmp/chaos.txt"
    grep -q "chaos: degraded gracefully without panic" "$store_tmp/chaos.txt"
    ./target/release/colocate run --faults default --seed 42 \
        memcached:40 img-dnn:30 streamcluster > "$store_tmp/chaos2.txt"
    grep -q "without panic" "$store_tmp/chaos2.txt"

    # Load-harness regression gate: run the smoke-scale loadtest and diff
    # its tail percentiles against the committed baseline report with
    # loadgate (exit 1 on a p99/p99.9 regression beyond tolerance).
    # loadgate exits 3 when the baseline is missing or unreadable — the
    # bootstrap signal: commit the current report as the new baseline
    # instead of failing the build. Exit 1 (regression) and exit 2
    # (broken current report) still fail CI.
    step "loadtest smoke + loadgate tail-regression gate"
    CLITE_LOAD_REPORT="$store_tmp/load_smoke.json" \
        ./target/release/experiments loadtest --quick --seed 42 > "$store_tmp/loadtest.txt"
    grep -q "CLITE p99 vs equal-share" "$store_tmp/loadtest.txt"
    baseline="results/reports/load_smoke.json"
    gate_status=0
    ./target/release/loadgate "$store_tmp/load_smoke.json" --previous "$baseline" \
        || gate_status=$?
    if [[ "$gate_status" -eq 3 ]]; then
        mkdir -p "$(dirname "$baseline")"
        cp "$store_tmp/load_smoke.json" "$baseline"
        echo "loadgate: bootstrapped baseline at $baseline (commit it)"
    elif [[ "$gate_status" -ne 0 ]]; then
        exit "$gate_status"
    fi

    # Fleet smoke test: stream a crash-laden event trace over a 64-node
    # fleet through the CLI (serial, then threaded over 4 shards) — both
    # must finish with the completion marker, never panic.
    step "colocate fleet smoke test"
    ./target/release/colocate fleet --nodes 64 \
        --faults crash_prob=0.35,crash_max=20 > "$store_tmp/fleet.txt"
    grep -q "without panic" "$store_tmp/fleet.txt"
    ./target/release/colocate fleet --nodes 64 --threaded --shards 4 \
        --faults crash_prob=0.35,crash_max=20 > "$store_tmp/fleet2.txt"
    grep -q "without panic" "$store_tmp/fleet2.txt"

    # The four experiment steps below write their benchmark artifacts
    # into the temp dir: a CI run checks the experiments' gates, it never
    # rewrites the committed results/BENCH_pr*.json.

    # Fleet scale experiment (nodes-vs-admission-latency + sharded-vs-mutex
    # store curves). The experiment itself asserts serial == threaded
    # byte-identity at every scale point and that injected crashes
    # actually kill nodes.
    step "fleet experiment"
    CLITE_FLEET_REPORT="$store_tmp/BENCH_pr7.json" \
        ./target/release/experiments fleet --quick --seed 42 > "$store_tmp/fleet_exp.txt"
    grep -q "benchmark artifact written" "$store_tmp/fleet_exp.txt"

    # Parallel-substrate scaling (speedup curve). The experiment asserts
    # byte-identical suggestions at every slot count and fails
    # (pass=false) if the modeled 4-worker speedup drops below 2x or the
    # pooled 1-worker scan loses to the pre-PR scoped-spawn baseline.
    step "par experiment"
    CLITE_PAR_REPORT="$store_tmp/BENCH_pr8.json" \
        ./target/release/experiments par --full --seed 42 > "$store_tmp/par_exp.txt"
    grep -q "benchmark artifact written" "$store_tmp/par_exp.txt"
    grep -q "PASS" "$store_tmp/par_exp.txt"

    # Placement-model training smoke test: fit a smoke-scale model,
    # verify its checksummed round trip (colocate train does both), and
    # serve it through the fleet CLI — the learned path must finish with
    # the completion marker.
    step "colocate train + learned fleet smoke test"
    ./target/release/colocate train --out "$store_tmp/placement.model" \
        --groups 10 --epochs 4 > "$store_tmp/train.txt"
    grep -q "round trip verified" "$store_tmp/train.txt"
    ./target/release/colocate fleet --nodes 64 \
        --placement learned --model "$store_tmp/placement.model" \
        --faults crash_prob=0.35,crash_max=20 > "$store_tmp/fleet_learned.txt"
    grep -q "without panic" "$store_tmp/fleet_learned.txt"

    # Durable-recovery byte-identity: the kill-at-every-event replay
    # sweep at 64 nodes and the journal torn-tail/bit-flip proptests
    # must hold under release codegen (the witness comparison is
    # float-codegen-sensitive, like the other identity suites).
    step "cargo test -p clite-cluster --test recovery --release -q"
    limit 1200 cargo test -p clite-cluster --test recovery --release -q

    step "cargo test -p clite-store --test journal_props --release -q"
    limit 1200 cargo test -p clite-store --test journal_props --release -q

    # Kill-and-recover CLI smoke test: journal a fleet run, kill it
    # mid-trace, then resume from the journal — the recovered run must
    # report the replayed suffix and still reach the completion marker.
    step "colocate fleet --journal kill-and-recover smoke test"
    journal_tmp="$store_tmp/fleet-journal"
    ./target/release/colocate fleet --nodes 32 --events 12 \
        --journal "$journal_tmp" --kill-after 6 > "$store_tmp/fleet_kill.txt"
    grep -q "fleet: killed after journaling event 6" "$store_tmp/fleet_kill.txt"
    ./target/release/colocate fleet --nodes 32 --events 12 \
        --journal "$journal_tmp" --recover > "$store_tmp/fleet_recover.txt"
    grep -q "recovery: replayed" "$store_tmp/fleet_recover.txt"
    grep -q "without panic" "$store_tmp/fleet_recover.txt"

    # Recovery experiment. It asserts byte-identical recovery at every
    # kill point (both WAL boundaries), threaded == serial across a crash,
    # and the overload gates (deadline-bounded admission tail, journaled
    # sheds).
    step "recovery experiment"
    CLITE_RECOVERY_REPORT="$store_tmp/BENCH_pr10.json" \
        ./target/release/experiments recovery --quick --seed 42 > "$store_tmp/recovery_exp.txt"
    grep -q "benchmark artifact written" "$store_tmp/recovery_exp.txt"
    grep -q "recovery: PASS" "$store_tmp/recovery_exp.txt"

    # Placement A/B experiment. It asserts serial == threaded
    # byte-identity in both arms and fails the gate unless the learned
    # ordering matches or beats the heuristic QoS-safe fraction at every
    # scale point with admission within 2 pp.
    step "placement experiment"
    CLITE_PLACEMENT_REPORT="$store_tmp/BENCH_pr9.json" \
        ./target/release/experiments placement --quick --seed 42 > "$store_tmp/placement_exp.txt"
    grep -q "benchmark artifact written" "$store_tmp/placement_exp.txt"
    grep -q "placement: PASS" "$store_tmp/placement_exp.txt"

    # Benches must at least keep compiling (they are the perf record).
    step "cargo bench --no-run"
    cargo bench --no-run
fi

printf '\nCI green.\n'
