#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, and the full test suite.
#
# Everything runs offline against the vendored dependency stand-ins (see
# vendor/README.md); no network access is required or attempted.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> guard: no build artifacts under version control"
if git ls-files --error-unmatch target >/dev/null 2>&1 || [ -n "$(git ls-files 'target/*')" ]; then
  echo "error: target/ is git-tracked; run 'git rm -r --cached target/'" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --release --workspace"
cargo test -q --release --offline --workspace

echo "==> smoke: mikpoly serve --trace-out / --metrics-out"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/mikpoly serve --requests 24 --workers 2 --devices 2 \
  --trace-out "$smoke_dir/trace.json" --metrics-out "$smoke_dir/metrics.txt"
# trace-stats parses the file with serde_json and exits non-zero on
# malformed JSON or a missing traceEvents array.
./target/release/mikpoly trace-stats "$smoke_dir/trace.json"
grep -q "^cache_hits " "$smoke_dir/metrics.txt" || {
  echo "error: metrics snapshot is missing cache counters" >&2
  exit 1
}

# Observability smoke: a deadline-starved serve must trip the SLO
# engine and auto-dump the flight-recorder blackbox, and the health
# subcommand must emit a JSON snapshot it has already self-validated
# against the serving report (it exits non-zero on malformed JSON or
# any disposition-count mismatch).
echo "==> observability smoke: serve --blackbox-out + mikpoly health --json"
./target/release/mikpoly serve --requests 24 --workers 2 --devices 2 \
  --deadline-us 1 --blackbox-out "$smoke_dir/blackbox.json"
test -s "$smoke_dir/blackbox.json" || {
  echo "error: SLO violation did not produce a blackbox dump" >&2
  exit 1
}
grep -q '"chains"' "$smoke_dir/blackbox.json" || {
  echo "error: blackbox dump carries no retained chains section" >&2
  exit 1
}
./target/release/mikpoly health --requests 32 --workers 2 --seed 7 \
  --fault-rate 0.1 --json > "$smoke_dir/health.json"
grep -q '"completed"' "$smoke_dir/health.json" || {
  echo "error: health snapshot is missing disposition counts" >&2
  exit 1
}

# Chaos smoke: fixed-seed fault injection (device faults, search stalls,
# compile panics, cache corruption) plus admission control; the binary
# exits non-zero if any request lacks exactly one terminal disposition.
echo "==> chaos smoke: mikpoly chaos (fixed seeds)"
./target/release/mikpoly chaos --requests 48 --workers 4 --seed 7 \
  --queue-capacity 8 --deadline-us 5000
./target/release/mikpoly chaos --requests 32 --workers 2 --seed 11 --fault-rate 0.1

# Cache smoke: Zipfian stress on the bounded program cache (exact-once
# computation, counter coherence, capacity bound — the binary exits
# non-zero on any invariant violation or a hit rate below floor), then
# the warm-restart gate: a 10k-program bundle must load every program
# inside 1 s.
echo "==> cache smoke: mikpoly cache-bench (stress + restart gate)"
./target/release/mikpoly cache-bench --threads 4 --ops 100000 --keys 2048 \
  --restart-entries 10000 --restart-budget-ms 1000

# Simulator throughput gate: the event-driven scheduler core must hold
# >= 10x the frozen reference loop (compiled via the `reference-sim`
# feature) and an absolute floor of 14M simulated tasks per host second
# — 10x the pre-rebuild scan-loop baseline — and the self-profile's
# per-phase attribution must cover the profiled passes' wall time within
# 2%. Records the measurement in results/sim-throughput.json; the run
# exits non-zero below any gate.
echo "==> sim-throughput gate (event core >= 10x reference, floor 14M tasks/s, profile coverage within 2%)"
./target/release/experiments sim-throughput

# Batched-serving gate: shape-bucketed continuous batching plus co-launch
# waves must beat solo dispatch under overload on both goodput and P99,
# and per-tenant waiting-slot quotas must isolate a flooding tenant (the
# victim tenant is served in full, the flood sheds as tenant-throttled).
# The experiment asserts its gates and exits non-zero on violation;
# records the measurement in results/batch-serving.json. Quick mode keeps
# the offline stage bounded — the serving timelines are virtual, so the
# gated ratios are the same regime CI measures on full runs.
echo "==> batch-serving gate (batched >= solo under overload + tenant isolation)"
./target/release/experiments --quick batch-serving

# Conformance: a bounded differential-fuzz smoke (fixed seed, well under
# 30 s in release) that replays the regression corpus first, then the
# cost-model-fidelity gate over the pinned shape corpus. Scale the fuzz
# case count with CONFORMANCE_CASES (e.g. a nightly might export 4096).
echo "==> conformance fuzz (seed 7, ${CONFORMANCE_CASES:-256} cases + regression corpus)"
CONFORMANCE_CASES="${CONFORMANCE_CASES:-256}" \
  ./target/release/conformance fuzz --seed 7 --corpus tests/corpus/regressions.json

echo "==> conformance gate (pinned corpus, p95 oracle gap <= 1.10)"
./target/release/conformance gate --corpus tests/corpus/pinned-shapes.json \
  --threshold 1.10 --out "$smoke_dir/oracle-gate.json"

# The "hard" tier: shapes whose gap sat at 1.2-1.5 before the
# occupancy-aware selection refinement; ratcheted to the same 1.10 now
# that the staged search closes them.
echo "==> conformance gate (hard corpus, p95 oracle gap <= 1.10)"
./target/release/conformance gate --corpus tests/corpus/hard-shapes.json \
  --threshold 1.10 --out "$smoke_dir/oracle-gate-hard.json"

# Crash matrix: the durable warm-state loader must never panic and must
# salvage exactly the valid record prefix — every-offset truncation plus
# fixed-seed bit flips, arbitrary-byte blobs and checksummed bundles
# with hostile records (the binary exits non-zero on any violation).
echo "==> conformance crash (seed 7, truncation sweep + 128 flips + 128 blobs)"
./target/release/conformance crash --seed 7 --flips 128 --fuzz-blobs 128

# Durability smoke: serve with a live snapshotter and a mid-stream drain
# point, then restart against the snapshot directory. The first serve
# must commit a generation manifest; the second must restore it cleanly:
# its restore report needs a `gemm ... clean N programs` line with N > 0
# and no salvaged or quarantined bundle, so a warm restart that loaded
# nothing fails here (the binary also exits non-zero if any request
# lacks exactly one terminal disposition).
echo "==> durability smoke: serve --snapshot-dir + --drain-after-us, then warm restart"
./target/release/mikpoly serve --requests 24 --workers 2 --devices 2 \
  --snapshot-dir "$smoke_dir/warm-state" --drain-after-us 400
test -f "$smoke_dir/warm-state/MANIFEST" || {
  echo "error: drain did not commit a generation manifest" >&2
  exit 1
}
./target/release/mikpoly serve --requests 24 --workers 2 --devices 2 \
  --snapshot-dir "$smoke_dir/warm-state" 2> "$smoke_dir/restore.txt"
grep -q "restore:" "$smoke_dir/restore.txt" || {
  echo "error: warm restart printed no restore report" >&2
  exit 1
}
grep -Eq '^  gemm +clean +[1-9][0-9]* programs' "$smoke_dir/restore.txt" || {
  echo "error: warm restart did not restore the gemm bundle clean" >&2
  cat "$smoke_dir/restore.txt" >&2
  exit 1
}
if grep -Eq '^  [a-z]+ +(salvaged|quarantined) ' "$smoke_dir/restore.txt"; then
  echo "error: warm restart salvaged or quarantined a bundle" >&2
  cat "$smoke_dir/restore.txt" >&2
  exit 1
fi

# Benchmark package: perfbench is a Cargo workspace of its own (path
# dependencies on crates/), so the workspace test run above does not
# reach its tests.
echo "==> cargo test (perfbench)"
cargo test --offline --manifest-path perfbench/Cargo.toml

# Benchmark smoke: one second of the cold-gpu workload, where nearly
# every lookup fills a bounded program cache that evicts. perfbench
# checks every program it reads back from the cache (coverage, plus
# execution against the reference GEMM) and reports the verdict as
# "correct" on its last stdout line, so a cache change that serves an
# evicted or uncovered program fails here.
echo "==> perfbench smoke: cold-gpu, 1 s"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload cold-gpu --seed 1 --seconds 1 --trace 0 > "$smoke_dir/perfbench.txt"
tail -n 1 "$smoke_dir/perfbench.txt" | grep -q '"correct": true' || {
  echo "error: perfbench cold-gpu smoke did not report \"correct\": true" >&2
  tail -n 2 "$smoke_dir/perfbench.txt" >&2
  exit 1
}

# The same smoke on cold-npu: the only workload whose compiles reach the
# deep patterns (III-IX), the max-min allocator and static-allocation
# simulation behind try_polymerize.
echo "==> perfbench smoke: cold-npu, 1 s"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload cold-npu --seed 1 --seconds 1 --trace 0 > "$smoke_dir/perfbench-npu.txt"
tail -n 1 "$smoke_dir/perfbench-npu.txt" | grep -q '"correct": true' || {
  echo "error: perfbench cold-npu smoke did not report \"correct\": true" >&2
  tail -n 2 "$smoke_dir/perfbench-npu.txt" >&2
  exit 1
}

# The same smoke on burst-batched, which serves through the batched
# placement policy (cold-gpu above runs solo), so both dispatch policies
# are checked end to end.
echo "==> perfbench smoke: burst-batched, 1 s"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload burst-batched --seed 1 --seconds 1 --trace 0 > "$smoke_dir/perfbench-batched.txt"
tail -n 1 "$smoke_dir/perfbench-batched.txt" | grep -q '"correct": true' || {
  echo "error: perfbench burst-batched smoke did not report \"correct\": true" >&2
  tail -n 2 "$smoke_dir/perfbench-batched.txt" >&2
  exit 1
}

# The same smoke on warm-bert, where every lookup hits a warm cache and
# each operator's device time comes from its cache slot's memo: the
# all-hit path the other two smokes barely reach.
echo "==> perfbench smoke: warm-bert, 1 s"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload warm-bert --seed 1 --seconds 1 --trace 0 > "$smoke_dir/perfbench-warm.txt"
tail -n 1 "$smoke_dir/perfbench-warm.txt" | grep -q '"correct": true' || {
  echo "error: perfbench warm-bert smoke did not report \"correct\": true" >&2
  tail -n 2 "$smoke_dir/perfbench-warm.txt" >&2
  exit 1
}

echo "CI green."
