#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"

echo "== format =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --release --workspace

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tests =="
cargo test -q --workspace

echo "== epibench (own workspace): builds, tests, matches BENCHMARK.json, passes its smoke =="
# epibench/check.sh is deliberately not called: its traced smoke leg is a
# [benchmark] PR's to fix.
cargo build --release --offline --manifest-path epibench/Cargo.toml
cargo test -q --release --offline --manifest-path epibench/Cargo.toml
cargo run --release -q --offline --manifest-path epibench/Cargo.toml -- \
  --print-benchmark-json | diff - BENCHMARK.json
cargo run --release -q --offline --manifest-path epibench/Cargo.toml -- --smoke >/dev/null

echo "== perf_report smoke =="
cargo run --release -q -p epidb-bench --bin perf_report -- \
  --smoke --assert-zero-copy --assert-small-path --assert-sharded-gossip \
  --assert-group-commit --assert-cold-start --assert-conn-reuse \
  --out target/bench_smoke.json
grep -q '"schema": "epidb-perf-report/v1"' target/bench_smoke.json

echo "== model checker smoke (exhaustive bounded exploration + self-test) =="
cargo run --release -q -p epidb-bench --bin mc -- --smoke

echo "== chaos soak smoke (seeded, deterministic) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- --smoke --seed 42

echo "== async reactor chaos soak smoke (loss + mid-exchange resets) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- \
  --smoke --seed 42 --async

echo "== crash-restart recovery soak smoke (durable runtimes) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- \
  --smoke --seed 42 --restart-from-disk

echo "== sharded chaos soak smoke (2 groups x 2 nodes, all runtimes) =="
cargo run --release -q -p epidb-bench --bin chaos_soak -- \
  --smoke --seed 42 --sharded

echo "CI green."
