#!/usr/bin/env bash
# Build the benchmark, run its unit tests and a smoke run of every
# workload (untraced and traced), and assert that the workload and metric
# names it prints are exactly those in BENCHMARK.json. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=epibench/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"

# BENCHMARK.json is printed from the tables in src/spec.rs.
cargo run --release --offline --quiet --manifest-path "$manifest" -- --print-benchmark-json \
  | diff - BENCHMARK.json

names() { # names <key>: the "name" fields under one top-level key of BENCHMARK.json
  python3 -c 'import json,sys; print("\n".join(sorted(m["name"] for m in json.load(open("BENCHMARK.json"))[sys.argv[1]])))' "$1"
}

printed() { # printed <trace>: "workload metric" pairs of a smoke run
  cargo run --release --offline --quiet --manifest-path "$manifest" -- --smoke --trace "$1" \
    | awk '$2 ~ /^[a-z]/ && $4 != "" && $1 != "epibench:" && $2 != "ops_attempted" && $1 != "FAILED" && $1 !~ /^\{/ {print $1, $2}'
}

for trace in 0 1; do
  key=$([ "$trace" = 0 ] && echo end_to_end || echo per_layer)
  out=$(printed "$trace")
  diff <(echo "$out" | cut -d' ' -f1 | sort -u) <(names workloads) \
    || { echo "workload names differ from BENCHMARK.json (--trace $trace)"; exit 1; }
  for w in $(names workloads); do
    diff <(echo "$out" | awk -v w="$w" '$1 == w {print $2}' | sort) <(names "$key") \
      || { echo "$w: metric names differ from BENCHMARK.json $key"; exit 1; }
  done
done
echo "epibench check: names match BENCHMARK.json"
