#!/usr/bin/env bash
# Runs the headline benchmarks and writes machine-readable results at the
# repo root, so successive commits can be diffed on throughput/latency and
# message complexity:
#
#   BENCH_client.json — lls_loadgen closed-loop sweep over batch sizes
#                       {1,8,32} with an injected leader crash and the
#                       exactly-once audit enabled
#   BENCH_t3.json     — consensus message complexity / latency, CE stack
#                       vs rotating coordinator (paper claim T3)
#   BENCH_m1.json     — wire codec micro-benchmarks (legacy vs pooled
#                       flat encode, allocs/op counters)
#   BENCH_shard_udp.json — the same driver over UDP loopback: a shard
#                       sweep {1,2,4} with batched (sendmmsg/recvmmsg)
#                       datagram I/O and the exactly-once audit enabled
#
# Both lls_loadgen files share one schema (a field the host cannot measure
# is null) and record git sha, build type, nproc and date.
#
#   tools/run_bench.sh [build-dir]
#
# The build directory must already be configured; the script only builds
# the targets it needs.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build"}"

cmake --build "$build" --target lls_loadgen bench_t3_consensus bench_m1_micro \
  -j "$(nproc)"

"$build/tools/lls_loadgen" \
  --mode=closed --n=5 --clients=64 --outstanding=1 \
  --batches=1,8,32 --duration-ms=10000 --warmup-ms=1000 \
  --crash-leader-at-ms=5000 --verify \
  --json="$repo/BENCH_client.json"

"$build/bench/bench_t3_consensus" --json="$repo/BENCH_t3.json"

"$build/bench/bench_m1_micro" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json --benchmark_out="$repo/BENCH_m1.json" \
  >/dev/null

"$build/tools/lls_loadgen" \
  --udp --clients=4 --outstanding=1 \
  --shards=1,2,4 --duration-ms=5000 --warmup-ms=1000 --verify \
  --json="$repo/BENCH_shard_udp.json"

echo "wrote $repo/BENCH_client.json, $repo/BENCH_t3.json," \
  "$repo/BENCH_m1.json and $repo/BENCH_shard_udp.json"
