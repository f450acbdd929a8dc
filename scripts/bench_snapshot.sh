#!/usr/bin/env bash
# Benchmark snapshot: builds the bench binaries and refreshes the two JSON
# snapshots EXPERIMENTS.md quotes —
#   BENCH_parallel.json    bench_parallel_scaling (fused vs legacy StatsCache
#                          build, end-to-end explain at 1/2/4/8 threads) +
#                          bench_scale_large_dataset (linear-in-n check)
#   BENCH_data_plane.json  bench_data_plane (adaptive narrow layout vs the
#                          pre-narrowing uint32 layout: histogram build,
#                          embedding, batched assignment, width sweep)
#   BENCH_service.json     bench_service_load (the socket load driver: N
#                          concurrent unix-socket clients in closed and open
#                          loop against a live router fronting durable
#                          shard workers, with p50/p95/p99 from the obs
#                          histograms, plus the splice-vs-full-parse relay
#                          microbench), run at 2 and 4 workers so the
#                          worker-count scaling curve is on record
# Each envelope carries an "execution" block (DPCLUSTX_THREADS and
# DPCLUSTX_ISA as exported, cpu count, build provenance, snapshot format
# version and active/detected kernel dispatch level from `dpclustx_serve
# --version`, and the cpuid feature list) alongside each binary's own
# google-benchmark context, so a snapshot states the parallelism, the
# vector ISA, and the exact binary it was measured under. BENCH_service.json
# also carries a "metrics" block: the router's GET /metrics text taken at
# the end of the 2-worker observability=off load run. Rerun on new
# hardware to refresh.
#
# Usage: scripts/bench_snapshot.sh [parallel_out.json [data_plane_out.json \
#                                   [service_out.json]]]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT_PARALLEL="${1:-BENCH_parallel.json}"
OUT_DATA_PLANE="${2:-BENCH_data_plane.json}"
OUT_SERVICE="${3:-BENCH_service.json}"

echo "==> building bench binaries"
cmake -B build -S . >/dev/null
cmake --build build -j --target bench_parallel_scaling \
  bench_scale_large_dataset bench_data_plane bench_service_load \
  dpclustx_serve dpclustx_router >/dev/null

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "==> bench_parallel_scaling"
./build/bench/bench_parallel_scaling \
  --benchmark_out="$TMP_DIR/parallel_scaling.json" \
  --benchmark_out_format=json
echo "==> bench_scale_large_dataset"
./build/bench/bench_scale_large_dataset \
  --benchmark_out="$TMP_DIR/scale_large_dataset.json" \
  --benchmark_out_format=json
echo "==> bench_data_plane"
./build/bench/bench_data_plane \
  --benchmark_out="$TMP_DIR/data_plane.json" \
  --benchmark_out_format=json
echo "==> bench_service_load (socket transport, closed + open loop)"
# Plain-main bench: the last stdout line is the machine-readable JSON.
# off and full at 2 workers: the p99 delta between the two is the measured
# cost of cross-process trace propagation (budget: <=3%). off at 4 workers
# puts the worker-count scaling curve on record.
run_service_load() {  # name, then bench_service_load flags
  local name="$1"
  shift
  ./build/bench/bench_service_load "$@" \
    --state-dir "$TMP_DIR/service_load_$name" |
    tee "$TMP_DIR/service_load_human_$name.txt"
  tail -n 1 "$TMP_DIR/service_load_human_$name.txt" \
    > "$TMP_DIR/service_load_$name.json"
}
run_service_load off --observability off --workers 2
run_service_load full --observability full --workers 2
run_service_load off_w4 --observability off --workers 4

BUILD_VERSION="$(./build/tools/dpclustx_serve --version)"

# Merge into one envelope per output, keyed by bench binary and stamped with
# the execution environment. python3 is already a build prerequisite on the
# CI image; no extra dependencies.
python3 - "$TMP_DIR/parallel_scaling.json" \
  "$TMP_DIR/scale_large_dataset.json" "$TMP_DIR/data_plane.json" \
  "$OUT_PARALLEL" "$OUT_DATA_PLANE" "$BUILD_VERSION" \
  "$TMP_DIR/service_load_off.json" "$TMP_DIR/service_load_full.json" \
  "$TMP_DIR/service_load_off_w4.json" "$OUT_SERVICE" <<'PY'
import json, os, re, sys
(parallel, scale, data_plane, out_parallel, out_data_plane, build_version,
 service_load_off, service_load_full, service_load_off_w4,
 out_service) = sys.argv[1:11]

# "dpclustx <sha> (GNU 12.2.0, Release), isa avx2 (detected avx512),
# snapshot-format v1" — the format version and the kernel dispatch level are
# part of the provenance line so they are stamped from the binary actually
# measured, not from a header the script happens to see.
format_match = re.search(r"snapshot-format v(\d+)", build_version)
isa_match = re.search(r"isa (\S+) \(detected (\S+)\)", build_version)

execution = {
    "dpclustx_threads_env": os.environ.get("DPCLUSTX_THREADS", ""),
    "dpclustx_isa_env": os.environ.get("DPCLUSTX_ISA", ""),
    "num_cpus": os.cpu_count(),
    "build": build_version,
    "snapshot_format_version":
        int(format_match.group(1)) if format_match else None,
    "isa_active": isa_match.group(1) if isa_match else None,
    "isa_detected": isa_match.group(2) if isa_match else None,
}

# The benchmark binaries also stamp isa_active/isa_detected/cpu_features
# into their own google-benchmark context (bench_common.cc AddPoolContext),
# so the per-bench blocks carry the cpuid feature list verbatim; copy the
# feature string up into the envelope when present.
def cpu_features_of(bench_json):
    return bench_json.get("context", {}).get("cpu_features")

def load(path):
    with open(path) as f:
        return json.load(f)

def dump(path, envelope):
    envelope["execution"] = execution
    with open(path, "w") as f:
        json.dump(envelope, f, indent=2)
        f.write("\n")

parallel_json = load(parallel)
data_plane_json = load(data_plane)
execution["cpu_features"] = (cpu_features_of(parallel_json) or
                             cpu_features_of(data_plane_json))

dump(out_parallel, {"bench_parallel_scaling": parallel_json,
                    "bench_scale_large_dataset": load(scale)})
dump(out_data_plane, {"bench_data_plane": data_plane_json})
# "bench_service_load" is the 2-worker observability=off baseline; the
# _full run and the computed overhead deltas record what fleet-wide tracing
# costs (DESIGN.md §15 budgets p99 at <=3%). Every run embeds the router's
# /metrics text; the envelope keeps the baseline run's and drops the rest.
load_off = load(service_load_off)
load_full = load(service_load_full)
load_off_w4 = load(service_load_off_w4)
router_metrics = load_off.pop("router_metrics")
load_full.pop("router_metrics")
load_off_w4.pop("router_metrics")
def overhead_pct(key):
    base = load_off.get(key)
    full = load_full.get(key)
    if not base or full is None:
        return None
    return round(100.0 * (full - base) / base, 2)
dump(out_service, {
    "bench_service_load": load_off,
    "bench_service_load_full_observability": load_full,
    "bench_service_load_scaling": [load_off, load_off_w4],
    "trace_propagation_overhead": {
        "closed_p99_pct": overhead_pct("closed_p99_ms"),
        "open_p99_pct": overhead_pct("open_p99_ms"),
        "closed_rps_pct": overhead_pct("closed_rps"),
        "budget_p99_pct": 3.0,
    },
    "metrics": {"prometheus": router_metrics},
})
PY

echo "==> wrote $OUT_PARALLEL, $OUT_DATA_PLANE and $OUT_SERVICE"
