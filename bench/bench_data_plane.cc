// Data-plane microbenchmarks: rows/sec for the width-dispatched kernels —
// histogram build, dataset embedding, and batched cluster assignment — on
// the 250k-row Census-like table, at the adaptive narrow layout vs. the
// pre-narrowing uint32 layout (WidthPolicy::kForce32, the seed's storage),
// plus a pure width sweep (u8/u16/u32 columns with identical code streams)
// and a forced-ISA sweep of every kernel, the Stage-2 Gumbel noise included.
//
// Every kernel is bitwise-deterministic and layout-independent in its
// *output* (tests/dataset_layout_test), so these runs differ only in memory
// traffic: the adaptive/force32 ratio is the payoff of narrow codes, and
// the per-row variants show what the batched virtuals replaced. Results
// feed BENCH_data_plane.json (scripts/bench_snapshot.sh) and the
// EXPERIMENTS.md data-plane table.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cluster/clustering.h"
#include "cluster/gmm.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/column.h"
#include "data/dataset.h"
#include "data/kernels/isa.h"
#include "data/kernels/kernel_table.h"
#include "data/schema.h"
#include "data/synthetic.h"

namespace {

using namespace dpclustx;
using namespace dpclustx::bench;

constexpr size_t kRows = 250000;
constexpr size_t kClusters = 5;
constexpr size_t kWidthSweepAttrs = 16;

// Benchmark arg 0/1 → adaptive/force32 (named via ArgName below).
WidthPolicy PolicyArg(const benchmark::State& state) {
  return state.range(0) == 0 ? WidthPolicy::kAdaptive : WidthPolicy::kForce32;
}

Dataset Rewiden(const Dataset& dataset, WidthPolicy policy) {
  Dataset out(dataset.schema(), policy);
  out.Reserve(dataset.num_rows());
  std::vector<ValueCode> row;
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    dataset.RowInto(r, &row);
    out.AppendRowUnchecked(row);
  }
  return out;
}

struct Prepared {
  Dataset adaptive;
  Dataset force32;
  std::vector<ClusterId> labels;
  std::vector<std::vector<ValueCode>> modes;
};

// Census-like table in both layouts. Labels come from a real k-means fit
// (as in bench_parallel_scaling): fitted labels are skewed and run-heavy,
// which is exactly the bin-increment pattern the histogram kernels face in
// production — synthetic round-robin labels would hide it.
const Prepared& Census() {
  static auto* prepared = new Prepared{[] {
    Dataset adaptive = std::move(*synth::Generate(synth::CensusLike(kRows)));
    Dataset force32 = Rewiden(adaptive, WidthPolicy::kForce32);
    std::vector<ClusterId> labels =
        FitLabels(adaptive, "k-means", kClusters, 1);
    std::vector<std::vector<ValueCode>> modes;
    for (size_t c = 0; c < kClusters; ++c) modes.push_back(adaptive.Row(c));
    return Prepared{std::move(adaptive), std::move(force32),
                    std::move(labels), std::move(modes)};
  }()};
  return *prepared;
}

const Dataset& CensusAt(WidthPolicy policy) {
  return policy == WidthPolicy::kAdaptive ? Census().adaptive
                                          : Census().force32;
}

// One dataset per storage width, same row count and code stream shape:
// codes cycle through the domain so every cache line of the column is
// touched. Domain sizes sit just at the width boundaries (256 → u8,
// 65536 → u16, 65537 → u32).
Dataset MakeWidthDataset(size_t domain) {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < kWidthSweepAttrs; ++a) {
    attrs.push_back(Attribute::WithAnonymousDomain(
        "w" + std::to_string(domain) + "_" + std::to_string(a), domain));
  }
  Dataset out{Schema(std::move(attrs))};
  out.Reserve(kRows);
  std::vector<ValueCode> row(kWidthSweepAttrs);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t a = 0; a < kWidthSweepAttrs; ++a) {
      row[a] = static_cast<ValueCode>((r * 7 + a * 131) % domain);
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

const Dataset& WidthDataset(size_t domain) {
  static auto* u8 = new Dataset(MakeWidthDataset(256));
  static auto* u16 = new Dataset(MakeWidthDataset(65536));
  static auto* u32 = new Dataset(MakeWidthDataset(65537));
  switch (domain) {
    case 256: return *u8;
    case 65536: return *u16;
    default: return *u32;
  }
}

void SetRowsProcessed(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<int64_t>(kRows) *
                          static_cast<int64_t>(state.iterations()));
}

// --- Census-like, adaptive vs force32 -------------------------------------

// The StatsCache-shaped build: per-cluster histograms of every attribute in
// one fused sweep (the dominant cost of explanation preprocessing).
void BM_CensusGroupHistograms(benchmark::State& state) {
  const Dataset& dataset = CensusAt(PolicyArg(state));
  for (auto _ : state) {
    const auto hists =
        dataset.ComputeAllGroupHistograms(Census().labels, kClusters,
                                          /*max_threads=*/1);
    DPX_CHECK_OK(hists.status());
    benchmark::DoNotOptimize(hists->size());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusGroupHistograms)
    ->ArgName("force32")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

// The seed's histogram build: one columnar pass per attribute
// (ComputeGroupHistograms, still the unbanked per-attribute kernel) on the
// seed's uint32 layout — the pre-PR path the fused banked sweep replaces.
void BM_CensusGroupHistogramsLegacyPerAttribute(benchmark::State& state) {
  const Dataset& dataset = Census().force32;
  for (auto _ : state) {
    std::vector<std::vector<Histogram>> hists;
    hists.reserve(dataset.num_attributes());
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      hists.push_back(dataset.ComputeGroupHistograms(
          static_cast<AttrIndex>(a), Census().labels, kClusters));
    }
    benchmark::DoNotOptimize(hists.size());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusGroupHistogramsLegacyPerAttribute)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

// Full per-attribute histograms (the ungrouped scan used by EDA paths).
void BM_CensusFullHistograms(benchmark::State& state) {
  const Dataset& dataset = CensusAt(PolicyArg(state));
  for (auto _ : state) {
    double total = 0.0;
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      total +=
          dataset.ComputeHistogram(static_cast<AttrIndex>(a)).Total();
    }
    benchmark::DoNotOptimize(total);
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusFullHistograms)
    ->ArgName("force32")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_CensusEmbed(benchmark::State& state) {
  const Dataset& dataset = CensusAt(PolicyArg(state));
  for (auto _ : state) {
    const std::vector<double> points = EmbedDataset(dataset);
    benchmark::DoNotOptimize(points.data());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusEmbed)
    ->ArgName("force32")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// The seed's embedding: one whole-column sweep per attribute over the
// uint32 codes, re-touching every row-major output cache line once per
// attribute — the pre-PR path the L1-tiled EmbedRows replaces. Identical
// arithmetic (offset + scale·code), identical output.
void BM_CensusEmbedLegacyColumnSweep(benchmark::State& state) {
  const Dataset& dataset = Census().force32;
  const size_t rows = dataset.num_rows();
  const size_t dims = dataset.num_attributes();
  std::vector<double> scales, offsets;
  EmbedScales(dataset.schema(), &scales, &offsets);
  for (auto _ : state) {
    std::vector<double> points(rows * dims);
    for (size_t a = 0; a < dims; ++a) {
      const uint32_t* col = dataset.column(static_cast<AttrIndex>(a)).u32();
      for (size_t row = 0; row < rows; ++row) {
        points[row * dims + a] =
            offsets[a] + scales[a] * static_cast<double>(col[row]);
      }
    }
    benchmark::DoNotOptimize(points.data());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusEmbedLegacyColumnSweep)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_CensusKModesAssign(benchmark::State& state) {
  const Dataset& dataset = CensusAt(PolicyArg(state));
  const ModeClustering clustering(dataset.schema(), Census().modes,
                                  "bench-modes");
  for (auto _ : state) {
    const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
    benchmark::DoNotOptimize(labels.data());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusKModesAssign)
    ->ArgName("force32")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// The seed's assignment strategy — one virtual Assign per row, one
// materialized tuple per row — on the seed's uint32 layout. This is the
// baseline both batched variants above are measured against.
void BM_CensusKModesAssignPerRowLegacy(benchmark::State& state) {
  const Dataset& dataset = Census().force32;
  const ModeClustering clustering(dataset.schema(), Census().modes,
                                  "bench-modes");
  for (auto _ : state) {
    std::vector<ClusterId> labels(dataset.num_rows());
    for (size_t row = 0; row < dataset.num_rows(); ++row) {
      labels[row] = clustering.Assign(dataset.Row(row));
    }
    benchmark::DoNotOptimize(labels.data());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusKModesAssignPerRowLegacy)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_CensusCentroidAssign(benchmark::State& state) {
  const Dataset& dataset = CensusAt(PolicyArg(state));
  std::vector<std::vector<double>> centers;
  for (size_t c = 0; c < kClusters; ++c) {
    centers.push_back(EmbedTuple(dataset.schema(), Census().modes[c]));
  }
  const CentroidClustering clustering(dataset.schema(), std::move(centers),
                                      "bench-centroids");
  for (auto _ : state) {
    const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
    benchmark::DoNotOptimize(labels.data());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_CensusCentroidAssign)
    ->ArgName("force32")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// --- Pure width sweep: identical kernels, only the code width varies ------

void BM_WidthHistograms(benchmark::State& state) {
  const Dataset& dataset = WidthDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    double total = 0.0;
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      total +=
          dataset.ComputeHistogram(static_cast<AttrIndex>(a)).Total();
    }
    benchmark::DoNotOptimize(total);
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_WidthHistograms)
    ->ArgName("domain")->Arg(256)->Arg(65536)->Arg(65537)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_WidthEmbed(benchmark::State& state) {
  const Dataset& dataset = WidthDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const std::vector<double> points = EmbedDataset(dataset);
    benchmark::DoNotOptimize(points.data());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_WidthEmbed)
    ->ArgName("domain")->Arg(256)->Arg(65536)->Arg(65537)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_WidthModesAssign(benchmark::State& state) {
  const Dataset& dataset = WidthDataset(static_cast<size_t>(state.range(0)));
  std::vector<std::vector<ValueCode>> modes;
  for (size_t c = 0; c < kClusters; ++c) modes.push_back(dataset.Row(c));
  const ModeClustering clustering(dataset.schema(), std::move(modes),
                                  "bench-modes");
  for (auto _ : state) {
    const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
    benchmark::DoNotOptimize(labels.data());
  }
  SetRowsProcessed(state);
}
BENCHMARK(BM_WidthModesAssign)
    ->ArgName("domain")->Arg(256)->Arg(65536)->Arg(65537)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// --- Forced-ISA sweep: same kernels, dispatch clamped per level -----------
//
// Registered dynamically in main() for every level the host supports
// (generic → detected), so BENCH_data_plane.json carries a per-ISA entry of
// each hot kernel. The kernels are bitwise-identical across levels
// (tests/dataset_layout_test), so rows/sec is the only thing that moves.

void IsaGroupHistograms(benchmark::State& state, kernels::IsaLevel level) {
  kernels::ScopedForceIsa force(level);
  const Dataset& dataset = Census().adaptive;
  for (auto _ : state) {
    const auto hists =
        dataset.ComputeAllGroupHistograms(Census().labels, kClusters,
                                          /*max_threads=*/1);
    DPX_CHECK_OK(hists.status());
    benchmark::DoNotOptimize(hists->size());
  }
  SetRowsProcessed(state);
}

void IsaEmbed(benchmark::State& state, kernels::IsaLevel level) {
  kernels::ScopedForceIsa force(level);
  const Dataset& dataset = Census().adaptive;
  for (auto _ : state) {
    const std::vector<double> points = EmbedDataset(dataset);
    benchmark::DoNotOptimize(points.data());
  }
  SetRowsProcessed(state);
}

void IsaKModesAssign(benchmark::State& state, kernels::IsaLevel level) {
  kernels::ScopedForceIsa force(level);
  const Dataset& dataset = Census().adaptive;
  const ModeClustering clustering(dataset.schema(), Census().modes,
                                  "bench-modes");
  for (auto _ : state) {
    const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
    benchmark::DoNotOptimize(labels.data());
  }
  SetRowsProcessed(state);
}

void IsaCentroidAssign(benchmark::State& state, kernels::IsaLevel level) {
  kernels::ScopedForceIsa force(level);
  const Dataset& dataset = Census().adaptive;
  std::vector<std::vector<double>> centers;
  for (size_t c = 0; c < kClusters; ++c) {
    centers.push_back(EmbedTuple(dataset.schema(), Census().modes[c]));
  }
  const CentroidClustering clustering(dataset.schema(), std::move(centers),
                                      "bench-centroids");
  for (auto _ : state) {
    const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
    benchmark::DoNotOptimize(labels.data());
  }
  SetRowsProcessed(state);
}

// GMM-E-step-shaped load: per-row quadratic forms against k diagonal
// components over the embedded tile (the quad_form kernel dominates).
void IsaGmmScore(benchmark::State& state, kernels::IsaLevel level) {
  kernels::ScopedForceIsa force(level);
  const Dataset& dataset = Census().adaptive;
  const size_t dims = dataset.num_attributes();
  std::vector<double> log_weights(kClusters,
                                  -std::log(static_cast<double>(kClusters)));
  std::vector<std::vector<double>> means, vars;
  for (size_t c = 0; c < kClusters; ++c) {
    means.push_back(EmbedTuple(dataset.schema(), Census().modes[c]));
    vars.emplace_back(dims, 0.05 + 0.01 * static_cast<double>(c));
  }
  const GmmClustering clustering(dataset.schema(), std::move(log_weights),
                                 std::move(means), std::move(vars));
  for (auto _ : state) {
    const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
    benchmark::DoNotOptimize(labels.data());
  }
  SetRowsProcessed(state);
}

// The Stage-2 search's noise for 65,536 combinations (the 4^8 of an 8×4
// search): the keyed words, their uniforms and the Gumbel transform, in
// one keyed_gumbel call from a nonzero first index.
void IsaGumbel(benchmark::State& state, kernels::IsaLevel level) {
  kernels::ScopedForceIsa force(level);
  constexpr size_t kDraws = 65536;
  std::vector<double> noise(kDraws);
  uint64_t key = 11;
  for (auto _ : state) {
    kernels::Active().keyed_gumbel(key++, 4096, kDraws, noise.data());
    benchmark::DoNotOptimize(noise.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraws));
}

void RegisterIsaSweep() {
  using Fn = void (*)(benchmark::State&, kernels::IsaLevel);
  const std::pair<const char*, Fn> benches[] = {
      {"BM_IsaGroupHistograms", IsaGroupHistograms},
      {"BM_IsaEmbed", IsaEmbed},
      {"BM_IsaKModesAssign", IsaKModesAssign},
      {"BM_IsaCentroidAssign", IsaCentroidAssign},
      {"BM_IsaGmmScore", IsaGmmScore},
  };
  for (const auto& [name, fn] : benches) {
    for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
      const std::string full =
          std::string(name) + "/isa:" + kernels::IsaLevelName(level);
      benchmark::RegisterBenchmark(full.c_str(), fn, level)
          ->Unit(benchmark::kMillisecond)
          ->Iterations(3);
    }
  }
  // Sub-millisecond per batch: let the library pick the iteration count.
  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    const std::string full =
        std::string("BM_IsaGumbel/isa:") + kernels::IsaLevelName(level);
    benchmark::RegisterBenchmark(full.c_str(), IsaGumbel, level)
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dpclustx::bench::AddPoolContext();
  // Record the adaptive Census layout so the snapshot shows what "adaptive"
  // resolved to on this schema.
  const Dataset& census = Census().adaptive;
  size_t n8 = 0, n16 = 0, n32 = 0;
  for (size_t a = 0; a < census.num_attributes(); ++a) {
    switch (census.column_width(static_cast<AttrIndex>(a))) {
      case ColumnWidth::k8: ++n8; break;
      case ColumnWidth::k16: ++n16; break;
      case ColumnWidth::k32: ++n32; break;
    }
  }
  benchmark::AddCustomContext(
      "census_column_widths", "u8=" + std::to_string(n8) +
                                  " u16=" + std::to_string(n16) +
                                  " u32=" + std::to_string(n32));
  RegisterIsaSweep();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
