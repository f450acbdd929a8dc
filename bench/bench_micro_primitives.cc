// Micro-benchmarks of the library's hot primitives: noise samplers, the
// selection mechanisms, histogram operations, the statistics pass, and
// quality-function evaluation, and the Stage-2 combination search. These
// bound the constants behind the shape-level results of Figs. 9a–d.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/candidate_selection.h"
#include "core/explainer.h"
#include "core/quality.h"
#include "dp/dp_histogram.h"
#include "dp/exponential.h"
#include "dp/topk.h"

namespace {

using namespace dpclustx;
using namespace dpclustx::bench;

void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Laplace(2.0));
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_GumbelSample(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gumbel(1.0));
  }
}
BENCHMARK(BM_GumbelSample);

void BM_TwoSidedGeometricSample(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.TwoSidedGeometric(0.1));
  }
}
BENCHMARK(BM_TwoSidedGeometricSample);

void BM_ExponentialMechanism(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> scores(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>(i % 17);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExponentialMechanism(scores, 1.0, 0.1, rng).value());
  }
}
BENCHMARK(BM_ExponentialMechanism)->Arg(64)->Arg(1024);

void BM_OneShotTopK(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> scores(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>((i * 31) % 101);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OneShotTopK(scores, 1.0, 0.1, 3, rng).value());
  }
}
BENCHMARK(BM_OneShotTopK)->Arg(47)->Arg(512);

void BM_DpHistogramRelease(benchmark::State& state) {
  Rng rng(6);
  Histogram exact(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < exact.domain_size(); ++i) {
    exact.set_bin(static_cast<ValueCode>(i), 100.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ReleaseDpHistogram(exact, 0.1, rng).value());
  }
}
BENCHMARK(BM_DpHistogramRelease)->Arg(8)->Arg(39)->Arg(256);

void BM_HistogramTvd(benchmark::State& state) {
  Histogram a(39), b(39);
  for (size_t i = 0; i < 39; ++i) {
    a.set_bin(static_cast<ValueCode>(i), static_cast<double>(i + 1));
    b.set_bin(static_cast<ValueCode>(i), static_cast<double>(40 - i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::Tvd(a, b));
  }
}
BENCHMARK(BM_HistogramTvd);

void BM_StatsCacheBuild(benchmark::State& state) {
  static const Dataset& dataset = *new Dataset(MakeDataset("diabetes"));
  static const std::vector<ClusterId>& labels =
      *new std::vector<ClusterId>(FitLabels(dataset, "k-means", 5, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(StatsCache::Build(dataset, labels, 5).value());
  }
}
BENCHMARK(BM_StatsCacheBuild)->Unit(benchmark::kMillisecond);

void BM_SingleClusterScore(benchmark::State& state) {
  static const Dataset& dataset = *new Dataset(MakeDataset("diabetes"));
  static const std::vector<ClusterId>& labels =
      *new std::vector<ClusterId>(FitLabels(dataset, "k-means", 5, 1));
  static const StatsCache& stats =
      *new StatsCache(StatsCache::Build(dataset, labels, 5).value());
  const SingleClusterWeights gamma{0.5, 0.5};
  AttrIndex attr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SingleClusterScore(stats, 0, attr, gamma));
    attr = static_cast<AttrIndex>((attr + 1) % stats.num_attributes());
  }
}
BENCHMARK(BM_SingleClusterScore);

void BM_GlobalScore(benchmark::State& state) {
  static const Dataset& dataset = *new Dataset(MakeDataset("diabetes"));
  static const std::vector<ClusterId>& labels =
      *new std::vector<ClusterId>(FitLabels(dataset, "k-means", 5, 1));
  static const StatsCache& stats =
      *new StatsCache(StatsCache::Build(dataset, labels, 5).value());
  GlobalWeights lambda;
  const AttributeCombination ac = {0, 5, 9, 13, 21};
  for (auto _ : state) {
    benchmark::DoNotOptimize(GlobalScore(stats, ac, lambda));
  }
}
BENCHMARK(BM_GlobalScore);

// One Stage-2 search (1 thread) over range(0) clusters × range(1)
// candidates with random unary and pair tables; range(2) = 1 runs the
// private mechanism, 0 the exact argmax.
void BM_SearchCombination(benchmark::State& state) {
  const auto clusters = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const double epsilon = state.range(2) != 0 ? 0.1 : 0.0;
  Rng table_rng(6);
  std::vector<std::vector<AttrIndex>> sets(clusters);
  core_internal::CombinationScoreTables tables;
  tables.unary.resize(clusters);
  tables.pair.resize(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t j = 0; j < k; ++j) {
      sets[c].push_back(static_cast<AttrIndex>(j));
      tables.unary[c].push_back(1000.0 * table_rng.UniformDouble());
    }
    tables.pair[c].resize(clusters);
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      for (size_t j = 0; j < k * k; ++j) {
        tables.pair[c][cp].push_back(100.0 * table_rng.UniformDouble());
      }
    }
  }
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core_internal::SearchCombination(sets, tables, epsilon, 1.0,
                                         size_t{1} << 30, rng)
            .value());
  }
}
BENCHMARK(BM_SearchCombination)
    ->Args({8, 4, 1})
    ->Args({8, 4, 0})
    ->Args({11, 3, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
