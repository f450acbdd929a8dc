#include "bench_common.h"

#include <cstdlib>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "baselines/dp_naive.h"
#include "baselines/dp_tabee.h"
#include "baselines/tabee.h"
#include "cluster/clustering.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/kernels/isa.h"
#include "data/synthetic.h"

namespace dpclustx::bench {

void AddPoolContext() {
  const char* env = std::getenv("DPCLUSTX_THREADS");
  benchmark::AddCustomContext("dpclustx_threads_env", env ? env : "");
  benchmark::AddCustomContext("compute_pool_width",
                              std::to_string(ComputePoolWidth()));
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  // Kernel dispatch state: numbers are not comparable across dispatch
  // levels, so every bench JSON records what this run actually executed.
  benchmark::AddCustomContext(
      "isa_detected", kernels::IsaLevelName(kernels::DetectedIsaLevel()));
  benchmark::AddCustomContext(
      "isa_active", kernels::IsaLevelName(kernels::ActiveIsaLevel()));
  benchmark::AddCustomContext("cpu_features", kernels::CpuFeatureString());
}

size_t NumRuns() {
  if (const char* env = std::getenv("DPX_BENCH_RUNS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<size_t>(value);
  }
  return 5;
}

double Scale() {
  if (const char* env = std::getenv("DPX_BENCH_SCALE")) {
    const double value = std::strtod(env, nullptr);
    if (value > 0.0) return value;
  }
  return 1.0;
}

Dataset MakeDataset(const std::string& name) {
  // Census is the larger table (50k rows at scale 1; the others 30k).
  const size_t rows = name == "census" ? 50000 : 30000;
  StatusOr<synth::SyntheticConfig> config = synth::PresetByName(name);
  DPX_CHECK_OK(config.status());
  config->num_rows = static_cast<size_t>(rows * Scale());
  return std::move(*synth::Generate(*config));
}

std::vector<std::string> MethodsFor(const std::string& dataset_name) {
  if (dataset_name == "census") {
    // The paper skips agglomerative clustering on Census (scalability).
    return {"k-means", "dp-k-means", "k-modes", "gmm"};
  }
  return {"k-means", "dp-k-means", "k-modes", "agglomerative", "gmm"};
}

std::vector<ClusterId> FitLabels(const Dataset& dataset,
                                 const std::string& method, size_t k,
                                 uint64_t seed) {
  ClusteringSpec spec;
  const StatusOr<ClusteringMethod> parsed = ParseClusteringMethod(method);
  DPX_CHECK_OK(parsed.status());
  spec.method = *parsed;
  spec.num_clusters = k;
  spec.seed = seed;
  spec.epsilon = 1.0;  // the paper's clustering budget (dp-k-means only)
  const auto clustering = FitClustering(dataset, spec);
  DPX_CHECK_OK(clustering.status());
  return (*clustering)->AssignAll(dataset);
}

AttributeCombination RunDpClustXSelection(const StatsCache& stats,
                                          double epsilon, size_t k,
                                          const GlobalWeights& lambda,
                                          uint64_t seed) {
  DpClustXOptions options;
  options.epsilon_cand_set = epsilon / 2.0;
  options.epsilon_top_comb = epsilon / 2.0;
  options.generate_histograms = false;
  options.num_candidates = k;
  options.lambda = lambda;
  options.seed = seed;
  const auto explanation = ExplainDpClustXWithStats(stats, options);
  DPX_CHECK_OK(explanation.status());
  return explanation->combination;
}

AttributeCombination RunDpTabeeSelection(const StatsCache& stats,
                                         double epsilon, size_t k,
                                         const GlobalWeights& lambda,
                                         uint64_t seed) {
  // Decorrelate from the other explainers' noise streams at equal seeds.
  seed ^= 0x9E3779B9ULL;
  baselines::DpTabeeOptions options;
  options.epsilon_cand_set = epsilon / 2.0;
  options.epsilon_top_comb = epsilon / 2.0;
  options.num_candidates = k;
  options.lambda = lambda;
  options.seed = seed;
  const auto explanation = baselines::ExplainDpTabee(stats, options);
  DPX_CHECK_OK(explanation.status());
  return explanation->combination;
}

AttributeCombination RunDpNaiveSelection(const StatsCache& stats,
                                         double epsilon, size_t k,
                                         const GlobalWeights& lambda,
                                         uint64_t seed) {
  seed ^= 0x51ED2700ULL;
  baselines::DpNaiveOptions options;
  options.epsilon = epsilon;
  options.num_candidates = k;
  options.lambda = lambda;
  options.seed = seed;
  const auto explanation = baselines::ExplainDpNaive(stats, options);
  DPX_CHECK_OK(explanation.status());
  return explanation->combination;
}

AttributeCombination RunTabeeSelection(const StatsCache& stats, size_t k,
                                       const GlobalWeights& lambda) {
  baselines::TabeeOptions options;
  options.num_candidates = k;
  options.lambda = lambda;
  const auto explanation = baselines::ExplainTabee(stats, options);
  DPX_CHECK_OK(explanation.status());
  return explanation->combination;
}

}  // namespace dpclustx::bench
