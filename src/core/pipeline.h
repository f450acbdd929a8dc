// One-call pipeline facade: cluster a dataset and explain it under a single
// privacy budget. This is the API surface the command-line tools and most
// downstream adopters want — pick a clustering method and the budgets, get
// back the explanation, the labels, and the evaluation-ready statistics.

#ifndef DPCLUSTX_CORE_PIPELINE_H_
#define DPCLUSTX_CORE_PIPELINE_H_

#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "core/explainer.h"
#include "core/stats_cache.h"
#include "dp/privacy_budget.h"

namespace dpclustx {

struct PipelineOptions {
  /// The clustering fit; only dp-k-means consumes `clustering.epsilon`.
  ClusteringSpec clustering;
  /// DPClustX explanation parameters (budgets, k, λ, noise, seed, threads).
  DpClustXOptions explain;
};

struct PipelineResult {
  GlobalExplanation explanation;
  /// Per-row labels of the fitted clustering.
  std::vector<ClusterId> labels;
  /// Exact statistics of the clustering — SENSITIVE; for evaluation only,
  /// never for release.
  StatsCache stats;
  /// Description of the fitted clustering ("dp-k-means(k=5)").
  std::string clustering_name;
};

/// Runs cluster-then-explain. If `budget` is non-null, both stages charge
/// it (DP clustering first, so an insufficient budget fails before any
/// explanation noise is drawn). Options the explainer would refuse are
/// refused before the fit, so such a run charges nothing.
StatusOr<PipelineResult> RunPipeline(const Dataset& dataset,
                                     const PipelineOptions& options,
                                     PrivacyBudget* budget = nullptr);

}  // namespace dpclustx

#endif  // DPCLUSTX_CORE_PIPELINE_H_
