// Multiple explanations per cluster — the paper's Appendix B extension.
//
// Generalizes the attribute combination to AC : C → {S ⊆ A : |S| = ℓ}. The
// global score averages Int_p/Suf_p over all (cluster, attribute) candidates
// and averages pair diversity over all distinct candidate pairs (including
// pairs inside one cluster); it remains a convex combination of
// sensitivity-1 functions, so Δ = 1 still calibrates the exponential
// mechanism. Stage-1 is unchanged; Stage-2 enumerates C(k, ℓ)^|C|
// combinations, and the histogram budget per cluster is split across the ℓ
// released histograms (sequential within a cluster, parallel across
// clusters).

#ifndef DPCLUSTX_CORE_MULTI_EXPLAINER_H_
#define DPCLUSTX_CORE_MULTI_EXPLAINER_H_

#include "cluster/clustering.h"
#include "common/status.h"
#include "core/explainer.h"
#include "core/explanation.h"

namespace dpclustx {

struct MultiExplainOptions {
  /// Underlying DPClustX parameters (budgets, k, λ, noise, seed, threads,
  /// deadline). Only the top-k Stage-1 selector is supported: the ℓ-subset
  /// enumeration needs sets of exactly k attributes.
  DpClustXOptions base;
  /// Number of explanation attributes per cluster (ℓ). Requires
  /// 1 <= ℓ <= k.
  size_t attrs_per_cluster = 2;
};

/// A global explanation carrying ℓ single-cluster explanations per cluster.
struct MultiGlobalExplanation {
  /// combination[c] is the ℓ-subset selected for cluster c (sorted by
  /// decreasing Stage-1 rank).
  std::vector<std::vector<AttrIndex>> combination;
  /// explanations[c][i] explains cluster c with combination[c][i].
  std::vector<std::vector<SingleClusterExplanation>> explanations;
  std::vector<std::vector<AttrIndex>> candidate_sets;
};

/// Runs the multi-explanation variant with precomputed labels.
StatusOr<MultiGlobalExplanation> ExplainDpClustXMultiWithLabels(
    const Dataset& dataset, const std::vector<ClusterId>& labels,
    size_t num_clusters, const MultiExplainOptions& options,
    PrivacyBudget* budget = nullptr);

/// Runs the multi-explanation variant against a clustering function.
StatusOr<MultiGlobalExplanation> ExplainDpClustXMulti(
    const Dataset& dataset, const ClusteringFunction& clustering,
    const MultiExplainOptions& options, PrivacyBudget* budget = nullptr);

/// Extended global score of Appendix B for a multi-attribute combination
/// (exposed for tests): λ_Int·Int_ℓ + λ_Suf·Suf_ℓ + λ_Div·Div_ℓ.
double MultiGlobalScore(const StatsCache& stats,
                        const std::vector<std::vector<AttrIndex>>& ac,
                        const GlobalWeights& lambda);

}  // namespace dpclustx

#endif  // DPCLUSTX_CORE_MULTI_EXPLAINER_H_
