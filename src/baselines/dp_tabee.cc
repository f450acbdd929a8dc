#include "baselines/dp_tabee.h"

#include "dp/topk.h"
#include "eval/metrics.h"

namespace dpclustx::baselines {

StatusOr<GlobalExplanation> ExplainDpTabee(const StatsCache& stats,
                                           const DpTabeeOptions& options) {
  DPX_RETURN_IF_ERROR(options.lambda.Validate());
  if (options.epsilon_cand_set <= 0.0 || options.epsilon_top_comb <= 0.0) {
    return Status::InvalidArgument("stage budgets must be positive");
  }
  if (options.num_candidates == 0 ||
      options.num_candidates > stats.num_attributes()) {
    return Status::InvalidArgument("invalid num_candidates");
  }
  Rng rng(options.seed);
  const SingleClusterWeights gamma =
      options.lambda.ConditionalSingleClusterWeights();

  // Stage-1: one-shot top-k over the sensitive single-cluster scores, at
  // ε_CandSet/|C| per cluster and Δ = 1.
  const double eps_topk =
      options.epsilon_cand_set / static_cast<double>(stats.num_clusters());
  std::vector<std::vector<AttrIndex>> candidate_sets;
  candidate_sets.reserve(stats.num_clusters());
  for (size_t c = 0; c < stats.num_clusters(); ++c) {
    std::vector<double> scores(stats.num_attributes());
    for (size_t a = 0; a < scores.size(); ++a) {
      scores[a] = eval::SensitiveSingleClusterScore(
          stats, static_cast<ClusterId>(c), static_cast<AttrIndex>(a), gamma);
    }
    DPX_ASSIGN_OR_RETURN(
        const std::vector<size_t> top,
        OneShotTopK(scores, eval::kSensitiveScoreSensitivity, eps_topk,
                    options.num_candidates, rng));
    std::vector<AttrIndex> set;
    set.reserve(top.size());
    for (size_t index : top) set.push_back(static_cast<AttrIndex>(index));
    candidate_sets.push_back(std::move(set));
  }

  // Stage-2: exponential mechanism over the sensitive global score, Δ = 1.
  const core_internal::CombinationScoreTables tables =
      eval::BuildSensitiveTables(stats, candidate_sets, options.lambda);
  DPX_ASSIGN_OR_RETURN(
      AttributeCombination combination,
      core_internal::SearchCombination(
          candidate_sets, tables, options.epsilon_top_comb,
          eval::kSensitiveScoreSensitivity, options.max_combinations, rng));

  GlobalExplanation explanation;
  explanation.combination = combination;
  explanation.candidate_sets = std::move(candidate_sets);
  if (!options.generate_histograms) return explanation;
  if (options.epsilon_hist <= 0.0) {
    return Status::InvalidArgument("epsilon_hist must be positive");
  }

  // Histogram release: DPClustX's own (Algorithm 2, lines 6–15).
  std::vector<std::vector<AttrIndex>> selected;
  for (AttrIndex attr : combination) selected.push_back({attr});
  DPX_ASSIGN_OR_RETURN(auto released,
                       core_internal::ReleaseExplanationHistograms(
                           stats, selected, options.epsilon_hist,
                           options.histogram, Deadline(), rng));
  for (auto& cluster : released) {
    explanation.per_cluster.push_back(std::move(cluster.front()));
  }
  return explanation;
}

}  // namespace dpclustx::baselines
