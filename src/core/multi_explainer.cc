#include "core/multi_explainer.h"

#include <numeric>

#include "common/logging.h"
#include "common/math_util.h"
#include "core/candidate_selection.h"

namespace dpclustx {

namespace {

// Flattened candidate list {(cluster, attribute)} of a multi-combination.
std::vector<std::pair<ClusterId, AttrIndex>> Candidates(
    const std::vector<std::vector<AttrIndex>>& ac) {
  std::vector<std::pair<ClusterId, AttrIndex>> cands;
  for (size_t c = 0; c < ac.size(); ++c) {
    for (AttrIndex attr : ac[c]) {
      cands.emplace_back(static_cast<ClusterId>(c), attr);
    }
  }
  return cands;
}

// Appends to `out` every ℓ-subset of set[from..] extended from `prefix`, in
// lexicographic order of positions.
void AppendSubsets(const std::vector<AttrIndex>& set, size_t from, size_t l,
                   std::vector<AttrIndex>& prefix,
                   std::vector<std::vector<AttrIndex>>& out) {
  if (prefix.size() == l) {
    out.push_back(prefix);
    return;
  }
  for (size_t i = from; i + l - prefix.size() <= set.size(); ++i) {
    prefix.push_back(set[i]);
    AppendSubsets(set, i + 1, l, prefix, out);
    prefix.pop_back();
  }
}

}  // namespace

double MultiGlobalScore(const StatsCache& stats,
                        const std::vector<std::vector<AttrIndex>>& ac,
                        const GlobalWeights& lambda) {
  DPX_CHECK_EQ(ac.size(), stats.num_clusters());
  const auto cands = Candidates(ac);
  DPX_CHECK(!cands.empty());
  double mean_int = 0.0, mean_suf = 0.0;
  for (const auto& [cluster, attr] : cands) {
    if (lambda.interestingness > 0.0) {
      mean_int += InterestingnessP(stats, cluster, attr);
    }
    if (lambda.sufficiency > 0.0) {
      mean_suf += SufficiencyP(stats, cluster, attr);
    }
  }
  mean_int /= static_cast<double>(cands.size());
  mean_suf /= static_cast<double>(cands.size());
  double div = 0.0;
  if (lambda.diversity > 0.0 && cands.size() >= 2) {
    for (size_t i = 0; i < cands.size(); ++i) {
      for (size_t j = i + 1; j < cands.size(); ++j) {
        div += PairDiversity(stats, cands[i].first, cands[j].first,
                             cands[i].second, cands[j].second);
      }
    }
    div /= PairCount(cands.size());
  }
  return lambda.interestingness * mean_int + lambda.sufficiency * mean_suf +
         lambda.diversity * div;
}

StatusOr<MultiGlobalExplanation> ExplainDpClustXMultiWithLabels(
    const Dataset& dataset, const std::vector<ClusterId>& labels,
    size_t num_clusters, const MultiExplainOptions& options,
    PrivacyBudget* budget) {
  const DpClustXOptions& base = options.base;
  DPX_RETURN_IF_ERROR(base.Validate());
  if (base.stage1 != Stage1Selector::kOneShotTopK) {
    // The ℓ-subset enumeration needs sets of exactly k attributes, which
    // only the top-k selector guarantees.
    return Status::InvalidArgument(
        "the multi-explainer supports only the top-k Stage-1 selector");
  }
  const size_t l = options.attrs_per_cluster;
  DPX_RETURN_IF_ERROR(
      base.ValidateShape(dataset.num_rows(), dataset.num_attributes(),
                         num_clusters, l));
  DPX_ASSIGN_OR_RETURN(const StatsCache stats,
                       StatsCache::Build(dataset, labels, num_clusters,
                                         base.num_threads));

  if (budget != nullptr) {
    DPX_RETURN_IF_ERROR(
        budget->Spend(base.epsilon_cand_set, "dpclustx-multi/stage1"));
    DPX_RETURN_IF_ERROR(
        budget->Spend(base.epsilon_top_comb, "dpclustx-multi/stage2"));
    if (base.generate_histograms) {
      DPX_RETURN_IF_ERROR(
          budget->Spend(base.epsilon_hist, "dpclustx-multi/histograms"));
    }
  }

  Rng rng(base.seed);

  // Stage-1 (unchanged from the single-explanation algorithm).
  CandidateSelectionOptions stage1;
  stage1.epsilon = base.epsilon_cand_set;
  stage1.k = base.num_candidates;
  stage1.gamma = base.lambda.ConditionalSingleClusterWeights();
  stage1.deadline = base.deadline;
  DPX_ASSIGN_OR_RETURN(auto candidate_sets,
                       SelectCandidates(stats, stage1, rng));

  // Stage-2: EM over C(k, ℓ)^|C| subset combinations. choices[c][s] is
  // cluster c's s-th ℓ-subset; the search picks one index s per cluster.
  std::vector<std::vector<std::vector<AttrIndex>>> choices(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    std::vector<AttrIndex> prefix;
    AppendSubsets(candidate_sets[c], 0, l, prefix, choices[c]);
  }
  std::vector<AttrIndex> subset_ids(choices.front().size());
  std::iota(subset_ids.begin(), subset_ids.end(), AttrIndex{0});
  DPX_ASSIGN_OR_RETURN(
      const AttributeCombination chosen,
      core_internal::SearchCombination(
          std::vector<std::vector<AttrIndex>>(num_clusters, subset_ids),
          core_internal::BuildSubsetTables(stats, choices, base.lambda),
          base.epsilon_top_comb, kGlScoreSensitivity, base.max_combinations,
          rng, base.deadline, base.num_threads));

  MultiGlobalExplanation result;
  for (size_t c = 0; c < num_clusters; ++c) {
    result.combination.push_back(std::move(choices[c][chosen[c]]));
  }
  result.candidate_sets = std::move(candidate_sets);
  if (!base.generate_histograms) return result;

  DPX_ASSIGN_OR_RETURN(result.explanations,
                       core_internal::ReleaseExplanationHistograms(
                           stats, result.combination, base.epsilon_hist,
                           base.histogram, base.deadline, rng));
  return result;
}

StatusOr<MultiGlobalExplanation> ExplainDpClustXMulti(
    const Dataset& dataset, const ClusteringFunction& clustering,
    const MultiExplainOptions& options, PrivacyBudget* budget) {
  const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
  return ExplainDpClustXMultiWithLabels(dataset, labels,
                                        clustering.num_clusters(), options,
                                        budget);
}

}  // namespace dpclustx
