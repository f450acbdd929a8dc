#include "core/explainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "core/candidate_selection.h"
#include "obs/trace.h"

namespace dpclustx {

namespace core_internal {

namespace {
// Combinations per search block: the unit of scoring, of the deadline check
// (a few µs of lookups, so the steady_clock read is amortized to noise) and
// of the winner merge. Blocks depend only on the combination index, never
// on the thread count.
constexpr size_t kSearchBlock = 4096;
// Blocks per batch. A batch's uniforms are buffered between the serial
// draw and the parallel transform, so this bounds that buffer (512 KiB).
constexpr size_t kSearchBatch = 16 * kSearchBlock;

struct Winner {
  double value = -std::numeric_limits<double>::infinity();
  size_t combo = 0;
};

// The first maximum of scale·score + Gumbel over combinations [begin, end),
// where uniforms[i] is the uniform drawn for combination begin + i (nullptr
// in exact mode: no noise).
Winner ScanBlock(const std::vector<std::vector<AttrIndex>>& candidate_sets,
                 const CombinationScoreTables& tables, double scale,
                 const double* uniforms, size_t begin, size_t end) {
  const size_t clusters = candidate_sets.size();
  const bool has_pairs = !tables.pair.empty();
  // Decode the first index (mixed radix, cluster 0 least significant), then
  // advance with an odometer.
  std::vector<size_t> choice(clusters);
  for (size_t c = 0, rest = begin; c < clusters; ++c) {
    choice[c] = rest % candidate_sets[c].size();
    rest /= candidate_sets[c].size();
  }
  Winner winner;
  for (size_t combo = begin; combo < end; ++combo) {
    double score = 0.0;
    for (size_t c = 0; c < clusters; ++c) {
      score += tables.unary[c][choice[c]];
    }
    if (has_pairs) {
      for (size_t c = 0; c < clusters; ++c) {
        for (size_t cp = c + 1; cp < clusters; ++cp) {
          score += tables.pair[c][cp][choice[c] * candidate_sets[cp].size() +
                                      choice[cp]];
        }
      }
    }
    const double value =
        scale * score +
        (uniforms != nullptr
             ? Rng::GumbelFromUniform(uniforms[combo - begin], 1.0)
             : 0.0);
    if (value > winner.value) winner = {value, combo};
    for (size_t c = 0; c < clusters; ++c) {
      if (++choice[c] < candidate_sets[c].size()) break;
      choice[c] = 0;
    }
  }
  return winner;
}
}  // namespace

CombinationScoreTables BuildSubsetTables(
    const StatsCache& stats,
    const std::vector<std::vector<std::vector<AttrIndex>>>& choices,
    const GlobalWeights& lambda) {
  const size_t clusters = choices.size();
  // n (cluster, attribute) pairs per combination: Int/Suf average over the
  // n pairs, diversity over their C(n, 2) pairs of pairs.
  size_t n = 0;
  for (const auto& options : choices) {
    n += options.empty() ? 0 : options.front().size();
  }
  const double pair_norm = n >= 2 ? lambda.diversity / PairCount(n) : 0.0;
  CombinationScoreTables tables;
  // unary[c][s]: Int/Suf of the choice's attributes plus the diversity of
  // the pairs inside it. Each combination is then scored by lookups only.
  tables.unary.resize(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    const auto cluster = static_cast<ClusterId>(c);
    for (const std::vector<AttrIndex>& attrs : choices[c]) {
      double single = 0.0, within = 0.0;
      for (size_t i = 0; i < attrs.size(); ++i) {
        single +=
            lambda.interestingness * InterestingnessP(stats, cluster,
                                                      attrs[i]) +
            lambda.sufficiency * SufficiencyP(stats, cluster, attrs[i]);
        for (size_t j = i + 1; j < attrs.size(); ++j) {
          within += PairDiversity(stats, cluster, cluster, attrs[i], attrs[j]);
        }
      }
      tables.unary[c].push_back(single / static_cast<double>(n) +
                                pair_norm * within);
    }
  }
  if (pair_norm <= 0.0) return tables;
  // pair[c][cp]: the diversity of the pairs across two clusters' choices.
  tables.pair.resize(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    tables.pair[c].resize(clusters);
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      for (const std::vector<AttrIndex>& attrs : choices[c]) {
        for (const std::vector<AttrIndex>& attrs_p : choices[cp]) {
          double across = 0.0;
          for (const AttrIndex attr : attrs) {
            for (const AttrIndex attr_p : attrs_p) {
              across += PairDiversity(stats, static_cast<ClusterId>(c),
                                      static_cast<ClusterId>(cp), attr,
                                      attr_p);
            }
          }
          tables.pair[c][cp].push_back(pair_norm * across);
        }
      }
    }
  }
  return tables;
}

CombinationScoreTables BuildLowSensitivityTables(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const GlobalWeights& lambda) {
  std::vector<std::vector<std::vector<AttrIndex>>> choices(
      candidate_sets.size());
  for (size_t c = 0; c < candidate_sets.size(); ++c) {
    for (const AttrIndex attr : candidate_sets[c]) choices[c].push_back({attr});
  }
  return BuildSubsetTables(stats, choices, lambda);
}

StatusOr<AttributeCombination> SearchCombination(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, const Deadline& deadline,
    size_t num_threads) {
  const size_t clusters = candidate_sets.size();
  if (clusters == 0) {
    return Status::InvalidArgument("need at least one cluster");
  }
  if (tables.unary.size() != clusters) {
    return Status::InvalidArgument("score tables do not match clusters");
  }
  // Search-space size k_1·k_2·...·k_|C| with overflow-safe accumulation.
  size_t num_combinations = 1;
  for (const auto& set : candidate_sets) {
    if (set.empty()) {
      return Status::InvalidArgument("empty candidate set");
    }
    if (num_combinations > max_combinations / set.size()) {
      return Status::InvalidArgument(
          "combination space exceeds max_combinations=" +
          std::to_string(max_combinations) +
          "; reduce the candidate-set size k or the number of clusters");
    }
    num_combinations *= set.size();
  }

  // The argmax of score·ε/(2Δ) + Gumbel(1) over all combinations (the
  // exponential mechanism via Gumbel-max), or the exact argmax when
  // epsilon <= 0 (non-private limit).
  const bool private_selection = epsilon > 0.0;
  if (private_selection && sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  const double scale =
      private_selection ? epsilon / (2.0 * sensitivity) : 1.0;

  // Thread-count invariance (DESIGN.md §8): each batch's uniforms are drawn
  // serially in combination order — the words a one-at-a-time scan draws —
  // blocks are scored and Gumbel-transformed in parallel, and block winners
  // merge in ascending order with strict > (the first maximum wins).
  std::vector<double> uniforms(
      private_selection ? std::min(num_combinations, kSearchBatch) : 0);
  std::vector<Winner> block_winners(kSearchBatch / kSearchBlock);
  // ParallelFor bodies cannot return a Status: a block that finds the
  // deadline passed raises this flag (relaxed: it gates no data).
  std::atomic<bool> expired{false};
  Winner best;
  for (size_t batch = 0; batch < num_combinations; batch += kSearchBatch) {
    const size_t batch_end = std::min(num_combinations, batch + kSearchBatch);
    if (private_selection) {
      for (size_t i = 0; i < batch_end - batch; ++i) {
        uniforms[i] = rng.UniformOpenDouble();
      }
    }
    const size_t blocks = (batch_end - batch + kSearchBlock - 1) / kSearchBlock;
    ParallelFor(
        blocks, /*grain=*/1,
        [&](size_t /*chunk*/, size_t first, size_t last) {
          for (size_t b = first; b < last; ++b) {
            if (deadline.Expired()) {
              expired.store(true, std::memory_order_relaxed);
              return;
            }
            const size_t begin = batch + b * kSearchBlock;
            block_winners[b] = ScanBlock(
                candidate_sets, tables, scale,
                private_selection ? uniforms.data() + b * kSearchBlock
                                  : nullptr,
                begin, std::min(batch_end, begin + kSearchBlock));
          }
        },
        num_threads);
    if (expired.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("deadline exceeded in stage2 search");
    }
    for (size_t b = 0; b < blocks; ++b) {
      if (block_winners[b].value > best.value) best = block_winners[b];
    }
  }

  AttributeCombination combination(clusters);
  size_t remainder = best.combo;
  for (size_t c = 0; c < clusters; ++c) {
    combination[c] = candidate_sets[c][remainder % candidate_sets[c].size()];
    remainder /= candidate_sets[c].size();
  }
  return combination;
}

StatusOr<std::vector<std::vector<SingleClusterExplanation>>>
ReleaseExplanationHistograms(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& selected, double epsilon_hist,
    const DpHistogramOptions& histogram, const Deadline& deadline, Rng& rng) {
  // Line 6: distinct selected attributes A'.
  std::set<AttrIndex> distinct;
  for (const auto& attrs : selected) {
    distinct.insert(attrs.begin(), attrs.end());
  }
  // Line 7: budget split between full-dataset and cluster histograms.
  const double eps_hist_all =
      epsilon_hist / (2.0 * static_cast<double>(distinct.size()));

  // Lines 8–10: noisy full-dataset histograms (sequential composition over
  // the |A'| attributes).
  std::vector<Histogram> noisy_full(stats.num_attributes());
  for (AttrIndex attr : distinct) {
    DPX_RETURN_IF_ERROR(deadline.Check("full histograms"));
    DPX_ASSIGN_OR_RETURN(noisy_full[attr],
                         ReleaseDpHistogram(stats.full_histogram(attr),
                                            eps_hist_all, rng, histogram));
  }

  // Lines 11–15: per-cluster noisy histograms (sequential over a cluster's
  // ℓ attributes, parallel composition across the disjoint clusters) and
  // post-processed out-of-cluster histograms.
  std::vector<std::vector<SingleClusterExplanation>> explanations(
      selected.size());
  for (size_t c = 0; c < selected.size(); ++c) {
    DPX_RETURN_IF_ERROR(deadline.Check("cluster histograms"));
    const auto cluster = static_cast<ClusterId>(c);
    const double eps_hist_cluster =
        epsilon_hist / (2.0 * static_cast<double>(selected[c].size()));
    for (AttrIndex attr : selected[c]) {
      SingleClusterExplanation e;
      e.cluster = cluster;
      e.attribute = attr;
      e.epsilon_inside = eps_hist_cluster;
      e.epsilon_full = eps_hist_all;
      e.noise = histogram.noise;
      DPX_ASSIGN_OR_RETURN(
          e.inside, ReleaseDpHistogram(stats.cluster_histogram(cluster, attr),
                                       eps_hist_cluster, rng, histogram));
      e.outside = noisy_full[attr].SubtractClamped(e.inside);
      explanations[c].push_back(std::move(e));
    }
  }
  return explanations;
}

}  // namespace core_internal

Status DpClustXOptions::Validate() const {
  DPX_RETURN_IF_ERROR(lambda.Validate());
  if (epsilon_cand_set <= 0.0 || epsilon_top_comb <= 0.0) {
    return Status::InvalidArgument(
        "epsilon_cand_set and epsilon_top_comb must be positive");
  }
  if (generate_histograms && epsilon_hist <= 0.0) {
    return Status::InvalidArgument(
        "epsilon_hist must be positive when histograms are generated");
  }
  if (num_candidates == 0) {
    return Status::InvalidArgument("num_candidates must be >= 1");
  }
  return Status::OK();
}

Status DpClustXOptions::ValidateShape(size_t num_attributes,
                                      size_t num_clusters,
                                      size_t subset_size) const {
  const size_t k = num_candidates;
  if (subset_size == 0 || subset_size > k) {
    return Status::InvalidArgument(
        "attrs_per_cluster must lie in [1, num_candidates]");
  }
  if (k > num_attributes) {
    return Status::InvalidArgument(
        stage1 == Stage1Selector::kSvt
            ? "SVT stage-1: bad max_candidates"
            : "candidate-set size k=" + std::to_string(k) +
                  " must lie in [1, num_attributes=" +
                  std::to_string(num_attributes) + "]");
  }
  // SVT sets may hold fewer than k attributes; the search bounds their
  // actual space.
  if (stage1 == Stage1Selector::kSvt) return Status::OK();
  // choices = C(k, ℓ) = C(k, r), r = min(ℓ, k − ℓ). The partial products
  // C(k, i), i <= r, only grow, so stopping once one exceeds the limit is
  // safe (and keeps them from overflowing).
  size_t choices = 1;
  const size_t r = std::min(subset_size, k - subset_size);
  for (size_t i = 0; i < r && choices <= max_combinations; ++i) {
    choices = choices * (k - i) / (i + 1);
  }
  size_t space = 1;
  for (size_t c = 0; c < num_clusters; ++c) {
    if (space > max_combinations / choices) {
      return Status::InvalidArgument(
          std::string(subset_size > 1 ? "multi-explanation " : "") +
          "combination space exceeds max_combinations=" +
          std::to_string(max_combinations) +
          "; reduce the candidate-set size k or the number of clusters");
    }
    space *= choices;
  }
  return Status::OK();
}

StatusOr<GlobalExplanation> ExplainDpClustXWithLabels(
    const Dataset& dataset, const std::vector<ClusterId>& labels,
    size_t num_clusters, const DpClustXOptions& options,
    PrivacyBudget* budget) {
  DPX_RETURN_IF_ERROR(options.Validate());
  DPX_ASSIGN_OR_RETURN(const StatsCache stats,
                       StatsCache::Build(dataset, labels, num_clusters,
                                         options.num_threads));
  return ExplainDpClustXWithStats(stats, options, budget);
}

StatusOr<GlobalExplanation> ExplainDpClustXWithStats(
    const StatsCache& stats, const DpClustXOptions& options,
    PrivacyBudget* budget) {
  DPX_RETURN_IF_ERROR(options.Validate());
  DPX_RETURN_IF_ERROR(
      options.ValidateShape(stats.num_attributes(), stats.num_clusters()));
  // Check the deadline BEFORE reserving budget: a request that expired while
  // queued must charge nothing. Checkpoints past this point do not refund —
  // the accountant may overstate, never understate, the released ε.
  DPX_RETURN_IF_ERROR(options.deadline.Check("explain start"));

  // Reserve the whole run's budget up front so a failure cannot leave a
  // partially-released explanation.
  {
    DPX_SPAN("budget_reserve");
    if (budget != nullptr) {
      DPX_RETURN_IF_ERROR(budget->Spend(options.epsilon_cand_set,
                                        "dpclustx/stage1-candidates"));
      DPX_RETURN_IF_ERROR(budget->Spend(options.epsilon_top_comb,
                                        "dpclustx/stage2-selection"));
      if (options.generate_histograms) {
        DPX_RETURN_IF_ERROR(
            budget->Spend(options.epsilon_hist, "dpclustx/histograms"));
      }
    }
  }

  Rng rng(options.seed);

  // Algorithm 2, lines 1–2: conditional single-cluster weights γ from λ,
  // then the configured Stage-1 mechanism. (Spans time the stages only —
  // they never touch the Rng, so the noise-stream contract is untouched.)
  std::vector<std::vector<AttrIndex>> candidate_sets;
  {
    DPX_SPAN("stage1_candidates");
    const SingleClusterWeights gamma =
        options.lambda.ConditionalSingleClusterWeights();
    switch (options.stage1) {
      case Stage1Selector::kOneShotTopK: {
        CandidateSelectionOptions stage1;
        stage1.epsilon = options.epsilon_cand_set;
        stage1.k = options.num_candidates;
        stage1.gamma = gamma;
        stage1.deadline = options.deadline;
        DPX_ASSIGN_OR_RETURN(candidate_sets,
                             SelectCandidates(stats, stage1, rng));
        break;
      }
      case Stage1Selector::kSvt: {
        SvtCandidateOptions stage1;
        stage1.epsilon = options.epsilon_cand_set;
        stage1.max_candidates = options.num_candidates;
        stage1.threshold_fraction = options.svt_threshold_fraction;
        stage1.gamma = gamma;
        stage1.deadline = options.deadline;
        DPX_ASSIGN_OR_RETURN(candidate_sets,
                             SvtSelectCandidates(stats, stage1, rng));
        break;
      }
    }
  }

  // Lines 4–5: exponential mechanism over candidate combinations.
  AttributeCombination combination;
  {
    DPX_SPAN("stage2_select");
    const core_internal::CombinationScoreTables tables =
        core_internal::BuildLowSensitivityTables(stats, candidate_sets,
                                                 options.lambda);
    DPX_ASSIGN_OR_RETURN(
        combination,
        core_internal::SearchCombination(
            candidate_sets, tables, options.epsilon_top_comb,
            kGlScoreSensitivity, options.max_combinations, rng,
            options.deadline, options.num_threads));
  }

  GlobalExplanation explanation;
  explanation.combination = combination;
  explanation.candidate_sets = std::move(candidate_sets);
  if (!options.generate_histograms) return explanation;

  DPX_SPAN("stage2_histograms");
  std::vector<std::vector<AttrIndex>> selected;
  for (AttrIndex attr : combination) selected.push_back({attr});
  DPX_ASSIGN_OR_RETURN(
      auto released,
      core_internal::ReleaseExplanationHistograms(
          stats, selected, options.epsilon_hist, options.histogram,
          options.deadline, rng));
  for (auto& cluster : released) {
    explanation.per_cluster.push_back(std::move(cluster.front()));
  }
  return explanation;
}

StatusOr<GlobalExplanation> ExplainDpClustX(const Dataset& dataset,
                                            const ClusteringFunction& clustering,
                                            const DpClustXOptions& options,
                                            PrivacyBudget* budget) {
  const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
  return ExplainDpClustXWithLabels(dataset, labels, clustering.num_clusters(),
                                   options, budget);
}

}  // namespace dpclustx
