#include "core/explainer.h"

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
// Combinations scanned between deadline checks. Power of two so the
// checkpoint is a mask test; coarse enough (a few µs of lookups per block)
// that the steady_clock read is amortized to noise.
constexpr size_t kDeadlineCheckStride = 4096;
}  // namespace

CombinationScoreTables BuildLowSensitivityTables(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const GlobalWeights& lambda) {
  const size_t clusters = candidate_sets.size();
  CombinationScoreTables tables;
  // Per-(cluster, candidate) interestingness/sufficiency terms; each of the
  // k^|C| combinations is then scored with table lookups only.
  tables.unary.resize(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    tables.unary[c].resize(candidate_sets[c].size());
    for (size_t j = 0; j < candidate_sets[c].size(); ++j) {
      const auto cluster = static_cast<ClusterId>(c);
      const AttrIndex attr = candidate_sets[c][j];
      tables.unary[c][j] =
          (lambda.interestingness * InterestingnessP(stats, cluster, attr) +
           lambda.sufficiency * SufficiencyP(stats, cluster, attr)) /
          static_cast<double>(clusters);
    }
  }
  // pair[c][cp]: λ_Div-weighted pair diversities divided by C(|C|,2).
  const double pair_norm =
      clusters >= 2 ? lambda.diversity / PairCount(clusters) : 0.0;
  if (pair_norm > 0.0) {
    tables.pair.resize(clusters);
    for (size_t c = 0; c < clusters; ++c) {
      tables.pair[c].resize(clusters);
      for (size_t cp = c + 1; cp < clusters; ++cp) {
        auto& matrix = tables.pair[c][cp];
        matrix.resize(candidate_sets[c].size() * candidate_sets[cp].size());
        for (size_t j = 0; j < candidate_sets[c].size(); ++j) {
          for (size_t jp = 0; jp < candidate_sets[cp].size(); ++jp) {
            matrix[j * candidate_sets[cp].size() + jp] =
                pair_norm *
                PairDiversity(stats, static_cast<ClusterId>(c),
                              static_cast<ClusterId>(cp),
                              candidate_sets[c][j], candidate_sets[cp][jp]);
          }
        }
      }
    }
  }
  return tables;
}

StatusOr<AttributeCombination> SearchCombination(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, const Deadline& deadline) {
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

  const bool has_pairs = !tables.pair.empty();
  // Stream over all combinations with an odometer; track the argmax of
  // score·ε/(2Δ) + Gumbel(1) (the exponential mechanism via Gumbel-max), or
  // the exact argmax when epsilon <= 0 (non-private limit).
  const bool private_selection = epsilon > 0.0;
  if (private_selection && sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  const double scale =
      private_selection ? epsilon / (2.0 * sensitivity) : 1.0;
  std::vector<size_t> choice(clusters, 0);
  std::vector<size_t> best_choice(clusters, 0);
  double best_value = -std::numeric_limits<double>::infinity();
  for (size_t combo = 0; combo < num_combinations; ++combo) {
    if ((combo & (kDeadlineCheckStride - 1)) == 0) {
      DPX_RETURN_IF_ERROR(deadline.Check("stage2 search"));
    }
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
        scale * score + (private_selection ? rng.Gumbel(1.0) : 0.0);
    if (value > best_value) {
      best_value = value;
      best_choice = choice;
    }
    // Odometer increment.
    for (size_t c = 0; c < clusters; ++c) {
      if (++choice[c] < candidate_sets[c].size()) break;
      choice[c] = 0;
    }
  }

  AttributeCombination combination(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    combination[c] = candidate_sets[c][best_choice[c]];
  }
  return combination;
}

StatusOr<AttributeCombination> SearchCombinationParallel(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, size_t num_threads,
    const Deadline& deadline) {
  const size_t clusters = candidate_sets.size();
  if (clusters == 0) {
    return Status::InvalidArgument("need at least one cluster");
  }
  if (tables.unary.size() != clusters) {
    return Status::InvalidArgument("score tables do not match clusters");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  size_t num_combinations = 1;
  for (const auto& set : candidate_sets) {
    if (set.empty()) return Status::InvalidArgument("empty candidate set");
    if (num_combinations > max_combinations / set.size()) {
      return Status::InvalidArgument("combination space exceeds limit");
    }
    num_combinations *= set.size();
  }
  const bool private_selection = epsilon > 0.0;
  if (private_selection && sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  const double scale =
      private_selection ? epsilon / (2.0 * sensitivity) : 1.0;
  const bool has_pairs = !tables.pair.empty();
  const size_t workers = std::min(num_threads, num_combinations);

  struct ShardResult {
    double best_value = -std::numeric_limits<double>::infinity();
    std::vector<size_t> best_choice;
  };
  std::vector<ShardResult> results(workers);
  std::vector<Rng> shard_rngs;
  shard_rngs.reserve(workers);
  for (size_t w = 0; w < workers; ++w) shard_rngs.push_back(rng.Fork());

  // ParallelFor bodies cannot propagate Status, so cancellation is a shared
  // flag: the first shard to observe the deadline raises it, every shard
  // polls it at the same stride and bails, and the Status is materialized
  // after the join. Relaxed ordering suffices — the flag gates no data.
  std::atomic<bool> cancelled{false};

  auto scan_shard = [&](size_t worker) {
    const size_t begin = worker * num_combinations / workers;
    const size_t end = (worker + 1) * num_combinations / workers;
    if (begin >= end) return;
    Rng& shard_rng = shard_rngs[worker];
    ShardResult& result = results[worker];
    // Decode the first index (mixed radix, cluster 0 least significant —
    // matching the serial odometer), then advance incrementally.
    std::vector<size_t> choice(clusters);
    size_t remainder = begin;
    for (size_t c = 0; c < clusters; ++c) {
      choice[c] = remainder % candidate_sets[c].size();
      remainder /= candidate_sets[c].size();
    }
    for (size_t combo = begin; combo < end; ++combo) {
      if ((combo & (kDeadlineCheckStride - 1)) == 0) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        if (deadline.Expired()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
      }
      double score = 0.0;
      for (size_t c = 0; c < clusters; ++c) {
        score += tables.unary[c][choice[c]];
      }
      if (has_pairs) {
        for (size_t c = 0; c < clusters; ++c) {
          for (size_t cp = c + 1; cp < clusters; ++cp) {
            score +=
                tables.pair[c][cp][choice[c] * candidate_sets[cp].size() +
                                   choice[cp]];
          }
        }
      }
      const double value =
          scale * score +
          (private_selection ? shard_rng.Gumbel(1.0) : 0.0);
      // Exact mode tie-break: prefer the lowest combination index, like the
      // serial scan (strict > keeps the first maximum within a shard; the
      // merge below prefers lower shards on ties).
      if (value > result.best_value) {
        result.best_value = value;
        result.best_choice = choice;
      }
      for (size_t c = 0; c < clusters; ++c) {
        if (++choice[c] < candidate_sets[c].size()) break;
        choice[c] = 0;
      }
    }
  };

  // The shard structure (and thus each shard's forked noise stream) is fixed
  // by num_threads; execution runs on the shared compute pool, which may use
  // fewer threads without changing which shard scans which range.
  ParallelFor(
      workers, /*grain=*/1,
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        for (size_t w = begin; w < end; ++w) scan_shard(w);
      },
      workers);
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("deadline exceeded in stage2 search");
  }

  size_t best_worker = 0;
  for (size_t w = 1; w < workers; ++w) {
    if (results[w].best_value > results[best_worker].best_value) {
      best_worker = w;
    }
  }
  const std::vector<size_t>& best = results[best_worker].best_choice;
  DPX_CHECK(!best.empty());
  AttributeCombination combination(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    combination[c] = candidate_sets[c][best[c]];
  }
  return combination;
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
    StatusOr<AttributeCombination> selected =
        options.num_threads > 1
            ? core_internal::SearchCombinationParallel(
                  candidate_sets, tables, options.epsilon_top_comb,
                  kGlScoreSensitivity, options.max_combinations, rng,
                  options.num_threads, options.deadline)
            : core_internal::SearchCombination(
                  candidate_sets, tables, options.epsilon_top_comb,
                  kGlScoreSensitivity, options.max_combinations, rng,
                  options.deadline);
    DPX_RETURN_IF_ERROR(selected.status());
    combination = std::move(selected).value();
  }

  GlobalExplanation explanation;
  explanation.combination = combination;
  explanation.candidate_sets = std::move(candidate_sets);
  if (!options.generate_histograms) return explanation;

  DPX_SPAN("stage2_histograms");
  // Line 6: distinct selected attributes A'.
  const std::set<AttrIndex> distinct(combination.begin(), combination.end());
  // Line 7: budget split between full-dataset and cluster histograms.
  const double eps_hist_all =
      options.epsilon_hist / (2.0 * static_cast<double>(distinct.size()));
  const double eps_hist_cluster = options.epsilon_hist / 2.0;

  // Lines 8–10: noisy full-dataset histograms (sequential composition over
  // the |A'| attributes).
  std::vector<Histogram> noisy_full(stats.num_attributes());
  for (AttrIndex attr : distinct) {
    DPX_RETURN_IF_ERROR(options.deadline.Check("full histograms"));
    DPX_ASSIGN_OR_RETURN(
        noisy_full[attr],
        ReleaseDpHistogram(stats.full_histogram(attr), eps_hist_all, rng,
                           options.histogram));
  }

  // Lines 11–15: per-cluster noisy histograms (parallel composition across
  // the disjoint clusters) and post-processed out-of-cluster histograms.
  explanation.per_cluster.resize(stats.num_clusters());
  for (size_t c = 0; c < stats.num_clusters(); ++c) {
    DPX_RETURN_IF_ERROR(options.deadline.Check("cluster histograms"));
    const auto cluster = static_cast<ClusterId>(c);
    const AttrIndex attr = combination[c];
    SingleClusterExplanation& e = explanation.per_cluster[c];
    e.cluster = cluster;
    e.attribute = attr;
    e.epsilon_inside = eps_hist_cluster;
    e.epsilon_full = eps_hist_all;
    e.noise = options.histogram.noise;
    DPX_ASSIGN_OR_RETURN(
        e.inside,
        ReleaseDpHistogram(stats.cluster_histogram(cluster, attr),
                           eps_hist_cluster, rng, options.histogram));
    e.outside = noisy_full[attr].SubtractClamped(e.inside);
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
