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
#include "data/kernels/kernel_table.h"
#include "obs/trace.h"

namespace dpclustx {

namespace core_internal {

namespace {
// Combinations per search block: the unit of scoring, of the deadline check
// (a few µs of work, so the steady_clock read is amortized to noise) and
// of the winner merge. Blocks depend only on the combination index, never
// on the thread count.
constexpr size_t kSearchBlock = 4096;
// Blocks per batch. A batch's uniforms are buffered between the serial
// draw and the parallel transform, so this bounds that buffer (512 KiB).
constexpr size_t kSearchBatch = 16 * kSearchBlock;
// Bound on the sum of the largest |entry| of every term table, in score
// units: 2^62 fixed-point units. The sum of any subset of a combination's
// rounded terms then stays below 2^63 in magnitude, so no int64 partial
// sum overflows: the margin covers the rounding (T/2 units) and the
// rounding of the bound's own double sum.
constexpr double kMaxScoreMagnitude = 0x1p62 / (1ULL << kScoreFractionBits);

// The score tables rounded once to multiples of 2^-kScoreFractionBits, in
// one array. Pair tables are stored transposed: across(c, cp) is k_cp × k_c,
// so one choice of cluster cp adds a contiguous row across cluster c's
// choices. Tables without pair terms get all-zero pair tables, so one scan
// serves both.
struct FixedPointTables {
  std::vector<size_t> sizes;  // k_c
  std::vector<int64_t> values;
  std::vector<size_t> unary_at;   // [c]
  std::vector<size_t> across_at;  // [c·|C| + cp], c < cp

  const int64_t* unary(size_t c) const { return values.data() + unary_at[c]; }
  // k_c entries: the pair terms of cluster c's choices with choice j of
  // cluster cp.
  const int64_t* across(size_t c, size_t cp, size_t j) const {
    return values.data() + across_at[c * sizes.size() + cp] + j * sizes[c];
  }
};

StatusOr<FixedPointTables> QuantizeTables(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables) {
  const size_t clusters = candidate_sets.size();
  const bool has_pairs = !tables.pair.empty();
  FixedPointTables fixed;
  for (const auto& set : candidate_sets) fixed.sizes.push_back(set.size());
  if (has_pairs && tables.pair.size() != clusters) {
    return Status::InvalidArgument("score tables do not match clusters");
  }
  // Shapes and the overflow bound first, so nothing out of range is
  // converted to an integer.
  double magnitude = 0.0;
  auto add_term = [&](const std::vector<double>& term,
                      size_t expected) -> Status {
    if (term.size() != expected) {
      return Status::InvalidArgument("score table does not match its set");
    }
    double largest = 0.0;
    for (const double value : term) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("score table entry is not finite");
      }
      largest = std::max(largest, std::fabs(value));
    }
    magnitude += largest;
    return Status::OK();
  };
  for (size_t c = 0; c < clusters; ++c) {
    DPX_RETURN_IF_ERROR(add_term(tables.unary[c], fixed.sizes[c]));
    if (!has_pairs) continue;
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      if (tables.pair[c].size() <= cp) {
        return Status::InvalidArgument("score tables do not match clusters");
      }
      DPX_RETURN_IF_ERROR(
          add_term(tables.pair[c][cp], fixed.sizes[c] * fixed.sizes[cp]));
    }
  }
  if (!(magnitude < kMaxScoreMagnitude)) {
    return Status::InvalidArgument(
        "score tables exceed the fixed-point range of the stage2 search");
  }

  fixed.unary_at.resize(clusters);
  fixed.across_at.resize(clusters * clusters);
  for (size_t c = 0; c < clusters; ++c) {
    fixed.unary_at[c] = fixed.values.size();
    for (const double value : tables.unary[c]) {
      fixed.values.push_back(QuantizeScore(value));
    }
  }
  for (size_t c = 0; c < clusters; ++c) {
    const size_t k = fixed.sizes[c];
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      const size_t at = fixed.values.size();
      fixed.across_at[c * clusters + cp] = at;
      fixed.values.resize(at + k * fixed.sizes[cp], 0);
      if (!has_pairs) continue;
      for (size_t p = 0; p < k; ++p) {
        for (size_t j = 0; j < fixed.sizes[cp]; ++j) {
          fixed.values[at + j * k + p] =
              QuantizeScore(tables.pair[c][cp][p * fixed.sizes[cp] + j]);
        }
      }
    }
  }
  return fixed;
}

struct Winner {
  double value = -std::numeric_limits<double>::infinity();  // private mode
  int64_t score = std::numeric_limits<int64_t>::min();      // exact mode
  size_t combo = 0;
};

// The first maximum of scale·score + Gumbel over combinations [begin, end),
// where uniforms[i] is the uniform drawn for combination begin + i (nullptr
// in exact mode: the first maximum of the score itself). The block's scores
// are computed into a buffer first, so the noise and the combine run as
// vector kernel passes over the whole block; the uniforms become the noisy
// scores in place.
Winner ScanBlock(const FixedPointTables& tables, double scale,
                 double* uniforms, size_t begin, size_t end) {
  const size_t clusters = tables.sizes.size();
  const size_t k0 = tables.sizes[0];
  // Decode the first index (mixed radix, cluster 0 least significant).
  std::vector<size_t> choice(clusters);
  for (size_t c = 0, rest = begin; c < clusters; ++c) {
    choice[c] = rest % tables.sizes[c];
    rest /= tables.sizes[c];
  }
  // terms[c·k_max + p] (1 <= c < |C|): cluster c's unary term for choice
  // p plus its pair terms with the higher clusters under the current
  // digits. It depends on digits c+1.. only, so it changes when those do.
  const size_t k_max = *std::max_element(tables.sizes.begin(),
                                         tables.sizes.end());
  std::vector<int64_t> terms(clusters * k_max);
  // The partial-sum stack, one level of k_0 sums per odometer digit: level
  // c (1 <= c < |C|) holds, for each choice i of cluster 0, unary[0][i]
  // plus every term among clusters c..|C|-1 and between them and cluster 0
  // under the current digits; level |C| holds unary[0] alone. Level 1 is
  // then the scores of the current odometer row, so it is written straight
  // into the score buffer: scores[k0 + i] is combination begin + i's, and
  // every row lands whole — the first may start up to k0 - 1 entries
  // before the block, the last end up to k0 - 1 after it.
  std::vector<int64_t> stack((clusters + 1) * k0);
  std::copy(tables.unary(0), tables.unary(0) + k0,
            stack.begin() + static_cast<std::ptrdiff_t>(clusters * k0));
  const size_t n = end - begin;
  std::vector<int64_t> scores(n + 2 * k0);
  int64_t* row = scores.data() + k0 - choice[0];
  auto fill_terms = [&](size_t c) {
    int64_t* term = terms.data() + c * k_max;
    std::copy(tables.unary(c), tables.unary(c) + tables.sizes[c], term);
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      const int64_t* across = tables.across(c, cp, choice[cp]);
      for (size_t p = 0; p < tables.sizes[c]; ++p) term[p] += across[p];
    }
  };
  // Recomputes levels top..1 after digits 1..top changed.
  auto restack = [&](size_t top) {
    for (size_t c = top; c >= 1; --c) {
      const int64_t term = terms[c * k_max + choice[c]];
      const int64_t* column = tables.across(0, c, choice[c]);
      const int64_t* above = stack.data() + (c + 1) * k0;
      int64_t* level = c > 1 ? stack.data() + c * k0 : row;
      for (size_t i = 0; i < k0; ++i) level[i] = above[i] + term + column[i];
    }
  };
  for (size_t c = clusters - 1; c >= 1; --c) fill_terms(c);
  if (clusters == 1) {
    std::copy(tables.unary(0), tables.unary(0) + k0, row);
  } else {
    restack(clusters - 1);
  }
  // Each further row: cluster 0 wrapped, so advance the odometer over
  // digits 1.. (a digit exists to advance: the row starts before end <=
  // k_0·...·k_|C|).
  for (row += k0; row < scores.data() + k0 + n; row += k0) {
    size_t top = 1;
    while (++choice[top] == tables.sizes[top]) choice[top++] = 0;
    for (size_t c = top - 1; c >= 1; --c) fill_terms(c);
    restack(top);
  }

  const int64_t* block = scores.data() + k0;
  if (uniforms == nullptr) {
    const int64_t* first = std::max_element(block, block + n);
    return {0.0, *first, begin + static_cast<size_t>(first - block)};
  }
  const kernels::KernelTable& kernel = kernels::Active();
  kernel.gumbel(uniforms, n, 1.0);
  const size_t first = kernel.noisy_argmax(block, scale, uniforms, n);
  return {uniforms[first], 0, begin + first};
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

  // The argmax of score·ε/(2Δ') + Gumbel(1) over all combinations (the
  // exponential mechanism via Gumbel-max), or the exact argmax when
  // epsilon <= 0 (non-private limit). The scores are the tables rounded to
  // fixed point, so Δ' = Δ + T·2^-F charges the rounding to the mechanism.
  const bool private_selection = epsilon > 0.0;
  if (private_selection && sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  DPX_ASSIGN_OR_RETURN(const FixedPointTables fixed,
                       QuantizeTables(candidate_sets, tables));
  // Per fixed-point unit; ldexp rescales exactly.
  const double scale =
      private_selection
          ? std::ldexp(epsilon / (2.0 * RoundedScoreSensitivity(sensitivity,
                                                                clusters)),
                       -kScoreFractionBits)
          : 0.0;

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
                fixed, scale,
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
      const Winner& block = block_winners[b];
      if (private_selection ? block.value > best.value
                            : block.score > best.score) {
        best = block;
      }
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

Status DpClustXOptions::ValidateShape(size_t num_rows, size_t num_attributes,
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
  // Every GlScore table entry is at most |D| and the largest entries of
  // all the term tables sum to at most |D| (Int_p, Suf_p and the pair
  // diversity are each at most |D_c|, and λ is convex), so this refuses
  // every dataset whose scores could overflow the search's fixed-point sum.
  if (!(static_cast<double>(num_rows) < core_internal::kMaxScoreMagnitude)) {
    return Status::InvalidArgument(
        "dataset of " + std::to_string(num_rows) +
        " rows exceeds the fixed-point range of the stage2 search");
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
      options.ValidateShape(stats.num_rows(), stats.num_attributes(),
                            stats.num_clusters()));
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
