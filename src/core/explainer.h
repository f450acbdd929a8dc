// Stage-2 of DPClustX and the end-to-end entry point (Algorithm 2).
//
// Pipeline (paper §5.2):
//   1. Stage-1 candidate sets S_c at budget ε_CandSet (Algorithm 1).
//   2. Exponential mechanism over the k^|C| candidate attribute combinations
//      {AC | AC(c) ∈ S_c}, scored by GlScore_λ rounded to fixed point
//      (Δ' = 1 + T·2^-30, see SearchCombination), at budget ε_TopComb.
//   3. Noisy histograms *only* for the selected attributes: full-dataset
//      histograms at ε_Hist/(2·|A'|) each (sequential over the distinct
//      selected attributes A'), per-cluster histograms at ε_Hist/2 each
//      (parallel composition over disjoint clusters); out-of-cluster
//      histograms by clamped subtraction (post-processing).
// Total privacy cost: ε_CandSet + ε_TopComb + ε_Hist (Theorem 5.2).

#ifndef DPCLUSTX_CORE_EXPLAINER_H_
#define DPCLUSTX_CORE_EXPLAINER_H_

#include <cmath>
#include <cstdint>

#include "cluster/clustering.h"
#include "common/deadline.h"
#include "common/status.h"
#include "core/explanation.h"
#include "core/quality.h"
#include "core/stats_cache.h"
#include "dp/dp_histogram.h"
#include "dp/privacy_budget.h"

namespace dpclustx {

/// Which Stage-1 candidate-selection mechanism to run.
enum class Stage1Selector {
  kOneShotTopK,  // Algorithm 1 (default): per-cluster noisy top-k
  kSvt,          // AboveThreshold scan; see SvtSelectCandidates
};

struct DpClustXOptions {
  /// Stage-1 mechanism.
  Stage1Selector stage1 = Stage1Selector::kOneShotTopK;
  /// Threshold fraction for the SVT selector (ignored by top-k).
  double svt_threshold_fraction = 0.3;
  /// Stage-1 budget ε_CandSet.
  double epsilon_cand_set = 0.1;
  /// Stage-2 combination-selection budget ε_TopComb.
  double epsilon_top_comb = 0.1;
  /// Histogram-release budget ε_Hist.
  double epsilon_hist = 0.1;
  /// Candidate-set size k (paper default 3, ablated in Fig. 7).
  size_t num_candidates = 3;
  /// Quality-function weights λ (paper default: equal thirds).
  GlobalWeights lambda;
  /// Noise family and clamping for M_hist.
  DpHistogramOptions histogram;
  /// When false, stops after combination selection and leaves the histograms
  /// empty, spending only ε_CandSet + ε_TopComb. The paper's attribute-
  /// quality experiments run in this mode ("histogram generation is not
  /// needed", §6.2).
  bool generate_histograms = true;
  /// Refuse runs whose Stage-2 search space k^|C| exceeds this (the paper's
  /// own runtime grows exponentially in |C|; Fig. 9a).
  size_t max_combinations = 20000000;
  /// Seed for all mechanism noise in this run.
  uint64_t seed = 1;
  /// Threads for the Stage-2 combination search and the StatsCache counting
  /// pass (1 = serial, 0 = compute-pool width). Sets speed only: every
  /// released byte is identical at any value (DESIGN.md §8).
  size_t num_threads = 1;
  /// Cooperative cancellation bound for the whole run. Checked between
  /// Stage-1 clusters, every few thousand Stage-2 combinations, and between
  /// histogram releases. Default: no deadline. A DeadlineExceeded return
  /// does NOT refund budget already reserved up front — the accountant may
  /// overstate, never understate, the released ε (see DESIGN.md, failure
  /// semantics).
  Deadline deadline;

  /// InvalidArgument for options every entry point refuses: invalid λ,
  /// non-positive ε_CandSet/ε_TopComb (or ε_Hist when histograms are
  /// generated), num_candidates = 0. Lets a caller refuse a run before
  /// spending anything on it.
  Status Validate() const;

  /// InvalidArgument for a run over `num_rows` rows, `num_attributes`
  /// attributes and `num_clusters` clusters that a later stage would refuse:
  /// k larger than the schema, scores too large for the Stage-2 search's
  /// fixed-point sum, or (top-k selector, whose sets hold exactly k
  /// attributes) a Stage-2 space of C(k, subset_size)^|C| combinations above
  /// max_combinations. Depends only on |D|, the schema and |C|, so callers
  /// run it before charging anything. `subset_size` is ℓ of the
  /// multi-explainer and must lie in [1, k].
  Status ValidateShape(size_t num_rows, size_t num_attributes,
                       size_t num_clusters,
                       size_t subset_size = 1) const;
};

/// Runs DPClustX against a black-box clustering function: labels the dataset
/// with `clustering.AssignAll`, then explains. If `budget` is non-null the
/// spent epsilons are charged to it (failing with OutOfBudget before any
/// noise is drawn if they do not fit).
StatusOr<GlobalExplanation> ExplainDpClustX(
    const Dataset& dataset, const ClusteringFunction& clustering,
    const DpClustXOptions& options, PrivacyBudget* budget = nullptr);

/// Same, with precomputed labels (callers that already materialized the
/// clustering; labels[i] < num_clusters).
StatusOr<GlobalExplanation> ExplainDpClustXWithLabels(
    const Dataset& dataset, const std::vector<ClusterId>& labels,
    size_t num_clusters, const DpClustXOptions& options,
    PrivacyBudget* budget = nullptr);

/// Same, with a prebuilt StatsCache — skips the O(n·d) counting pass, so a
/// server that shares one cache across many requests pays only the
/// per-request mechanism cost. The cache is read-only here and safe to share
/// across concurrent calls.
StatusOr<GlobalExplanation> ExplainDpClustXWithStats(
    const StatsCache& stats, const DpClustXOptions& options,
    PrivacyBudget* budget = nullptr);

namespace core_internal {

/// Precomputed score tables for the combination enumeration: any global
/// score of the form Σ_c unary(c, AC(c)) + Σ_{c<c'} pair(c, c', AC(c),
/// AC(c')) fits (both GlScore_λ and the baselines' sensitive scores do).
struct CombinationScoreTables {
  /// unary[c][j]: contribution of choosing candidate j for cluster c.
  std::vector<std::vector<double>> unary;
  /// pair[c][cp] (cp > c, else empty): row-major k_c × k_cp matrix of pair
  /// contributions. Leave the whole structure empty to skip pair terms.
  std::vector<std::vector<std::vector<double>>> pair;
};

/// Tables realizing Appendix B's extended score (MultiGlobalScore, up to
/// rounding) over per-cluster choices of equal-size attribute sets:
/// choices[c][s] is cluster c's s-th choice. Pairs inside one set go into
/// unary, pairs across two clusters' sets into pair. With singleton choices
/// the score is GlScore_λ.
CombinationScoreTables BuildSubsetTables(
    const StatsCache& stats,
    const std::vector<std::vector<std::vector<AttrIndex>>>& choices,
    const GlobalWeights& lambda);

/// Tables realizing GlScore_λ over the candidate sets (singleton choices).
CombinationScoreTables BuildLowSensitivityTables(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const GlobalWeights& lambda);

/// Fractional bits of the Stage-2 search's fixed-point scores:
/// SearchCombination rounds every table entry once to the nearest multiple
/// of 2^-kScoreFractionBits and sums the entries in int64. A compile-time
/// constant, independent of the data.
inline constexpr int kScoreFractionBits = 30;

/// T = |C| + C(|C|, 2): the number of rounded terms in one combination's
/// score (|C| unary terms and one pair term per cluster pair).
inline size_t ScoreTermCount(size_t num_clusters) {
  return num_clusters + num_clusters * (num_clusters - 1) / 2;
}

/// Δ' = Δ + T·2^-F, the sensitivity of the rounded score. Each rounded term
/// is within 2^-F/2 of its table entry, so the rounded scores of
/// neighbouring datasets differ by at most Δ + T·2^-F.
inline double RoundedScoreSensitivity(double sensitivity,
                                      size_t num_clusters) {
  return sensitivity + std::ldexp(static_cast<double>(ScoreTermCount(
                                      num_clusters)),
                                  -kScoreFractionBits);
}

/// A table entry in fixed point: round(value·2^F), halves away from zero.
/// Requires |value| < 2^(63-F).
inline int64_t QuantizeScore(double value) {
  return std::llround(std::ldexp(value, kScoreFractionBits));
}

/// Selects an attribute combination from per-cluster candidate sets
/// (Algorithm 2, lines 4–5): the exponential mechanism at `epsilon` over the
/// table-defined score (Gumbel-max implementation), or the exact argmax
/// (lowest combination index on ties) when epsilon <= 0 — the non-private
/// TabEE limit. The only combination search: DPClustX, the multi-explainer
/// and the baselines all call it.
///
/// The score is the tables rounded to fixed point (QuantizeScore), summed
/// in int64 tile by tile (about two adds per combination); the mechanism
/// runs at the rounded score's sensitivity RoundedScoreSensitivity(
/// sensitivity, |C|). Combination i's Gumbel noise is keyed by i and by one
/// word the search takes from `rng` (none in exact mode), so the result and
/// the state left in `rng` are identical at every `num_threads` (0 =
/// compute-pool width) and ISA level. Tables with a non-finite entry, or
/// whose largest entries could overflow the int64 sum, are refused with
/// InvalidArgument.
StatusOr<AttributeCombination> SearchCombination(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, const Deadline& deadline = {},
    size_t num_threads = 1);

/// The fixed-point scores SearchCombination ranks for combinations
/// [begin, end) (cluster 0 least significant), walked block by block as
/// the search walks them. For tests and benchmarks of the walk.
StatusOr<std::vector<int64_t>> SearchScores(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, size_t begin, size_t end);

/// Algorithm 2, lines 6–15: noisy histograms for the selected attributes,
/// where selected[c] lists cluster c's ℓ attributes (ℓ = 1 for DPClustX and
/// DP-TabEE). Full-dataset histograms at ε_Hist/(2·|A'|) each over the
/// distinct selected attributes A' (ascending), then each cluster's ℓ
/// histograms at ε_Hist/(2ℓ) each (parallel composition across clusters);
/// out-of-cluster histograms by clamped subtraction. Returns explanations
/// indexed like `selected`.
StatusOr<std::vector<std::vector<SingleClusterExplanation>>>
ReleaseExplanationHistograms(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& selected, double epsilon_hist,
    const DpHistogramOptions& histogram, const Deadline& deadline, Rng& rng);

}  // namespace core_internal

}  // namespace dpclustx

#endif  // DPCLUSTX_CORE_EXPLAINER_H_
