// Stage-2 of DPClustX and the end-to-end entry point (Algorithm 2).
//
// Pipeline (paper §5.2):
//   1. Stage-1 candidate sets S_c at budget ε_CandSet (Algorithm 1).
//   2. Exponential mechanism over the k^|C| candidate attribute combinations
//      {AC | AC(c) ∈ S_c}, scored by GlScore_λ (Δ = 1), at budget ε_TopComb.
//   3. Noisy histograms *only* for the selected attributes: full-dataset
//      histograms at ε_Hist/(2·|A'|) each (sequential over the distinct
//      selected attributes A'), per-cluster histograms at ε_Hist/2 each
//      (parallel composition over disjoint clusters); out-of-cluster
//      histograms by clamped subtraction (post-processing).
// Total privacy cost: ε_CandSet + ε_TopComb + ε_Hist (Theorem 5.2).

#ifndef DPCLUSTX_CORE_EXPLAINER_H_
#define DPCLUSTX_CORE_EXPLAINER_H_

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
  /// Threads for the Stage-2 combination enumeration (k^|C| grows
  /// exponentially; the search shards perfectly) and parallelism cap for the
  /// StatsCache counting pass. 1 = serial. The shard count — not the
  /// execution width — determines Stage-2's forked noise streams, so this
  /// value is part of the run's noise seed. The selection distribution is
  /// identical either way (independent Gumbel draws), but runs with
  /// different num_threads draw different noise at the same seed. The
  /// StatsCache build is bitwise-identical at any value.
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

/// Tables realizing GlScore_λ over the candidate sets.
CombinationScoreTables BuildLowSensitivityTables(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const GlobalWeights& lambda);

/// Selects an attribute combination from per-cluster candidate sets
/// (Algorithm 2, lines 4–5): the exponential mechanism at `epsilon` over the
/// table-defined score (Gumbel-max implementation), or the exact argmax when
/// epsilon <= 0 (the non-private TabEE limit). Exposed for the baselines and
/// tests.
StatusOr<AttributeCombination> SearchCombination(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, const Deadline& deadline = {});

/// Multithreaded variant: shards the combination space across
/// `num_threads` workers, each with an independent noise stream forked from
/// `rng`. Shards execute on the shared compute pool (ParallelFor); the
/// shard structure — and thus the noise stream — is fixed by `num_threads`
/// even when the pool runs them on fewer threads. Exact mode (epsilon <= 0)
/// returns the same argmax as the serial search; private mode realizes the
/// same exponential-mechanism distribution with different draws.
StatusOr<AttributeCombination> SearchCombinationParallel(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, size_t num_threads,
    const Deadline& deadline = {});

}  // namespace core_internal

}  // namespace dpclustx

#endif  // DPCLUSTX_CORE_EXPLAINER_H_
