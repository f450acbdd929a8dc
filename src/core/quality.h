// Low-sensitivity quality functions (paper §4).
//
// The original interestingness/sufficiency/diversity measures of TabEE have
// sensitivity ≥ ½ against ranges of [0, 1], which makes their DP noise
// overwhelm the signal. The paper's low-sensitivity variants scale each
// single-cluster score by the cluster size: the attribute ranking *within a
// fixed dataset and clustering* is unchanged (Int_p = |D_c|·TVD;
// Suf_p ranking matches Suf via |D|·Suf = Σ_c Suf_p), but the sensitivity of
// each function drops to 1 against a range of [0, |D_c|], leaving room for
// calibrated noise.
//
// Sensitivity constants (proved in the paper):
//   Int_p     — Δ = 1, range [0, |D_c|]               (Prop. 4.4)
//   Suf_p     — Δ = 1, range [0, |D_c|]               (Prop. 4.6)
//   d (pair)  — Δ = 1, range [0, min(|D_c|, |D_c'|)]  (Lemma A.9)
//   Div_p     — Δ ≤ 1 (convex combination)            (Prop. 4.8)
//   SScore_γ  — Δ ≤ 1                                 (Prop. 4.10)
//   GlScore_λ — Δ ≤ 1                                 (Prop. 4.12)
//
// The Stage-2 search ranks GlScore_λ rounded to fixed point: each of a
// combination's T = |C| + C(|C|, 2) table terms is rounded once to the
// nearest multiple of 2^-30 (core_internal::QuantizeScore, explainer.h), so
// the rounded score has
//   rounded GlScore_λ — Δ' = Δ + T·2^-30   (RoundedScoreSensitivity)
// and the search charges its mechanism at Δ'.

#ifndef DPCLUSTX_CORE_QUALITY_H_
#define DPCLUSTX_CORE_QUALITY_H_

#include <vector>

#include "common/status.h"
#include "core/stats_cache.h"

namespace dpclustx {

/// Sensitivity of SScore_γ and GlScore_λ (both bounded by 1 for convex
/// weights).
inline constexpr double kSScoreSensitivity = 1.0;
inline constexpr double kGlScoreSensitivity = 1.0;

/// An attribute combination AC : C → A (paper §3), indexed by cluster id.
using AttributeCombination = std::vector<AttrIndex>;

/// Weights of the single-cluster score (Def. 4.9). Non-negative, sum 1.
struct SingleClusterWeights {
  double interestingness = 0.5;
  double sufficiency = 0.5;
};

/// Weights of the global score (Def. 4.11). Non-negative, sum 1.
struct GlobalWeights {
  double interestingness = 1.0 / 3.0;
  double sufficiency = 1.0 / 3.0;
  double diversity = 1.0 / 3.0;

  /// Validates finite, non-negative weights with unit sum (tolerance 1e-9).
  Status Validate() const;

  /// The conditional single-cluster weights γ = λ restricted to {Int, Suf}
  /// and renormalized (Algorithm 2, line 1). Falls back to (½, ½) when both
  /// are zero.
  SingleClusterWeights ConditionalSingleClusterWeights() const;
};

/// Low-sensitivity interestingness Int_p(D, f, c, A) (Def. 4.2):
///   ½ · || h_A(D_c) − (|D_c|/|D|)·h_A(D) ||₁  =  |D_c| · TVD(π_A(D), π_A(D_c)).
double InterestingnessP(const StatsCache& stats, ClusterId c, AttrIndex attr);

/// Low-sensitivity sufficiency Suf_p(D, f, c, A) (Def. 4.5):
///   Σ_{a ∈ dom_{D_c}(A)} cnt_{A=a}(D_c)² / cnt_{A=a}(D).
double SufficiencyP(const StatsCache& stats, ClusterId c, AttrIndex attr);

/// Pairwise diversity d(D, f, c, c', A_c, A_c') (Def. 4.7):
/// min(|D_c|, |D_c'|) times 1 for distinct attributes, or the TVD between
/// the two cluster distributions for a shared attribute.
double PairDiversity(const StatsCache& stats, ClusterId c, ClusterId c_prime,
                     AttrIndex attr_c, AttrIndex attr_c_prime);

/// Global diversity Div_p (Def. 4.8): mean pairwise diversity over all
/// unordered cluster pairs. Returns 0 for fewer than two clusters.
double DiversityP(const StatsCache& stats, const AttributeCombination& ac);

/// Single-cluster score SScore_γ (Def. 4.9).
double SingleClusterScore(const StatsCache& stats, ClusterId c,
                          AttrIndex attr, const SingleClusterWeights& gamma);

/// Global score GlScore_λ (Def. 4.11): λ_Int·mean_c Int_p + λ_Suf·mean_c
/// Suf_p + λ_Div·Div_p. Requires ac.size() == stats.num_clusters().
double GlobalScore(const StatsCache& stats, const AttributeCombination& ac,
                   const GlobalWeights& lambda);

/// Range upper bound R_GlScore of Prop. 4.12 (used in tests and utility
/// reports).
double GlobalScoreRangeBound(const StatsCache& stats,
                             const GlobalWeights& lambda);

}  // namespace dpclustx

#endif  // DPCLUSTX_CORE_QUALITY_H_
