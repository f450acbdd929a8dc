#include "core/quality.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace dpclustx {

Status GlobalWeights::Validate() const {
  // Written so NaN fails too: every comparison against it is false.
  for (const double weight : {interestingness, sufficiency, diversity}) {
    if (!(std::isfinite(weight) && weight >= 0.0)) {
      return Status::InvalidArgument(
          "global weights must be finite and non-negative");
    }
  }
  const double sum = interestingness + sufficiency + diversity;
  if (std::fabs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("global weights must sum to 1; got " +
                                   std::to_string(sum));
  }
  return Status::OK();
}

SingleClusterWeights GlobalWeights::ConditionalSingleClusterWeights() const {
  const double denom = interestingness + sufficiency;
  if (denom <= 0.0) return {0.5, 0.5};
  return {interestingness / denom, sufficiency / denom};
}

double InterestingnessP(const StatsCache& stats, ClusterId c,
                        AttrIndex attr) {
  const Histogram& cluster = stats.cluster_histogram(c, attr);
  const Histogram& full = stats.full_histogram(attr);
  const double ratio =
      SafeDivide(static_cast<double>(stats.cluster_size(c)),
                 static_cast<double>(stats.num_rows()));
  double l1 = 0.0;
  for (size_t a = 0; a < full.domain_size(); ++a) {
    const auto code = static_cast<ValueCode>(a);
    l1 += std::fabs(cluster.bin(code) - ratio * full.bin(code));
  }
  return 0.5 * l1;
}

double SufficiencyP(const StatsCache& stats, ClusterId c, AttrIndex attr) {
  const Histogram& cluster = stats.cluster_histogram(c, attr);
  const Histogram& full = stats.full_histogram(attr);
  double score = 0.0;
  for (size_t a = 0; a < full.domain_size(); ++a) {
    const auto code = static_cast<ValueCode>(a);
    const double in_cluster = cluster.bin(code);
    // Sum only over the cluster's active domain; a value in D_c is in D, so
    // on exact counts the denominator is at least the numerator whenever the
    // numerator is positive. The max() guard only engages on *noisy* caches
    // (DP-Naive post-processing), where per-bin consistency can be violated.
    if (in_cluster > 0.0) {
      score += in_cluster * in_cluster / std::max(full.bin(code), in_cluster);
    }
  }
  return score;
}

double PairDiversity(const StatsCache& stats, ClusterId c, ClusterId c_prime,
                     AttrIndex attr_c, AttrIndex attr_c_prime) {
  const double size_c = static_cast<double>(stats.cluster_size(c));
  const double size_cp = static_cast<double>(stats.cluster_size(c_prime));
  const double factor = std::min(size_c, size_cp);
  if (attr_c != attr_c_prime) return factor;
  if (factor == 0.0) return 0.0;
  // Shared attribute: min(|D_c|, |D_c'|)·TVD between the cluster
  // distributions, with max(|D_c|, 1) denominators (Def. 4.7).
  const Histogram& hist_c = stats.cluster_histogram(c, attr_c);
  const Histogram& hist_cp = stats.cluster_histogram(c_prime, attr_c);
  const double denom_c = std::max(size_c, 1.0);
  const double denom_cp = std::max(size_cp, 1.0);
  double l1 = 0.0;
  for (size_t a = 0; a < hist_c.domain_size(); ++a) {
    const auto code = static_cast<ValueCode>(a);
    l1 += std::fabs(hist_c.bin(code) / denom_c - hist_cp.bin(code) / denom_cp);
  }
  return factor * 0.5 * l1;
}

double DiversityP(const StatsCache& stats, const AttributeCombination& ac) {
  const size_t clusters = stats.num_clusters();
  DPX_CHECK_EQ(ac.size(), clusters);
  if (clusters < 2) return 0.0;
  double sum = 0.0;
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      sum += PairDiversity(stats, static_cast<ClusterId>(c),
                           static_cast<ClusterId>(cp), ac[c], ac[cp]);
    }
  }
  return sum / PairCount(clusters);
}

double SingleClusterScore(const StatsCache& stats, ClusterId c,
                          AttrIndex attr, const SingleClusterWeights& gamma) {
  return gamma.interestingness * InterestingnessP(stats, c, attr) +
         gamma.sufficiency * SufficiencyP(stats, c, attr);
}

double GlobalScore(const StatsCache& stats, const AttributeCombination& ac,
                   const GlobalWeights& lambda) {
  const size_t clusters = stats.num_clusters();
  DPX_CHECK_EQ(ac.size(), clusters);
  double mean_int = 0.0;
  double mean_suf = 0.0;
  for (size_t c = 0; c < clusters; ++c) {
    const auto cluster = static_cast<ClusterId>(c);
    if (lambda.interestingness > 0.0) {
      mean_int += InterestingnessP(stats, cluster, ac[c]);
    }
    if (lambda.sufficiency > 0.0) {
      mean_suf += SufficiencyP(stats, cluster, ac[c]);
    }
  }
  mean_int /= static_cast<double>(clusters);
  mean_suf /= static_cast<double>(clusters);
  const double div =
      lambda.diversity > 0.0 ? DiversityP(stats, ac) : 0.0;
  return lambda.interestingness * mean_int + lambda.sufficiency * mean_suf +
         lambda.diversity * div;
}

double GlobalScoreRangeBound(const StatsCache& stats,
                             const GlobalWeights& lambda) {
  const size_t clusters = stats.num_clusters();
  double mean_size = 0.0;
  for (size_t c = 0; c < clusters; ++c) {
    mean_size += static_cast<double>(stats.cluster_size(
        static_cast<ClusterId>(c)));
  }
  mean_size /= static_cast<double>(clusters);

  // R_Div (Prop. 4.8): (1 / C(|C|,2)) · Σ_i (|C| − i)·|D_{c_(i)}| over
  // clusters sorted by increasing size.
  double r_div = 0.0;
  if (clusters >= 2) {
    std::vector<double> sizes(clusters);
    for (size_t c = 0; c < clusters; ++c) {
      sizes[c] = static_cast<double>(stats.cluster_size(
          static_cast<ClusterId>(c)));
    }
    std::sort(sizes.begin(), sizes.end());
    for (size_t i = 0; i < clusters; ++i) {
      r_div += static_cast<double>(clusters - i - 1) * sizes[i];
    }
    r_div /= PairCount(clusters);
  }
  return (lambda.interestingness + lambda.sufficiency) * mean_size +
         lambda.diversity * r_div;
}

}  // namespace dpclustx
