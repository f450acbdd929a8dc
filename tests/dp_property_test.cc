// Parameterized DP-compliance sweeps: for each mechanism configuration, the
// empirical output distributions on neighboring inputs must respect the
// e^ε likelihood-ratio bound, and calibrated noise must match its nominal
// moments. These are statistical tests with fixed seeds and generous (but
// meaningful) tolerances.

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/gumbel.h"
#include "common/rng.h"
#include "core/explainer.h"
#include "dp/dp_histogram.h"
#include "dp/exponential.h"
#include "dp/mechanisms.h"

namespace dpclustx {
namespace {

struct DpCase {
  const char* name;
  HistogramNoise noise;
  double epsilon;
};

class DpHistogramComplianceTest : public ::testing::TestWithParam<DpCase> {};

// Discretized likelihood-ratio check on one bin: release the histograms of
// neighboring counts many times; every (binned) output's empirical
// probability ratio must be within e^ε up to sampling slack.
TEST_P(DpHistogramComplianceTest, NeighboringRatioBounded) {
  const DpCase param = GetParam();
  Rng rng(42);
  DpHistogramOptions options;
  options.noise = param.noise;
  options.clamp_non_negative = false;

  constexpr size_t kSamples = 120000;
  const double bucket = 1.0;  // discretization for Laplace outputs
  std::map<long long, double> p_n, p_n1;
  const Histogram h_n(std::vector<double>{50.0});
  const Histogram h_n1(std::vector<double>{51.0});
  for (size_t s = 0; s < kSamples; ++s) {
    p_n[static_cast<long long>(std::floor(
        ReleaseDpHistogram(h_n, param.epsilon, rng, options)->bin(0) /
        bucket))] += 1.0;
    p_n1[static_cast<long long>(std::floor(
        ReleaseDpHistogram(h_n1, param.epsilon, rng, options)->bin(0) /
        bucket))] += 1.0;
  }
  // Laplace noise shifted by 1 across a 1-wide bucket can straddle bucket
  // boundaries, inflating the discretized ratio by up to one extra e^ε
  // bucket-width factor; allow multiplicative slack accordingly.
  const double bound = std::exp(param.epsilon * (1.0 + bucket)) * 1.15;
  for (const auto& [value, count] : p_n) {
    if (count < 2000.0) continue;  // skip high-variance tails
    const auto it = p_n1.find(value);
    ASSERT_NE(it, p_n1.end()) << "output bucket " << value;
    const double ratio = count / it->second;
    EXPECT_LT(ratio, bound) << param.name << " bucket " << value;
    EXPECT_GT(ratio, 1.0 / bound) << param.name << " bucket " << value;
  }
}

TEST_P(DpHistogramComplianceTest, UnclampedNoiseIsCentered) {
  const DpCase param = GetParam();
  Rng rng(43);
  DpHistogramOptions options;
  options.noise = param.noise;
  options.clamp_non_negative = false;
  const Histogram exact(std::vector<double>{1000.0, 500.0, 0.0, 250.0});
  Histogram sum(4);
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    sum = sum.Plus(*ReleaseDpHistogram(exact, param.epsilon, rng, options));
  }
  const double tolerance = 4.0 / param.epsilon / std::sqrt(kTrials) * 5.0;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(sum.bin(static_cast<ValueCode>(i)) / kTrials,
                exact.bin(static_cast<ValueCode>(i)), tolerance + 0.5)
        << param.name << " bin " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, DpHistogramComplianceTest,
    ::testing::Values(DpCase{"geometric_tight", HistogramNoise::kGeometric,
                             0.3},
                      DpCase{"geometric_loose", HistogramNoise::kGeometric,
                             1.0},
                      DpCase{"laplace_tight", HistogramNoise::kLaplace, 0.3},
                      DpCase{"laplace_loose", HistogramNoise::kLaplace,
                             1.0}),
    [](const ::testing::TestParamInfo<DpCase>& info) {
      return info.param.name;
    });

struct EmCase {
  double epsilon;
  double sensitivity;
};

class ExponentialMechanismSweepTest
    : public ::testing::TestWithParam<EmCase> {};

TEST_P(ExponentialMechanismSweepTest, MatchesClosedFormDistribution) {
  const EmCase param = GetParam();
  const std::vector<double> scores = {0.0, 1.0, 3.0, 3.5};
  std::vector<double> expected(scores.size());
  double total = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    expected[i] =
        std::exp(param.epsilon * scores[i] / (2.0 * param.sensitivity));
    total += expected[i];
  }
  for (double& e : expected) e /= total;

  Rng rng(44);
  constexpr size_t kSamples = 150000;
  std::vector<size_t> counts(scores.size(), 0);
  for (size_t s = 0; s < kSamples; ++s) {
    ++counts[ExponentialMechanism(scores, param.sensitivity, param.epsilon,
                                  rng)
                 .value()];
  }
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kSamples, expected[i],
                0.01)
        << "eps=" << param.epsilon << " candidate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExponentialMechanismSweepTest,
                         ::testing::Values(EmCase{0.5, 1.0}, EmCase{2.0, 1.0},
                                           EmCase{2.0, 4.0}),
                         [](const ::testing::TestParamInfo<EmCase>& info) {
                           return "case" + std::to_string(info.index);
                         });

// ---- Stage-2 combination search: 3 clusters × 3 candidates ----

constexpr size_t kSearchClusters = 3;
constexpr size_t kSearchCandidates = 3;
constexpr size_t kSearchCombinations = 27;

// Scores in [0, 3.9]: every combination keeps a probability above 1% at
// ε = 1, so each expected count over 10^5 runs is in the hundreds.
core_internal::CombinationScoreTables SearchTables() {
  core_internal::CombinationScoreTables tables;
  tables.unary = {{0.0, 0.5, 1.0}, {0.25, 0.0, 0.75}, {0.5, 0.125, 0.0}};
  tables.pair.assign(kSearchClusters,
                     std::vector<std::vector<double>>(kSearchClusters));
  for (size_t c = 0; c < kSearchClusters; ++c) {
    for (size_t cp = c + 1; cp < kSearchClusters; ++cp) {
      for (size_t j = 0; j < kSearchCandidates; ++j) {
        for (size_t jp = 0; jp < kSearchCandidates; ++jp) {
          tables.pair[c][cp].push_back(j == jp ? 0.0 : 0.3 + 0.1 * j);
        }
      }
    }
  }
  return tables;
}

// The score of combination `combo` (cluster 0 least significant), summed
// in doubles.
double SearchScore(const core_internal::CombinationScoreTables& tables,
                   size_t combo) {
  size_t choice[kSearchClusters];
  for (size_t c = 0; c < kSearchClusters; ++c) {
    choice[c] = combo % kSearchCandidates;
    combo /= kSearchCandidates;
  }
  double score = 0.0;
  for (size_t c = 0; c < kSearchClusters; ++c) {
    score += tables.unary[c][choice[c]];
    for (size_t cp = c + 1; cp < kSearchClusters; ++cp) {
      score += tables.pair[c][cp][choice[c] * kSearchCandidates + choice[cp]];
    }
  }
  return score;
}

// The double-valued one-at-a-time Gumbel-max scan that preceded the
// fixed-point search, kept as the reference: the first maximum of
// score·ε/(2Δ) + Gumbel(1), combination i's noise from its keyed word under
// one key word drawn from `rng` (common/gumbel.h).
size_t DoubleReferenceScan(const core_internal::CombinationScoreTables& tables,
                           double epsilon, double sensitivity, Rng& rng) {
  const uint64_t key = rng.engine()();
  size_t best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  for (size_t combo = 0; combo < kSearchCombinations; ++combo) {
    const double value =
        epsilon / (2.0 * sensitivity) * SearchScore(tables, combo) +
        GumbelFromUniform(OpenUnitFromWord(KeyedWord(key, combo)), 1.0);
    if (value > best_value) {
      best_value = value;
      best = combo;
    }
  }
  return best;
}

// Pearson's statistic of `counts` against the softmax of the scores at
// `scale` (the exponential mechanism's closed form).
double ChiSquareAgainstSoftmax(
    const core_internal::CombinationScoreTables& tables,
    const std::vector<size_t>& counts, size_t runs, double scale) {
  std::vector<double> weight(kSearchCombinations);
  double total = 0.0;
  for (size_t combo = 0; combo < kSearchCombinations; ++combo) {
    weight[combo] = std::exp(scale * SearchScore(tables, combo));
    total += weight[combo];
  }
  double chi_square = 0.0;
  for (size_t combo = 0; combo < kSearchCombinations; ++combo) {
    const double expected = static_cast<double>(runs) * weight[combo] / total;
    const double diff = static_cast<double>(counts[combo]) - expected;
    chi_square += diff * diff / expected;
  }
  return chi_square;
}

TEST(CombinationSearchDistributionTest, MatchesClosedFormSoftmax) {
  constexpr double kEpsilon = 1.0;
  constexpr size_t kRuns = 100000;
  // The 1 - 10^-6 quantile of χ² with 26 degrees of freedom
  // (Wilson–Hilferty): a correct sampler fails this about once in 10^6
  // seeds.
  constexpr double kChiSquareBound = 76.2;
  const core_internal::CombinationScoreTables tables = SearchTables();
  const std::vector<std::vector<AttrIndex>> sets(kSearchClusters,
                                                 {0, 1, 2});
  std::vector<size_t> reference_counts(kSearchCombinations, 0);
  std::vector<size_t> search_counts(kSearchCombinations, 0);
  for (size_t run = 0; run < kRuns; ++run) {
    Rng reference_rng(1000 + run);
    ++reference_counts[DoubleReferenceScan(tables, kEpsilon, 1.0,
                                           reference_rng)];
    Rng rng(1000 + run);
    const auto combination = core_internal::SearchCombination(
        sets, tables, kEpsilon, 1.0, kSearchCombinations, rng);
    ASSERT_TRUE(combination.ok()) << combination.status();
    size_t combo = 0;
    for (size_t c = kSearchClusters; c-- > 0;) {
      combo = combo * kSearchCandidates + (*combination)[c];
    }
    ++search_counts[combo];
  }
  // The fixed-point search runs at ε/(2Δ'), Δ' = Δ + T·2^-F: a relative
  // change of 10^-8 in the scale, far below what 10^5 runs resolve, so both
  // scans answer to the same softmax at ε/(2Δ).
  const double scale = kEpsilon / 2.0;
  EXPECT_LT(ChiSquareAgainstSoftmax(tables, reference_counts, kRuns, scale),
            kChiSquareBound);
  EXPECT_LT(ChiSquareAgainstSoftmax(tables, search_counts, kRuns, scale),
            kChiSquareBound);
  // The bound has power: the same counts reject a mechanism run at twice
  // the scale (ε/Δ, the classic missing factor of 2).
  EXPECT_GT(ChiSquareAgainstSoftmax(tables, search_counts, kRuns, 2 * scale),
            10 * kChiSquareBound);
}

}  // namespace
}  // namespace dpclustx
