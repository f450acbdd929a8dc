// Property-based verification of the paper's sensitivity propositions:
// adding one tuple to the dataset (with any fixed cluster assignment) must
// change each low-sensitivity quality function by at most its proven bound.
// Each parameterized instance runs a randomized trial batch with a distinct
// seed; together they sweep cluster counts, domain shapes, and degenerate
// cases (tiny clusters, empty clusters).

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/explainer.h"
#include "core/quality.h"
#include "core/stats_cache.h"

namespace dpclustx {
namespace {

struct SensitivityCase {
  uint64_t seed;
  size_t rows;
  size_t num_clusters;
  size_t domain;
  // Probability a row lands in cluster 0; small values create tiny clusters,
  // the regime where the original metrics blow up (Prop. 4.1).
  double cluster0_bias;
};

class QualitySensitivityTest
    : public ::testing::TestWithParam<SensitivityCase> {};

struct NeighborPair {
  StatsCache before;
  StatsCache after;
};

// Builds D ~ D' = D ∪ {t} with a fixed clustering for both.
NeighborPair MakeNeighbors(const SensitivityCase& param, Rng& rng) {
  Schema schema({Attribute::WithAnonymousDomain("a", param.domain),
                 Attribute::WithAnonymousDomain("b", 3)});
  Dataset dataset(schema);
  std::vector<ClusterId> labels;
  for (size_t r = 0; r < param.rows; ++r) {
    dataset.AppendRowUnchecked(
        {static_cast<ValueCode>(rng.UniformInt(param.domain)),
         static_cast<ValueCode>(rng.UniformInt(3))});
    if (rng.Bernoulli(param.cluster0_bias)) {
      labels.push_back(0);
    } else {
      labels.push_back(static_cast<ClusterId>(
          1 + rng.UniformInt(param.num_clusters - 1)));
    }
  }
  auto before = StatsCache::Build(dataset, labels, param.num_clusters);

  // The added tuple goes to a uniformly random cluster.
  dataset.AppendRowUnchecked(
      {static_cast<ValueCode>(rng.UniformInt(param.domain)),
       static_cast<ValueCode>(rng.UniformInt(3))});
  labels.push_back(
      static_cast<ClusterId>(rng.UniformInt(param.num_clusters)));
  auto after = StatsCache::Build(dataset, labels, param.num_clusters);
  return {std::move(*before), std::move(*after)};
}

constexpr int kTrials = 60;
constexpr double kTolerance = 1e-9;

TEST_P(QualitySensitivityTest, InterestingnessPBoundedByOne) {
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < kTrials; ++trial) {
    const NeighborPair pair = MakeNeighbors(GetParam(), rng);
    for (size_t c = 0; c < GetParam().num_clusters; ++c) {
      for (AttrIndex a = 0; a < 2; ++a) {
        const auto cluster = static_cast<ClusterId>(c);
        const double diff =
            std::fabs(InterestingnessP(pair.after, cluster, a) -
                      InterestingnessP(pair.before, cluster, a));
        ASSERT_LE(diff, 1.0 + kTolerance)
            << "trial " << trial << " cluster " << c << " attr " << a;
      }
    }
  }
}

TEST_P(QualitySensitivityTest, SufficiencyPBoundedByOne) {
  Rng rng(GetParam().seed + 1000);
  for (int trial = 0; trial < kTrials; ++trial) {
    const NeighborPair pair = MakeNeighbors(GetParam(), rng);
    for (size_t c = 0; c < GetParam().num_clusters; ++c) {
      for (AttrIndex a = 0; a < 2; ++a) {
        const auto cluster = static_cast<ClusterId>(c);
        const double diff = std::fabs(SufficiencyP(pair.after, cluster, a) -
                                      SufficiencyP(pair.before, cluster, a));
        ASSERT_LE(diff, 1.0 + kTolerance)
            << "trial " << trial << " cluster " << c << " attr " << a;
      }
    }
  }
}

TEST_P(QualitySensitivityTest, PairDiversityBoundedByOne) {
  Rng rng(GetParam().seed + 2000);
  for (int trial = 0; trial < kTrials; ++trial) {
    const NeighborPair pair = MakeNeighbors(GetParam(), rng);
    for (size_t c = 0; c < GetParam().num_clusters; ++c) {
      for (size_t cp = c + 1; cp < GetParam().num_clusters; ++cp) {
        for (AttrIndex a1 = 0; a1 < 2; ++a1) {
          for (AttrIndex a2 = 0; a2 < 2; ++a2) {
            const double diff = std::fabs(
                PairDiversity(pair.after, static_cast<ClusterId>(c),
                              static_cast<ClusterId>(cp), a1, a2) -
                PairDiversity(pair.before, static_cast<ClusterId>(c),
                              static_cast<ClusterId>(cp), a1, a2));
            ASSERT_LE(diff, 1.0 + kTolerance) << "trial " << trial;
          }
        }
      }
    }
  }
}

TEST_P(QualitySensitivityTest, ScoresBoundedByOne) {
  Rng rng(GetParam().seed + 3000);
  const SingleClusterWeights gamma{0.5, 0.5};
  GlobalWeights lambda;
  for (int trial = 0; trial < kTrials; ++trial) {
    const NeighborPair pair = MakeNeighbors(GetParam(), rng);
    // SScore (Prop. 4.10).
    for (size_t c = 0; c < GetParam().num_clusters; ++c) {
      const auto cluster = static_cast<ClusterId>(c);
      const double diff =
          std::fabs(SingleClusterScore(pair.after, cluster, 0, gamma) -
                    SingleClusterScore(pair.before, cluster, 0, gamma));
      ASSERT_LE(diff, 1.0 + kTolerance) << "trial " << trial;
    }
    // Div_p and GlScore (Props. 4.8, 4.12) on a random combination.
    AttributeCombination ac(GetParam().num_clusters);
    for (auto& attr : ac) attr = static_cast<AttrIndex>(rng.UniformInt(2));
    ASSERT_LE(std::fabs(DiversityP(pair.after, ac) -
                        DiversityP(pair.before, ac)),
              1.0 + kTolerance)
        << "trial " << trial;
    ASSERT_LE(std::fabs(GlobalScore(pair.after, ac, lambda) -
                        GlobalScore(pair.before, ac, lambda)),
              1.0 + kTolerance)
        << "trial " << trial;
  }
}

// The Stage-2 search scores GlScore_λ rounded to fixed point (each table
// entry to a multiple of 2^-F); its sensitivity is Δ' = 1 + T·2^-F.
TEST_P(QualitySensitivityTest, QuantizedGlScoreBoundedByRoundedSensitivity) {
  Rng rng(GetParam().seed + 5000);
  GlobalWeights lambda;
  const size_t clusters = GetParam().num_clusters;
  const std::vector<std::vector<AttrIndex>> sets(clusters, {0, 1});
  const double bound =
      core_internal::RoundedScoreSensitivity(kGlScoreSensitivity, clusters);
  auto quantized_score = [&](const core_internal::CombinationScoreTables& t,
                             size_t combo) {
    int64_t score = 0;
    for (size_t c = 0; c < clusters; ++c) {
      const size_t choice = (combo >> c) & 1;
      score += core_internal::QuantizeScore(t.unary[c][choice]);
      for (size_t cp = c + 1; cp < clusters; ++cp) {
        score += core_internal::QuantizeScore(
            t.pair[c][cp][choice * 2 + ((combo >> cp) & 1)]);
      }
    }
    return score;
  };
  for (int trial = 0; trial < kTrials; ++trial) {
    const NeighborPair pair = MakeNeighbors(GetParam(), rng);
    const auto before =
        core_internal::BuildLowSensitivityTables(pair.before, sets, lambda);
    const auto after =
        core_internal::BuildLowSensitivityTables(pair.after, sets, lambda);
    for (size_t combo = 0; combo < (size_t{1} << clusters); ++combo) {
      const double diff = std::ldexp(
          static_cast<double>(quantized_score(after, combo) -
                              quantized_score(before, combo)),
          -core_internal::kScoreFractionBits);
      ASSERT_LE(std::fabs(diff), bound + kTolerance)
          << "trial " << trial << " combination " << combo;
    }
  }
}

// Neighboring is symmetric (add OR remove a tuple, Def. 2.4); check the
// removal direction explicitly by deleting a random row.
TEST_P(QualitySensitivityTest, RemovalDirectionAlsoBounded) {
  Rng rng(GetParam().seed + 4000);
  GlobalWeights lambda;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Build D, then D' = D minus one random row (same labels elsewhere).
    Schema schema({Attribute::WithAnonymousDomain("a", GetParam().domain),
                   Attribute::WithAnonymousDomain("b", 3)});
    Dataset dataset(schema);
    std::vector<ClusterId> labels;
    for (size_t r = 0; r < GetParam().rows; ++r) {
      dataset.AppendRowUnchecked(
          {static_cast<ValueCode>(rng.UniformInt(GetParam().domain)),
           static_cast<ValueCode>(rng.UniformInt(3))});
      labels.push_back(static_cast<ClusterId>(
          rng.UniformInt(GetParam().num_clusters)));
    }
    const auto before =
        StatsCache::Build(dataset, labels, GetParam().num_clusters);
    const size_t removed = rng.UniformInt(GetParam().rows);
    std::vector<uint32_t> kept;
    std::vector<ClusterId> kept_labels;
    for (size_t r = 0; r < GetParam().rows; ++r) {
      if (r == removed) continue;
      kept.push_back(static_cast<uint32_t>(r));
      kept_labels.push_back(labels[r]);
    }
    const auto after = StatsCache::Build(dataset.SelectRows(kept),
                                         kept_labels,
                                         GetParam().num_clusters);
    AttributeCombination ac(GetParam().num_clusters);
    for (auto& attr : ac) attr = static_cast<AttrIndex>(rng.UniformInt(2));
    ASSERT_LE(std::fabs(GlobalScore(*after, ac, lambda) -
                        GlobalScore(*before, ac, lambda)),
              1.0 + kTolerance)
        << "trial " << trial;
    for (size_t c = 0; c < GetParam().num_clusters; ++c) {
      const auto cluster = static_cast<ClusterId>(c);
      ASSERT_LE(std::fabs(InterestingnessP(*after, cluster, 0) -
                          InterestingnessP(*before, cluster, 0)),
                1.0 + kTolerance);
      ASSERT_LE(std::fabs(SufficiencyP(*after, cluster, 0) -
                          SufficiencyP(*before, cluster, 0)),
                1.0 + kTolerance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QualitySensitivityTest,
    ::testing::Values(
        // Balanced medium clusters.
        SensitivityCase{101, 300, 3, 5, 1.0 / 3.0},
        // Tiny cluster 0 — the adversarial regime from the paper's examples.
        SensitivityCase{202, 200, 3, 4, 0.01},
        // Many clusters, small dataset (some clusters empty).
        SensitivityCase{303, 40, 8, 3, 0.1},
        // Two clusters, binary-ish domain (matches Example 4.1's setup).
        SensitivityCase{404, 500, 2, 2, 0.002},
        // Larger domain than rows (sparse histograms).
        SensitivityCase{505, 30, 4, 24, 0.25}),
    [](const ::testing::TestParamInfo<SensitivityCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dpclustx
