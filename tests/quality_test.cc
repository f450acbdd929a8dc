#include "core/quality.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "eval/metrics.h"

namespace dpclustx {
namespace {

// Random dataset + labels for identity checks.
struct Fixture {
  Dataset dataset;
  std::vector<ClusterId> labels;
  StatsCache stats;
};

Fixture MakeFixture(size_t rows, size_t num_clusters, uint64_t seed) {
  Schema schema({Attribute::WithAnonymousDomain("a", 4),
                 Attribute::WithAnonymousDomain("b", 3),
                 Attribute::WithAnonymousDomain("c", 6)});
  Dataset dataset(schema);
  Rng rng(seed);
  std::vector<ClusterId> labels;
  for (size_t r = 0; r < rows; ++r) {
    dataset.AppendRowUnchecked({static_cast<ValueCode>(rng.UniformInt(4)),
                                static_cast<ValueCode>(rng.UniformInt(3)),
                                static_cast<ValueCode>(rng.UniformInt(6))});
    labels.push_back(static_cast<ClusterId>(rng.UniformInt(num_clusters)));
  }
  auto stats = StatsCache::Build(dataset, labels, num_clusters);
  return {std::move(dataset), std::move(labels), std::move(*stats)};
}

TEST(GlobalWeightsTest, ValidateChecksSumAndSign) {
  GlobalWeights ok;
  EXPECT_TRUE(ok.Validate().ok());
  GlobalWeights bad_sum{0.5, 0.5, 0.5};
  EXPECT_FALSE(bad_sum.Validate().ok());
  GlobalWeights negative{-0.5, 1.0, 0.5};
  EXPECT_FALSE(negative.Validate().ok());
}

TEST(GlobalWeightsTest, ValidateRejectsNonFiniteWeights) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE((GlobalWeights{nan, 0.5, 0.5}.Validate().ok()));
  EXPECT_FALSE((GlobalWeights{0.5, nan, 0.5}.Validate().ok()));
  EXPECT_FALSE((GlobalWeights{0.5, 0.5, nan}.Validate().ok()));
  EXPECT_FALSE((GlobalWeights{inf, -inf, 1.0}.Validate().ok()));
}

TEST(GlobalWeightsTest, ConditionalSingleClusterWeights) {
  GlobalWeights lambda{0.2, 0.6, 0.2};
  const SingleClusterWeights gamma =
      lambda.ConditionalSingleClusterWeights();
  EXPECT_NEAR(gamma.interestingness, 0.25, 1e-12);
  EXPECT_NEAR(gamma.sufficiency, 0.75, 1e-12);
  // Degenerate: both zero falls back to (1/2, 1/2).
  GlobalWeights div_only{0.0, 0.0, 1.0};
  const SingleClusterWeights fallback =
      div_only.ConditionalSingleClusterWeights();
  EXPECT_DOUBLE_EQ(fallback.interestingness, 0.5);
  EXPECT_DOUBLE_EQ(fallback.sufficiency, 0.5);
}

// Paper remark under Def. 4.2: Int_p = |D_c| · TVD.
TEST(InterestingnessPTest, EqualsClusterSizeTimesTvd) {
  const Fixture f = MakeFixture(500, 3, 1);
  for (size_t c = 0; c < 3; ++c) {
    for (AttrIndex a = 0; a < 3; ++a) {
      const auto cluster = static_cast<ClusterId>(c);
      const double expected =
          static_cast<double>(f.stats.cluster_size(cluster)) *
          eval::TvdInterestingness(f.stats, cluster, a);
      EXPECT_NEAR(InterestingnessP(f.stats, cluster, a), expected, 1e-9);
    }
  }
}

TEST(InterestingnessPTest, RangeWithinClusterSize) {
  const Fixture f = MakeFixture(300, 4, 2);
  for (size_t c = 0; c < 4; ++c) {
    const auto cluster = static_cast<ClusterId>(c);
    for (AttrIndex a = 0; a < 3; ++a) {
      const double value = InterestingnessP(f.stats, cluster, a);
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value,
                static_cast<double>(f.stats.cluster_size(cluster)) + 1e-9);
    }
  }
}

TEST(InterestingnessPTest, ZeroWhenClusterMatchesData) {
  // One cluster containing the whole dataset: Int_p = 0.
  const Fixture f = MakeFixture(100, 1, 3);
  for (AttrIndex a = 0; a < 3; ++a) {
    EXPECT_NEAR(InterestingnessP(f.stats, 0, a), 0.0, 1e-9);
  }
}

// Prop. 4.6(1): |D|·Suf = Σ_c Suf_p.
TEST(SufficiencyPTest, GlobalIdentityHolds) {
  const Fixture f = MakeFixture(400, 3, 4);
  const AttributeCombination ac = {0, 2, 1};
  double sum = 0.0;
  for (size_t c = 0; c < 3; ++c) {
    sum += SufficiencyP(f.stats, static_cast<ClusterId>(c), ac[c]);
  }
  EXPECT_NEAR(sum / static_cast<double>(f.stats.num_rows()),
              eval::Sufficiency(f.stats, ac), 1e-9);
}

TEST(SufficiencyPTest, MaximalWhenValuesExclusiveToCluster) {
  // Two clusters with disjoint value supports: Suf_p = |D_c|.
  Schema schema({Attribute::WithAnonymousDomain("a", 2)});
  Dataset dataset(schema);
  std::vector<ClusterId> labels;
  for (int i = 0; i < 10; ++i) {
    dataset.AppendRowUnchecked({0});
    labels.push_back(0);
  }
  for (int i = 0; i < 6; ++i) {
    dataset.AppendRowUnchecked({1});
    labels.push_back(1);
  }
  const auto stats = StatsCache::Build(dataset, labels, 2);
  EXPECT_DOUBLE_EQ(SufficiencyP(*stats, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(SufficiencyP(*stats, 1, 0), 6.0);
}

TEST(SufficiencyPTest, EmptyClusterScoresZero) {
  const Fixture f = MakeFixture(50, 1, 5);
  const auto stats = StatsCache::Build(f.dataset, f.labels, 2);  // cluster 1 empty
  EXPECT_DOUBLE_EQ(SufficiencyP(*stats, 1, 0), 0.0);
}

TEST(PairDiversityTest, DistinctAttributesGiveMinClusterSize) {
  const Fixture f = MakeFixture(200, 2, 6);
  const double expected = static_cast<double>(
      std::min(f.stats.cluster_size(0), f.stats.cluster_size(1)));
  EXPECT_DOUBLE_EQ(PairDiversity(f.stats, 0, 1, 0, 1), expected);
}

TEST(PairDiversityTest, SharedAttributeScalesTvd) {
  const Fixture f = MakeFixture(200, 2, 7);
  const double factor = static_cast<double>(
      std::min(f.stats.cluster_size(0), f.stats.cluster_size(1)));
  const double tvd = Histogram::Tvd(f.stats.cluster_histogram(0, 1),
                                    f.stats.cluster_histogram(1, 1));
  EXPECT_NEAR(PairDiversity(f.stats, 0, 1, 1, 1), factor * tvd, 1e-9);
}

TEST(PairDiversityTest, EmptyClusterContributesZero) {
  const Fixture f = MakeFixture(100, 1, 8);
  const auto stats = StatsCache::Build(f.dataset, f.labels, 2);
  EXPECT_DOUBLE_EQ(PairDiversity(*stats, 0, 1, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(PairDiversity(*stats, 0, 1, 0, 1), 0.0);
}

TEST(DiversityPTest, AveragesAllPairs) {
  const Fixture f = MakeFixture(300, 3, 9);
  const AttributeCombination ac = {0, 1, 0};
  const double expected = (PairDiversity(f.stats, 0, 1, 0, 1) +
                           PairDiversity(f.stats, 0, 2, 0, 0) +
                           PairDiversity(f.stats, 1, 2, 1, 0)) /
                          3.0;
  EXPECT_NEAR(DiversityP(f.stats, ac), expected, 1e-9);
}

TEST(DiversityPTest, SingleClusterIsZero) {
  const Fixture f = MakeFixture(100, 1, 10);
  EXPECT_DOUBLE_EQ(DiversityP(f.stats, {0}), 0.0);
}

TEST(SingleClusterScoreTest, CombinesWeightedTerms) {
  const Fixture f = MakeFixture(200, 2, 11);
  const SingleClusterWeights gamma{0.3, 0.7};
  const double expected = 0.3 * InterestingnessP(f.stats, 0, 2) +
                          0.7 * SufficiencyP(f.stats, 0, 2);
  EXPECT_NEAR(SingleClusterScore(f.stats, 0, 2, gamma), expected, 1e-9);
}

TEST(GlobalScoreTest, CombinesWeightedTerms) {
  const Fixture f = MakeFixture(300, 3, 12);
  const AttributeCombination ac = {2, 0, 1};
  GlobalWeights lambda;  // equal thirds
  double mean_int = 0.0, mean_suf = 0.0;
  for (size_t c = 0; c < 3; ++c) {
    mean_int += InterestingnessP(f.stats, static_cast<ClusterId>(c), ac[c]);
    mean_suf += SufficiencyP(f.stats, static_cast<ClusterId>(c), ac[c]);
  }
  const double expected = (mean_int / 3.0 + mean_suf / 3.0) / 3.0 +
                          DiversityP(f.stats, ac) / 3.0;
  EXPECT_NEAR(GlobalScore(f.stats, ac, lambda), expected, 1e-9);
}

TEST(GlobalScoreTest, WithinRangeBound) {
  const Fixture f = MakeFixture(400, 4, 13);
  GlobalWeights lambda;
  const double bound = GlobalScoreRangeBound(f.stats, lambda);
  Rng rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    AttributeCombination ac(4);
    for (auto& attr : ac) {
      attr = static_cast<AttrIndex>(rng.UniformInt(3));
    }
    const double score = GlobalScore(f.stats, ac, lambda);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, bound + 1e-9);
  }
}

// Prop. 4.3 remark: the Int_p ranking of attributes for a fixed cluster is
// identical to the TVD ranking.
TEST(RankingEquivalenceTest, InterestingnessPreservesTvdOrder) {
  const Fixture f = MakeFixture(500, 3, 15);
  for (size_t c = 0; c < 3; ++c) {
    const auto cluster = static_cast<ClusterId>(c);
    if (f.stats.cluster_size(cluster) == 0) continue;
    for (AttrIndex a1 = 0; a1 < 3; ++a1) {
      for (AttrIndex a2 = 0; a2 < 3; ++a2) {
        const double tvd_order =
            eval::TvdInterestingness(f.stats, cluster, a1) -
            eval::TvdInterestingness(f.stats, cluster, a2);
        const double intp_order = InterestingnessP(f.stats, cluster, a1) -
                                  InterestingnessP(f.stats, cluster, a2);
        EXPECT_GE(tvd_order * intp_order, -1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace dpclustx
