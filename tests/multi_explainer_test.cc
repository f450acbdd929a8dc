#include "core/multi_explainer.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "data/synthetic.h"

namespace dpclustx {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<ClusterId> labels;
  size_t num_clusters;
  StatsCache stats;
};

Fixture MakeFixture(uint64_t seed = 1) {
  synth::SyntheticConfig config;
  config.num_rows = 3000;
  config.num_attributes = 8;
  config.num_latent_groups = 3;
  config.max_domain = 6;
  config.signal_strength = 0.9;
  config.seed = seed;
  Dataset dataset = std::move(*synth::Generate(config));
  KMeansOptions kmeans;
  kmeans.num_clusters = 3;
  kmeans.seed = seed;
  const auto clustering = FitKMeans(dataset, kmeans);
  std::vector<ClusterId> labels = (*clustering)->AssignAll(dataset);
  auto stats = StatsCache::Build(dataset, labels, 3);
  return {std::move(dataset), std::move(labels), 3, std::move(*stats)};
}

TEST(MultiExplainerTest, ValidatesAttrsPerCluster) {
  const Fixture f = MakeFixture();
  MultiExplainOptions options;
  options.attrs_per_cluster = 0;
  EXPECT_FALSE(ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3, options)
                   .ok());
  options.attrs_per_cluster = 5;  // > k = 3
  EXPECT_FALSE(ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3, options)
                   .ok());
}

TEST(MultiExplainerTest, ProducesEllExplanationsPerCluster) {
  const Fixture f = MakeFixture();
  MultiExplainOptions options;
  options.attrs_per_cluster = 2;
  options.base.seed = 7;
  const auto result =
      ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->combination.size(), 3u);
  ASSERT_EQ(result->explanations.size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(result->combination[c].size(), 2u);
    EXPECT_EQ(result->explanations[c].size(), 2u);
    // Distinct attributes within a cluster (subsets, not multisets).
    const std::set<AttrIndex> distinct(result->combination[c].begin(),
                                       result->combination[c].end());
    EXPECT_EQ(distinct.size(), 2u);
    // Each selected attribute comes from the candidate set.
    for (AttrIndex attr : result->combination[c]) {
      const auto& set = result->candidate_sets[c];
      EXPECT_NE(std::find(set.begin(), set.end(), attr), set.end());
    }
  }
}

TEST(MultiExplainerTest, EllOneScoreMatchesGlobalScore) {
  // Appendix B: the extended score coincides with GlScore when ℓ = 1.
  const Fixture f = MakeFixture();
  GlobalWeights lambda;
  const AttributeCombination ac = {0, 3, 5};
  std::vector<std::vector<AttrIndex>> multi_ac = {{0}, {3}, {5}};
  EXPECT_NEAR(MultiGlobalScore(f.stats, multi_ac, lambda),
              GlobalScore(f.stats, ac, lambda), 1e-9);
}

TEST(MultiExplainerTest, IntraClusterPairsCountTowardDiversity) {
  // With ℓ = 2 and distinct attributes in one cluster, the pair (c, A),
  // (c, A') contributes min(|D_c|, |D_c|) = |D_c| to diversity.
  const Fixture f = MakeFixture();
  GlobalWeights div_only{0.0, 0.0, 1.0};
  // Single cluster view: build a 1-cluster stats cache.
  const std::vector<ClusterId> one_cluster(f.dataset.num_rows(), 0);
  const auto stats = StatsCache::Build(f.dataset, one_cluster, 1);
  std::vector<std::vector<AttrIndex>> multi_ac = {{0, 1}};
  EXPECT_NEAR(MultiGlobalScore(*stats, multi_ac, div_only),
              static_cast<double>(f.dataset.num_rows()), 1e-9);
}

TEST(MultiExplainerTest, DeterministicGivenSeed) {
  const Fixture f = MakeFixture();
  MultiExplainOptions options;
  options.attrs_per_cluster = 2;
  options.base.seed = 13;
  const auto a = ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3,
                                                options);
  const auto b = ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3,
                                                options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->combination, b->combination);
}

TEST(MultiExplainerTest, ChargesBudget) {
  const Fixture f = MakeFixture();
  PrivacyBudget budget(1.0);
  MultiExplainOptions options;
  options.attrs_per_cluster = 2;
  ASSERT_TRUE(ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3, options,
                                             &budget)
                  .ok());
  EXPECT_NEAR(budget.spent_epsilon(), 0.3, 1e-12);
}

TEST(MultiExplainerTest, RefusalsChargeNothing) {
  const Fixture f = MakeFixture();
  PrivacyBudget budget(1.0);
  MultiExplainOptions options;
  options.attrs_per_cluster = 2;
  // SVT sets may be smaller than k; the ℓ-subset enumeration needs k.
  options.base.stage1 = Stage1Selector::kSvt;
  EXPECT_EQ(ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3, options,
                                           &budget)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.base.stage1 = Stage1Selector::kOneShotTopK;
  options.base.max_combinations = 10;  // C(3, 2)^3 = 27 > 10
  const auto refused = ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3,
                                                      options, &budget);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find(
                "multi-explanation combination space exceeds"),
            std::string::npos)
      << refused.status();
  EXPECT_EQ(budget.spent_epsilon(), 0.0);
  EXPECT_TRUE(budget.state().totals.empty());
}

// Σ unary + Σ pair of the choice indices `choice`.
double TableScore(const core_internal::CombinationScoreTables& tables,
                  const std::vector<size_t>& choice, size_t num_choices) {
  double score = 0.0;
  for (size_t c = 0; c < choice.size(); ++c) {
    score += tables.unary[c][choice[c]];
    for (size_t cp = c + 1; cp < choice.size() && !tables.pair.empty();
         ++cp) {
      score += tables.pair[c][cp][choice[c] * num_choices + choice[cp]];
    }
  }
  return score;
}

TEST(MultiExplainerTest, SubsetTablesScoreLikeMultiGlobalScore) {
  const Fixture f = MakeFixture();
  MultiExplainOptions options;
  options.attrs_per_cluster = 2;
  options.base.seed = 17;
  const auto result =
      ExplainDpClustXMultiWithLabels(f.dataset, f.labels, 3, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Cluster c's choices: the three 2-subsets of its candidate set.
  std::vector<std::vector<std::vector<AttrIndex>>> choices(3);
  for (size_t c = 0; c < 3; ++c) {
    const auto& set = result->candidate_sets[c];
    choices[c] = {{set[0], set[1]}, {set[0], set[2]}, {set[1], set[2]}};
  }
  for (const GlobalWeights& lambda :
       {GlobalWeights{}, GlobalWeights{0.0, 0.0, 1.0},
        GlobalWeights{0.5, 0.5, 0.0}}) {
    const auto tables =
        core_internal::BuildSubsetTables(f.stats, choices, lambda);
    // Every combination of the C(3, 2)^3 space, the selected one included.
    std::vector<size_t> choice(3, 0);
    size_t selected_seen = 0;
    for (size_t combo = 0; combo < 27; ++combo) {
      const std::vector<std::vector<AttrIndex>> ac = {
          choices[0][choice[0]], choices[1][choice[1]], choices[2][choice[2]]};
      const double expected = MultiGlobalScore(f.stats, ac, lambda);
      EXPECT_NEAR(TableScore(tables, choice, 3), expected,
                  1e-12 * std::abs(expected))
          << "combination " << combo;
      selected_seen += ac == result->combination;
      for (size_t c = 0; c < 3; ++c) {
        if (++choice[c] < 3) break;
        choice[c] = 0;
      }
    }
    EXPECT_EQ(selected_seen, 1u);
  }
}

TEST(MultiExplainerTest, WorksAgainstClusteringFunction) {
  const Fixture f = MakeFixture();
  KMeansOptions kmeans;
  kmeans.num_clusters = 3;
  const auto clustering = FitKMeans(f.dataset, kmeans);
  MultiExplainOptions options;
  options.attrs_per_cluster = 2;
  const auto result = ExplainDpClustXMulti(f.dataset, **clustering, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->combination.size(), 3u);
}

}  // namespace
}  // namespace dpclustx
