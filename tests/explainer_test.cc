#include "core/explainer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "data/kernels/isa.h"
#include "data/synthetic.h"

namespace dpclustx {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<ClusterId> labels;
  size_t num_clusters;
};

Fixture MakeFixture(size_t rows = 4000, size_t clusters = 3,
                    uint64_t seed = 1) {
  synth::SyntheticConfig config;
  config.num_rows = rows;
  config.num_attributes = 10;
  config.num_latent_groups = clusters;
  config.min_domain = 2;
  config.max_domain = 8;
  config.signal_strength = 0.9;
  config.informative_fraction = 0.5;
  config.seed = seed;
  Dataset dataset = std::move(*synth::Generate(config));
  KMeansOptions kmeans;
  kmeans.num_clusters = clusters;
  kmeans.seed = seed;
  const auto clustering = FitKMeans(dataset, kmeans);
  std::vector<ClusterId> labels = (*clustering)->AssignAll(dataset);
  return {std::move(dataset), std::move(labels), clusters};
}

TEST(ExplainerTest, ValidatesOptions) {
  const Fixture f = MakeFixture(500);
  DpClustXOptions options;
  options.epsilon_cand_set = 0.0;
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
  options = DpClustXOptions{};
  options.num_candidates = 0;
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
  options = DpClustXOptions{};
  options.lambda = GlobalWeights{0.9, 0.9, 0.9};
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
  options = DpClustXOptions{};
  options.epsilon_hist = 0.0;  // required when histograms are generated
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
}

TEST(ExplainerTest, ProducesCompleteExplanation) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 2;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  EXPECT_EQ(explanation->combination.size(), f.num_clusters);
  EXPECT_EQ(explanation->per_cluster.size(), f.num_clusters);
  EXPECT_EQ(explanation->candidate_sets.size(), f.num_clusters);
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const SingleClusterExplanation& e = explanation->per_cluster[c];
    EXPECT_EQ(e.cluster, c);
    EXPECT_EQ(e.attribute, explanation->combination[c]);
    const size_t domain =
        f.dataset.schema().attribute(e.attribute).domain_size();
    EXPECT_EQ(e.inside.domain_size(), domain);
    EXPECT_EQ(e.outside.domain_size(), domain);
  }
}

TEST(ExplainerTest, CombinationDrawnFromCandidateSets) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 3;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok());
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const auto& set = explanation->candidate_sets[c];
    EXPECT_EQ(set.size(), options.num_candidates);
    EXPECT_NE(std::find(set.begin(), set.end(),
                        explanation->combination[c]),
              set.end());
  }
}

TEST(ExplainerTest, NoisyHistogramsAreNonNegative) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 4;
  options.epsilon_hist = 0.05;  // heavy noise
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok());
  for (const auto& e : explanation->per_cluster) {
    for (size_t i = 0; i < e.inside.domain_size(); ++i) {
      EXPECT_GE(e.inside.bin(static_cast<ValueCode>(i)), 0.0);
      EXPECT_GE(e.outside.bin(static_cast<ValueCode>(i)), 0.0);
    }
  }
}

TEST(ExplainerTest, SkipHistogramsLeavesThemEmpty) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.generate_histograms = false;
  options.epsilon_hist = 0.0;  // legal in this mode
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok());
  EXPECT_TRUE(explanation->per_cluster.empty());
  EXPECT_EQ(explanation->combination.size(), f.num_clusters);
}

TEST(ExplainerTest, ChargesBudgetLedger) {
  const Fixture f = MakeFixture();
  PrivacyBudget budget(1.0);
  DpClustXOptions options;
  options.epsilon_cand_set = 0.1;
  options.epsilon_top_comb = 0.2;
  options.epsilon_hist = 0.3;
  ASSERT_TRUE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                        options, &budget)
                  .ok());
  EXPECT_NEAR(budget.spent_epsilon(), 0.6, 1e-12);
  EXPECT_EQ(budget.state().totals.size(), 3u);
}

TEST(ExplainerTest, BudgetShortfallFailsBeforeRelease) {
  const Fixture f = MakeFixture();
  PrivacyBudget budget(0.25);
  DpClustXOptions options;  // needs 0.3 total
  EXPECT_EQ(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                      options, &budget)
                .status()
                .code(),
            StatusCode::kOutOfBudget);
}

TEST(ExplainerTest, DeterministicGivenSeed) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 99;
  const auto a = ExplainDpClustXWithLabels(f.dataset, f.labels,
                                           f.num_clusters, options);
  const auto b = ExplainDpClustXWithLabels(f.dataset, f.labels,
                                           f.num_clusters, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->combination, b->combination);
  for (size_t c = 0; c < f.num_clusters; ++c) {
    EXPECT_DOUBLE_EQ(Histogram::L1Distance(a->per_cluster[c].inside,
                                           b->per_cluster[c].inside),
                     0.0);
  }
}

TEST(ExplainerTest, MaxCombinationsGuardTriggers) {
  const Fixture f = MakeFixture(2000, 3);
  DpClustXOptions options;
  options.max_combinations = 10;  // 3^3 = 27 > 10
  const auto result = ExplainDpClustXWithLabels(f.dataset, f.labels,
                                                f.num_clusters, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExplainerTest, SvtStageOneProducesValidExplanation) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.stage1 = Stage1Selector::kSvt;
  options.svt_threshold_fraction = 0.2;
  options.epsilon_cand_set = 1.0;  // SVT needs more signal to be useful
  options.seed = 6;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  EXPECT_EQ(explanation->combination.size(), f.num_clusters);
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const auto& set = explanation->candidate_sets[c];
    ASSERT_FALSE(set.empty());
    EXPECT_LE(set.size(), options.num_candidates);
    EXPECT_NE(std::find(set.begin(), set.end(),
                        explanation->combination[c]),
              set.end());
  }
}

TEST(ExplainerTest, SvtStageOneValidatesThreshold) {
  const Fixture f = MakeFixture(500);
  DpClustXOptions options;
  options.stage1 = Stage1Selector::kSvt;
  options.svt_threshold_fraction = 0.0;
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
}

TEST(ExplainerTest, EndToEndAgainstClusteringFunction) {
  const Fixture f = MakeFixture();
  KMeansOptions kmeans;
  kmeans.num_clusters = 3;
  const auto clustering = FitKMeans(f.dataset, kmeans);
  ASSERT_TRUE(clustering.ok());
  DpClustXOptions options;
  const auto explanation =
      ExplainDpClustX(f.dataset, **clustering, options);
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->combination.size(), 3u);
}

TEST(SearchCombinationTest, ExactModePicksArgmax) {
  // Hand-built tables: 2 clusters × 2 candidates; unary makes (1, 0) best.
  core_internal::CombinationScoreTables tables;
  tables.unary = {{0.0, 5.0}, {3.0, 1.0}};
  const std::vector<std::vector<AttrIndex>> sets = {{7, 8}, {9, 10}};
  Rng rng(1);
  const auto combo = core_internal::SearchCombination(
      sets, tables, /*epsilon=*/0.0, 1.0, 1000, rng);
  ASSERT_TRUE(combo.ok());
  EXPECT_EQ(*combo, (AttributeCombination{8, 9}));
}

TEST(SearchCombinationTest, PairTermsInfluenceSelection) {
  // Unary alone would pick (0, 0); a strong pair bonus flips to (1, 1).
  core_internal::CombinationScoreTables tables;
  tables.unary = {{1.0, 0.5}, {1.0, 0.5}};
  tables.pair.resize(2);
  tables.pair[0].resize(2);
  tables.pair[0][1] = {0.0, 0.0, 0.0, 10.0};  // bonus only for (1, 1)
  const std::vector<std::vector<AttrIndex>> sets = {{7, 8}, {9, 10}};
  Rng rng(2);
  const auto combo = core_internal::SearchCombination(
      sets, tables, 0.0, 1.0, 1000, rng);
  ASSERT_TRUE(combo.ok());
  EXPECT_EQ(*combo, (AttributeCombination{8, 10}));
}

TEST(SearchCombinationTest, DeadlineStopsTheSearchMidway) {
  // 3^14 ≈ 4.8M combinations take far longer than 2 ms at any thread
  // count, so the deadline passes after the first block checkpoints.
  const std::vector<std::vector<AttrIndex>> sets(14, {0, 1, 2});
  core_internal::CombinationScoreTables tables;
  tables.unary.assign(14, {0.1, 0.2, 0.3});
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    Rng rng(5);
    const auto combo = core_internal::SearchCombination(
        sets, tables, /*epsilon=*/0.1, 1.0, size_t{1} << 30, rng,
        Deadline::AfterMillis(2), threads);
    EXPECT_EQ(combo.status().code(), StatusCode::kDeadlineExceeded)
        << threads << " threads";
    EXPECT_EQ(combo.status().message(), "deadline exceeded in stage2 search")
        << threads << " threads";
  }
}

// Brute force over the double tables: the best and second-best scores and
// the first combination (cluster 0 least significant) reaching the best.
struct DoubleArgmax {
  size_t combo = 0;
  double best = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
};

DoubleArgmax BruteForceArgmax(
    const std::vector<size_t>& sizes,
    const core_internal::CombinationScoreTables& tables) {
  size_t num_combinations = 1;
  for (const size_t k : sizes) num_combinations *= k;
  DoubleArgmax result;
  for (size_t combo = 0; combo < num_combinations; ++combo) {
    std::vector<size_t> choice(sizes.size());
    for (size_t c = 0, rest = combo; c < sizes.size(); ++c) {
      choice[c] = rest % sizes[c];
      rest /= sizes[c];
    }
    double score = 0.0;
    for (size_t c = 0; c < sizes.size(); ++c) {
      score += tables.unary[c][choice[c]];
      for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
        score += tables.pair[c][cp][choice[c] * sizes[cp] + choice[cp]];
      }
    }
    if (score > result.best) {
      result.second = result.best;
      result.best = score;
      result.combo = combo;
    } else if (score > result.second) {
      result.second = score;
    }
  }
  return result;
}

TEST(SearchCombinationTest, ExactModeMatchesDoubleArgmaxOutsideRounding) {
  // Rounding moves a score by at most T·2^-F / 2, so whenever the top two
  // double scores are more than T·2^-F apart the fixed-point argmax is the
  // double one.
  Rng rng(17);
  size_t checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<size_t> sizes(1 + rng.UniformInt(5));
    for (size_t& k : sizes) k = 1 + rng.UniformInt(4);
    // Entries from 10^-3 to 10^3, so some gaps are a few rounding units.
    const double magnitude = std::pow(10.0, rng.UniformRange(-3.0, 3.0));
    core_internal::CombinationScoreTables tables;
    std::vector<std::vector<AttrIndex>> sets;
    tables.pair.resize(sizes.size());
    for (size_t c = 0; c < sizes.size(); ++c) {
      sets.emplace_back();
      tables.unary.emplace_back();
      for (size_t j = 0; j < sizes[c]; ++j) {
        sets.back().push_back(static_cast<AttrIndex>(j));
        tables.unary.back().push_back(magnitude * rng.UniformDouble());
      }
      tables.pair[c].resize(sizes.size());
      for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
        for (size_t j = 0; j < sizes[c] * sizes[cp]; ++j) {
          tables.pair[c][cp].push_back(magnitude * rng.UniformDouble());
        }
      }
    }
    const DoubleArgmax expected = BruteForceArgmax(sizes, tables);
    const double rounding =
        std::ldexp(static_cast<double>(
                       core_internal::ScoreTermCount(sizes.size())),
                   -core_internal::kScoreFractionBits);
    if (expected.best - expected.second <= rounding) continue;
    ++checked;
    Rng unused(1);
    const auto combo = core_internal::SearchCombination(
        sets, tables, /*epsilon=*/0.0, 1.0, 1000, unused);
    ASSERT_TRUE(combo.ok()) << combo.status();
    AttributeCombination want(sizes.size());
    for (size_t c = 0, rest = expected.combo; c < sizes.size(); ++c) {
      want[c] = static_cast<AttrIndex>(rest % sizes[c]);
      rest /= sizes[c];
    }
    EXPECT_EQ(*combo, want) << "trial " << trial;
  }
  EXPECT_GT(checked, 200u);

  // A gap of a few rounding units is still resolved.
  core_internal::CombinationScoreTables tables;
  const double gap = 4.0 * std::ldexp(3.0, -core_internal::kScoreFractionBits);
  tables.unary = {{0.5, 0.5}, {0.25, 0.25 + gap}};
  Rng unused(1);
  const auto combo = core_internal::SearchCombination(
      {{7, 8}, {9, 10}}, tables, /*epsilon=*/0.0, 1.0, 1000, unused);
  ASSERT_TRUE(combo.ok()) << combo.status();
  EXPECT_EQ(*combo, (AttributeCombination{7, 10}));
}

TEST(SearchCombinationTest, RefusesTablesOutsideTheFixedPointRange) {
  const std::vector<std::vector<AttrIndex>> sets = {{0, 1}, {2, 3}};
  Rng rng(3);
  core_internal::CombinationScoreTables tables;
  tables.unary = {{0.0, 1.0}, {0.0, std::nan("")}};
  EXPECT_EQ(core_internal::SearchCombination(sets, tables, 0.1, 1.0, 1000, rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Two largest entries of 2^31 score units sum to 2^62 fixed-point units:
  // the first magnitude refused.
  tables.unary = {{0.0, 0x1p31}, {0.0, 0x1p31}};
  EXPECT_EQ(core_internal::SearchCombination(sets, tables, 0.1, 1.0, 1000, rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  tables.unary = {{0.0, 0x1p30}, {0.0, 0x1p30}};
  EXPECT_TRUE(
      core_internal::SearchCombination(sets, tables, 0.1, 1.0, 1000, rng).ok());
  // A table that does not match its candidate set.
  tables.unary = {{0.0, 1.0}, {0.0}};
  EXPECT_EQ(core_internal::SearchCombination(sets, tables, 0.1, 1.0, 1000, rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // ValidateShape refuses, before any charge, a dataset whose GlScore
  // tables could overflow: 2^32 rows and more.
  DpClustXOptions options;
  EXPECT_TRUE(options.ValidateShape(uint64_t{1} << 31, 10, 3).ok());
  EXPECT_EQ(options.ValidateShape(uint64_t{1} << 32, 10, 3).code(),
            StatusCode::kInvalidArgument);
}

TEST(ExplainerTest, RefusedShapesChargeNothing) {
  // These refusals depend only on the schema and |C|, so they come before
  // the budget reserve.
  const Fixture f = MakeFixture(2000, 3);
  PrivacyBudget budget(1.0);
  DpClustXOptions options;
  options.num_candidates = 11;  // the fixture has 10 attributes
  auto result = ExplainDpClustXWithLabels(f.dataset, f.labels,
                                          f.num_clusters, options, &budget);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("candidate-set size k=11"),
            std::string::npos)
      << result.status();

  options = DpClustXOptions{};
  options.max_combinations = 10;  // 3^3 = 27 > 10
  result = ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                     options, &budget);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("combination space exceeds"),
            std::string::npos)
      << result.status();

  options = DpClustXOptions{};
  options.stage1 = Stage1Selector::kSvt;
  options.num_candidates = 11;
  result = ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                     options, &budget);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(budget.spent_epsilon(), 0.0);
  EXPECT_TRUE(budget.state().totals.empty());
}

TEST(ExplainerTest, MultithreadedOptionProducesValidExplanation) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.num_threads = 4;
  options.seed = 5;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const auto& set = explanation->candidate_sets[c];
    EXPECT_NE(std::find(set.begin(), set.end(),
                        explanation->combination[c]),
              set.end());
  }
}

TEST(SearchCombinationTest, ValidatesShapes) {
  core_internal::CombinationScoreTables tables;
  tables.unary = {{1.0}};
  Rng rng(3);
  EXPECT_FALSE(core_internal::SearchCombination({{0}, {1}}, tables, 0.0, 1.0,
                                                1000, rng)
                   .ok());
  EXPECT_FALSE(
      core_internal::SearchCombination({}, {}, 0.0, 1.0, 1000, rng).ok());
}

// ---- The tiled walk and the keyed noise ----

// Random tables over clusters with the given candidate counts. With
// `integers` every entry is 0, 1 or 2, so many combinations tie.
core_internal::CombinationScoreTables SearchTestTables(
    const std::vector<size_t>& sizes, bool pairs, bool integers, Rng& rng) {
  const auto entry = [&] {
    return integers ? static_cast<double>(rng.UniformInt(3))
                    : rng.UniformRange(-50.0, 50.0);
  };
  core_internal::CombinationScoreTables tables;
  for (const size_t k : sizes) {
    tables.unary.emplace_back(k);
    for (double& value : tables.unary.back()) value = entry();
  }
  if (!pairs) return tables;
  tables.pair.resize(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    tables.pair[c].resize(sizes.size());
    for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
      tables.pair[c][cp].resize(sizes[c] * sizes[cp]);
      for (double& value : tables.pair[c][cp]) value = entry();
    }
  }
  return tables;
}

// Candidate set c is {0, ..., k_c - 1}, so a combination is its choices.
std::vector<std::vector<AttrIndex>> IdentitySets(
    const std::vector<size_t>& sizes) {
  std::vector<std::vector<AttrIndex>> sets;
  for (const size_t k : sizes) {
    sets.emplace_back();
    for (size_t j = 0; j < k; ++j) {
      sets.back().push_back(static_cast<AttrIndex>(j));
    }
  }
  return sets;
}

// The index of a combination of IdentitySets (cluster 0 least significant).
size_t CombinationIndex(const std::vector<size_t>& sizes,
                        const AttributeCombination& combination) {
  size_t index = 0;
  for (size_t c = sizes.size(); c-- > 0;) {
    index = index * sizes[c] + combination[c];
  }
  return index;
}

// One combination's fixed-point score summed from scratch.
int64_t BruteForceScore(const std::vector<size_t>& sizes,
                        const core_internal::CombinationScoreTables& tables,
                        size_t combo) {
  std::vector<size_t> choice(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    choice[c] = combo % sizes[c];
    combo /= sizes[c];
  }
  int64_t score = 0;
  for (size_t c = 0; c < sizes.size(); ++c) {
    score += core_internal::QuantizeScore(tables.unary[c][choice[c]]);
    if (tables.pair.empty()) continue;
    for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
      score += core_internal::QuantizeScore(
          tables.pair[c][cp][choice[c] * sizes[cp] + choice[cp]]);
    }
  }
  return score;
}

TEST(SearchScoresTest, TiledScoresEqualBruteForce) {
  // One cluster; single-choice clusters among others; spaces smaller than
  // one tile; tiles of 81·9 = 729, 300, 343 and 1,260 combinations, which
  // do not divide a 4,096-combination block; one tile of 256 that does.
  const std::vector<std::vector<size_t>> shapes = {
      {1},
      {5},
      {1, 1, 1},
      {3, 1, 4},
      {1, 4, 1, 4, 1, 4, 1, 4, 2},
      {4, 4, 4, 4, 4, 4, 4, 4},
      std::vector<size_t>(11, 3),
      {300, 2, 3},
      {7, 7, 7, 7, 7},
      {5, 3, 7, 2, 6, 3},
      {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}};
  Rng rng(99);
  for (size_t s = 0; s < shapes.size(); ++s) {
    const std::vector<size_t>& sizes = shapes[s];
    size_t total = 1;
    for (const size_t k : sizes) total *= k;
    for (const bool pairs : {true, false}) {
      const auto tables = SearchTestTables(sizes, pairs, false, rng);
      const auto sets = IdentitySets(sizes);
      std::vector<int64_t> expected(total);
      for (size_t i = 0; i < total; ++i) {
        expected[i] = BruteForceScore(sizes, tables, i);
      }
      // The whole space, and a range that starts and ends inside tiles,
      // through every supported level's outer_sum kernel.
      for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
        kernels::ScopedForceIsa force(level);
        for (const auto& [begin, end] :
             {std::pair<size_t, size_t>{0, total},
              std::pair<size_t, size_t>{total / 3, total - total / 5}}) {
          const auto scores =
              core_internal::SearchScores(sets, tables, begin, end);
          ASSERT_TRUE(scores.ok()) << scores.status();
          ASSERT_EQ(scores->size(), end - begin);
          for (size_t i = begin; i < end; ++i) {
            ASSERT_EQ((*scores)[i - begin], expected[i])
                << "shape " << s << " pairs " << pairs << " combination "
                << i << " isa " << kernels::IsaLevelName(level);
          }
        }
      }
    }
  }
  const auto sets = IdentitySets({2, 2});
  const auto tables = SearchTestTables({2, 2}, true, false, rng);
  EXPECT_FALSE(core_internal::SearchScores(sets, tables, 3, 5).ok());
  EXPECT_FALSE(core_internal::SearchScores(sets, tables, 3, 2).ok());
}

// The shapes and tables of the pinned exact-mode selections below.
std::vector<std::pair<std::vector<size_t>,
                      core_internal::CombinationScoreTables>>
PinnedSearchCases() {
  Rng rng(2030);
  std::vector<std::pair<std::vector<size_t>,
                        core_internal::CombinationScoreTables>>
      cases;
  for (size_t i = 0; i < 24; ++i) {
    std::vector<size_t> sizes(1 + rng.UniformInt(9));
    for (size_t& k : sizes) k = 1 + rng.UniformInt(sizes.size() > 7 ? 3 : 5);
    const bool pairs = i % 3 != 2;
    const bool integers = i % 2 == 0;
    auto tables = SearchTestTables(sizes, pairs, integers, rng);
    cases.emplace_back(std::move(sizes), std::move(tables));
  }
  for (const std::vector<size_t>& sizes :
       {std::vector<size_t>(8, 4), std::vector<size_t>(11, 3),
        std::vector<size_t>{300, 2, 3}}) {
    for (const bool integers : {false, true}) {
      auto tables = SearchTestTables(sizes, true, integers, rng);
      cases.emplace_back(sizes, std::move(tables));
    }
  }
  return cases;
}

TEST(SearchCombinationTest, ExactSelectionsMatchTheUntiledSearch) {
  // Selections of the search before tiling (odometer rows of cluster 0,
  // std::max_element), pinned: exact mode is a pure function of the
  // tables, so the tiled walk and the eight-accumulator maximum must pick
  // the same combination, ties included, at every thread count.
  const size_t pinned[] = {0,   4,     6,     222,    91,     22,
                           89,  114,   12,    0,      4,      6747,
                           0,   47,    124,   1,      34,     0,
                           133, 65,    0,     1936,   2,      3,
                           65396, 41824, 105974, 110444, 1673, 320};
  const auto cases = PinnedSearchCases();
  ASSERT_EQ(cases.size(), std::size(pinned));
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [sizes, tables] = cases[i];
    for (const size_t threads : {size_t{1}, size_t{3}}) {
      Rng rng(1);
      const auto combination = core_internal::SearchCombination(
          IdentitySets(sizes), tables, 0.0, 1.0, size_t{1} << 30, rng,
          Deadline(), threads);
      ASSERT_TRUE(combination.ok()) << combination.status();
      EXPECT_EQ(CombinationIndex(sizes, *combination), pinned[i])
          << "case " << i << " threads " << threads;
    }
  }
}

TEST(SearchCombinationTest, TakesOneRngWordWhenPrivateAndNoneWhenExact) {
  for (const std::vector<size_t>& sizes :
       {std::vector<size_t>{1}, std::vector<size_t>{2, 3},
        std::vector<size_t>(8, 4), std::vector<size_t>(11, 3)}) {
    Rng table_rng(4);
    const auto tables = SearchTestTables(sizes, true, false, table_rng);
    for (const double epsilon : {0.0, 0.5}) {
      Rng rng(8), reference(8);
      if (epsilon > 0.0) reference.engine()();
      ASSERT_TRUE(core_internal::SearchCombination(IdentitySets(sizes),
                                                   tables, epsilon, 1.0,
                                                   size_t{1} << 30, rng)
                      .ok());
      EXPECT_EQ(rng.engine()(), reference.engine()())
          << sizes.size() << " clusters, epsilon " << epsilon;
    }
  }
}

}  // namespace
}  // namespace dpclustx
