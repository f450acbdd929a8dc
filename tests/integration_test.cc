// End-to-end pipeline tests: synthesize → cluster (privately) → explain
// (privately) → evaluate, with budget accounting across the whole flow.

#include <gtest/gtest.h>

#include "baselines/tabee.h"
#include "cluster/dp_kmeans.h"
#include "cluster/kmeans.h"
#include "core/explainer.h"
#include "core/explanation.h"
#include "core/pipeline.h"
#include "core/serialization.h"
#include "data/derived.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace dpclustx {
namespace {

Dataset MakeData(uint64_t seed = 1, size_t rows = 8000) {
  synth::SyntheticConfig config;
  config.num_rows = rows;
  config.num_attributes = 15;
  config.num_latent_groups = 4;
  config.max_domain = 10;
  config.signal_strength = 0.9;
  config.informative_fraction = 0.4;
  config.seed = seed;
  return std::move(*synth::Generate(config));
}

TEST(IntegrationTest, FullPrivatePipelineUnderOneBudget) {
  const Dataset dataset = MakeData();
  PrivacyBudget budget(1.5);

  DpKMeansOptions clustering_options;
  clustering_options.num_clusters = 4;
  clustering_options.epsilon = 1.0;
  clustering_options.seed = 2;
  const auto clustering =
      FitDpKMeans(dataset, clustering_options, &budget);
  ASSERT_TRUE(clustering.ok());

  DpClustXOptions explain_options;  // 0.3 total
  explain_options.seed = 3;
  const auto explanation =
      ExplainDpClustX(dataset, **clustering, explain_options, &budget);
  ASSERT_TRUE(explanation.ok()) << explanation.status();

  // ε_clust + ε_exp = 1.0 + 0.3.
  EXPECT_NEAR(budget.spent_epsilon(), 1.3, 1e-9);
  EXPECT_EQ(budget.state().totals.size(), 4u);
  EXPECT_NEAR(budget.remaining_epsilon(), 0.2, 1e-9);

  // A second full explanation must not fit in the remaining 0.2.
  const auto second =
      ExplainDpClustX(dataset, **clustering, explain_options, &budget);
  EXPECT_EQ(second.status().code(), StatusCode::kOutOfBudget);
}

TEST(IntegrationTest, PipelineIsDeterministicGivenSeeds) {
  const Dataset dataset = MakeData();
  auto run = [&]() {
    DpKMeansOptions c;
    c.num_clusters = 3;
    c.seed = 5;
    const auto clustering = FitDpKMeans(dataset, c);
    DpClustXOptions e;
    e.seed = 7;
    return ExplainDpClustX(dataset, **clustering, e).value().combination;
  };
  EXPECT_EQ(run(), run());
}

TEST(IntegrationTest, ExplanationQualityTracksNonPrivateAtModerateEpsilon) {
  const Dataset dataset = MakeData(11);
  KMeansOptions kmeans;
  kmeans.num_clusters = 4;
  kmeans.seed = 11;
  const auto clustering = FitKMeans(dataset, kmeans);
  const std::vector<ClusterId> labels = (*clustering)->AssignAll(dataset);
  const auto stats = StatsCache::Build(dataset, labels, 4);

  const auto tabee = baselines::ExplainTabee(*stats, {});
  ASSERT_TRUE(tabee.ok());
  GlobalWeights lambda;
  const double reference =
      eval::SensitiveQuality(*stats, tabee->combination, lambda);

  DpClustXOptions options;
  options.epsilon_cand_set = 0.5;
  options.epsilon_top_comb = 0.5;
  options.generate_histograms = false;
  double quality = 0.0;
  constexpr int kRuns = 8;
  for (int run = 0; run < kRuns; ++run) {
    options.seed = 100 + static_cast<uint64_t>(run);
    const auto explanation =
        ExplainDpClustXWithLabels(dataset, labels, 4, options);
    ASSERT_TRUE(explanation.ok());
    quality +=
        eval::SensitiveQuality(*stats, explanation->combination, lambda);
  }
  quality /= kRuns;
  EXPECT_GT(quality, 0.85 * reference);
}

TEST(IntegrationTest, RenderedReportMentionsEveryCluster) {
  const Dataset dataset = MakeData(13, 3000);
  KMeansOptions kmeans;
  kmeans.num_clusters = 3;
  const auto clustering = FitKMeans(dataset, kmeans);
  DpClustXOptions options;
  options.epsilon_hist = 1.0;
  const auto explanation = ExplainDpClustX(dataset, **clustering, options);
  ASSERT_TRUE(explanation.ok());
  const std::string report =
      RenderGlobalExplanation(*explanation, dataset.schema());
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NE(report.find("Cluster " + std::to_string(c)),
              std::string::npos);
  }
  EXPECT_NE(report.find("%"), std::string::npos);
}

TEST(IntegrationTest, TextualDescriptionDetectsPlantedShift) {
  // Cluster concentrated in the high half of an ordered domain against a
  // low-half background must be described as "higher values".
  Schema schema({Attribute("lab_proc",
                           {"[0,10)", "[10,20)", "[20,30)", "[30,40)"})});
  Dataset dataset(schema);
  std::vector<ClusterId> labels;
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const bool in_cluster = i < 400;
    const ValueCode code =
        in_cluster ? static_cast<ValueCode>(2 + rng.UniformInt(2))
                   : static_cast<ValueCode>(rng.UniformInt(2));
    dataset.AppendRowUnchecked({code});
    labels.push_back(in_cluster ? 0 : 1);
  }
  const auto stats = StatsCache::Build(dataset, labels, 2);
  SingleClusterExplanation e;
  e.cluster = 0;
  e.attribute = 0;
  e.inside = stats->cluster_histogram(0, 0);
  e.outside = stats->cluster_histogram(1, 0);
  const std::string text = DescribeExplanation(e, schema);
  EXPECT_NE(text.find("lab_proc"), std::string::npos);
  EXPECT_NE(text.find("higher values"), std::string::npos);
}

TEST(IntegrationTest, ExplanationSerializationRoundTripsThroughPipeline) {
  const Dataset dataset = MakeData(19, 4000);
  PipelineOptions options;
  options.clustering.num_clusters = 3;
  const auto result = RunPipeline(dataset, options);
  ASSERT_TRUE(result.ok());
  const std::string json =
      ExplanationToJson(result->explanation, dataset.schema());
  const auto parsed = ExplanationFromJson(json, dataset.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->combination, result->explanation.combination);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(
        Histogram::L1Distance(parsed->per_cluster[c].inside,
                              result->explanation.per_cluster[c].inside),
        0.0);
  }
}

TEST(IntegrationTest, ProductAttributeFlowsThroughWholePipeline) {
  // Future-work §8: 2-D histograms via product domains. Plant an XOR
  // pattern only the product attribute can explain, run the full DPClustX
  // pipeline over the extended schema, and check the product wins.
  Schema schema({Attribute::WithAnonymousDomain("x", 2),
                 Attribute::WithAnonymousDomain("y", 2),
                 Attribute::WithAnonymousDomain("noise", 4)});
  Dataset dataset(schema);
  std::vector<ClusterId> labels;
  Rng rng(21);
  for (int i = 0; i < 8000; ++i) {
    const auto x = static_cast<ValueCode>(rng.UniformInt(2));
    const auto y = static_cast<ValueCode>(rng.UniformInt(2));
    dataset.AppendRowUnchecked(
        {x, y, static_cast<ValueCode>(rng.UniformInt(4))});
    labels.push_back(static_cast<ClusterId>(x ^ y));
  }
  const auto extended = WithProductAttribute(dataset, 0, 1);
  ASSERT_TRUE(extended.ok());
  DpClustXOptions options;
  options.epsilon_cand_set = 2.0;
  options.epsilon_top_comb = 2.0;
  options.num_candidates = 2;
  options.seed = 23;
  const auto explanation =
      ExplainDpClustXWithLabels(*extended, labels, 2, options);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  const auto product_attr = extended->schema().FindAttribute("xxy");
  ASSERT_TRUE(product_attr.ok());
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(explanation->combination[c], *product_attr)
        << "cluster " << c
        << " should be explained by the XOR product attribute";
  }
}

TEST(IntegrationTest, CloseDistributionsDescribedAsClose) {
  Schema schema({Attribute::WithAnonymousDomain("x", 3)});
  SingleClusterExplanation e;
  e.cluster = 1;
  e.attribute = 0;
  e.inside = Histogram({100.0, 100.0, 100.0});
  e.outside = Histogram({101.0, 99.0, 100.0});
  const std::string text = DescribeExplanation(e, schema);
  EXPECT_NE(text.find("close to"), std::string::npos);
}

}  // namespace
}  // namespace dpclustx
