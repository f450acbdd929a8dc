#include "cluster/clustering.h"

#include <gtest/gtest.h>

#include "cluster/agglomerative.h"
#include "cluster/dp_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "data/synthetic.h"

namespace dpclustx {
namespace {

Schema MakeSchema() {
  return Schema({Attribute::WithAnonymousDomain("a", 5),
                 Attribute::WithAnonymousDomain("b", 2),
                 Attribute::WithAnonymousDomain("c", 1)});
}

TEST(EmbedTest, ScalesCodesIntoUnitInterval) {
  const std::vector<double> point = EmbedTuple(MakeSchema(), {4, 1, 0});
  ASSERT_EQ(point.size(), 3u);
  EXPECT_DOUBLE_EQ(point[0], 1.0);
  EXPECT_DOUBLE_EQ(point[1], 1.0);
  EXPECT_DOUBLE_EQ(point[2], 0.5);  // singleton domain maps to 0.5
  const std::vector<double> origin = EmbedTuple(MakeSchema(), {0, 0, 0});
  EXPECT_DOUBLE_EQ(origin[0], 0.0);
  EXPECT_DOUBLE_EQ(origin[1], 0.0);
}

TEST(EmbedTest, DatasetEmbeddingMatchesTupleEmbedding) {
  Dataset dataset(MakeSchema());
  dataset.AppendRowUnchecked({2, 1, 0});
  dataset.AppendRowUnchecked({4, 0, 0});
  const std::vector<double> points = EmbedDataset(dataset);
  for (size_t row = 0; row < 2; ++row) {
    const std::vector<double> expected =
        EmbedTuple(dataset.schema(), dataset.Row(row));
    for (size_t a = 0; a < 3; ++a) {
      EXPECT_DOUBLE_EQ(points[row * 3 + a], expected[a]);
    }
  }
}

TEST(CentroidClusteringTest, AssignsToNearestCenter) {
  const Schema schema = MakeSchema();
  CentroidClustering clustering(
      schema, {{0.0, 0.0, 0.5}, {1.0, 1.0, 0.5}}, "test");
  EXPECT_EQ(clustering.num_clusters(), 2u);
  EXPECT_EQ(clustering.Assign({0, 0, 0}), 0u);
  EXPECT_EQ(clustering.Assign({4, 1, 0}), 1u);
}

TEST(CentroidClusteringTest, TieBreaksTowardLowerLabel) {
  const Schema schema = MakeSchema();
  CentroidClustering clustering(
      schema, {{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, "test");
  EXPECT_EQ(clustering.Assign({2, 1, 0}), 0u);
}

TEST(CentroidClusteringTest, AssignAllMatchesAssign) {
  const Schema schema = MakeSchema();
  CentroidClustering clustering(
      schema, {{0.1, 0.2, 0.5}, {0.8, 0.9, 0.5}}, "test");
  Dataset dataset(schema);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    dataset.AppendRowUnchecked({static_cast<ValueCode>(rng.UniformInt(5)),
                                static_cast<ValueCode>(rng.UniformInt(2)),
                                0});
  }
  const std::vector<ClusterId> bulk = clustering.AssignAll(dataset);
  for (size_t row = 0; row < dataset.num_rows(); ++row) {
    EXPECT_EQ(bulk[row], clustering.Assign(dataset.Row(row)));
  }
}

TEST(ModeClusteringTest, AssignsByHammingDistance) {
  const Schema schema = MakeSchema();
  ModeClustering clustering(schema, {{0, 0, 0}, {4, 1, 0}}, "modes");
  EXPECT_EQ(clustering.Assign({0, 1, 0}), 0u);  // distance 1 vs 2
  EXPECT_EQ(clustering.Assign({4, 1, 0}), 1u);  // distance 3 vs 0
}

TEST(ClusterSizesTest, CountsLabels) {
  const std::vector<ClusterId> labels = {0, 2, 0, 2, 2};
  const std::vector<size_t> sizes = ClusterSizes(labels, 3);
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 0, 3}));
}

TEST(ClusterRowIndicesTest, GroupsRows) {
  const std::vector<ClusterId> labels = {1, 0, 1};
  const auto indices = ClusterRowIndices(labels, 2);
  EXPECT_EQ(indices[0], (std::vector<uint32_t>{1}));
  EXPECT_EQ(indices[1], (std::vector<uint32_t>{0, 2}));
}

TEST(ParseClusteringMethodTest, ParsesAllNames) {
  EXPECT_EQ(ParseClusteringMethod("k-means").value(),
            ClusteringMethod::kKMeans);
  EXPECT_EQ(ParseClusteringMethod("dp-k-means").value(),
            ClusteringMethod::kDpKMeans);
  EXPECT_EQ(ParseClusteringMethod("k-modes").value(),
            ClusteringMethod::kKModes);
  EXPECT_EQ(ParseClusteringMethod("agglomerative").value(),
            ClusteringMethod::kAgglomerative);
  EXPECT_EQ(ParseClusteringMethod("gmm").value(), ClusteringMethod::kGmm);
  // The one unknown-name error: InvalidArgument listing the five names.
  const StatusOr<ClusteringMethod> unknown = ParseClusteringMethod("dbscan");
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  for (const char* name :
       {"k-means", "dp-k-means", "k-modes", "agglomerative", "gmm"}) {
    EXPECT_NE(unknown.status().message().find(name), std::string::npos)
        << unknown.status();
  }
}

TEST(FitClusteringTest, LabelsMatchEachDirectFit) {
  const StatusOr<Dataset> dataset = synth::Generate(synth::DiabetesLike(600));
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  const auto labels = [&](ClusteringMethod method) {
    ClusteringSpec spec;
    spec.method = method;
    spec.num_clusters = 3;
    spec.seed = 7;
    spec.epsilon = 0.5;
    const auto clustering = FitClustering(*dataset, spec);
    EXPECT_TRUE(clustering.ok()) << clustering.status();
    return (*clustering)->AssignAll(*dataset);
  };
  const auto direct = [&](const auto& clustering) {
    EXPECT_TRUE(clustering.ok()) << clustering.status();
    return (*clustering)->AssignAll(*dataset);
  };

  KMeansOptions kmeans;
  kmeans.num_clusters = 3;
  kmeans.seed = 7;
  EXPECT_EQ(labels(ClusteringMethod::kKMeans),
            direct(FitKMeans(*dataset, kmeans)));
  DpKMeansOptions dp_kmeans;
  dp_kmeans.num_clusters = 3;
  dp_kmeans.seed = 7;
  dp_kmeans.epsilon = 0.5;
  EXPECT_EQ(labels(ClusteringMethod::kDpKMeans),
            direct(FitDpKMeans(*dataset, dp_kmeans)));
  KModesOptions kmodes;
  kmodes.num_clusters = 3;
  kmodes.seed = 7;
  EXPECT_EQ(labels(ClusteringMethod::kKModes),
            direct(FitKModes(*dataset, kmodes)));
  AgglomerativeOptions agglomerative;
  agglomerative.num_clusters = 3;
  agglomerative.seed = 7;
  EXPECT_EQ(labels(ClusteringMethod::kAgglomerative),
            direct(FitAgglomerative(*dataset, agglomerative)));
  GmmOptions gmm;
  gmm.num_components = 3;
  gmm.seed = 7;
  EXPECT_EQ(labels(ClusteringMethod::kGmm), direct(FitGmm(*dataset, gmm)));
}

TEST(FitClusteringTest, BudgetReachesDpKMeansOnly) {
  const StatusOr<Dataset> dataset = synth::Generate(synth::DiabetesLike(300));
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  for (const ClusteringMethod method :
       {ClusteringMethod::kKMeans, ClusteringMethod::kDpKMeans,
        ClusteringMethod::kKModes, ClusteringMethod::kAgglomerative,
        ClusteringMethod::kGmm}) {
    PrivacyBudget budget(2.0);
    ClusteringSpec spec;
    spec.method = method;
    spec.num_clusters = 2;
    spec.epsilon = 0.75;
    ASSERT_TRUE(FitClustering(*dataset, spec, &budget).ok());
    EXPECT_DOUBLE_EQ(budget.spent_epsilon(),
                     method == ClusteringMethod::kDpKMeans ? 0.75 : 0.0);
  }
}

}  // namespace
}  // namespace dpclustx
