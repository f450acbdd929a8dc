#include "core/pipeline.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace dpclustx {
namespace {

Dataset MakeData(uint64_t seed = 1) {
  synth::SyntheticConfig config;
  config.num_rows = 4000;
  config.num_attributes = 10;
  config.num_latent_groups = 3;
  config.max_domain = 6;
  config.signal_strength = 0.9;
  config.seed = seed;
  return std::move(*synth::Generate(config));
}

TEST(PipelineTest, RunsEveryMethodEndToEnd) {
  const Dataset dataset = MakeData();
  for (const ClusteringMethod method :
       {ClusteringMethod::kKMeans, ClusteringMethod::kDpKMeans,
        ClusteringMethod::kKModes, ClusteringMethod::kAgglomerative,
        ClusteringMethod::kGmm}) {
    PipelineOptions options;
    options.clustering.method = method;
    options.clustering.num_clusters = 3;
    const auto result = RunPipeline(dataset, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->explanation.combination.size(), 3u);
    EXPECT_EQ(result->labels.size(), dataset.num_rows());
    EXPECT_EQ(result->stats.num_clusters(), 3u);
    EXPECT_FALSE(result->clustering_name.empty());
  }
}

TEST(PipelineTest, ChargesClusteringAndExplanationToOneBudget) {
  const Dataset dataset = MakeData();
  PrivacyBudget budget(1.3);
  PipelineOptions options;
  options.clustering.method = ClusteringMethod::kDpKMeans;
  options.clustering.num_clusters = 3;
  options.clustering.epsilon = 1.0;
  const auto result = RunPipeline(dataset, options, &budget);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(budget.spent_epsilon(), 1.3, 1e-9);
}

TEST(PipelineTest, InsufficientBudgetFailsAtClustering) {
  const Dataset dataset = MakeData();
  PrivacyBudget budget(0.5);
  PipelineOptions options;
  options.clustering.method = ClusteringMethod::kDpKMeans;
  options.clustering.epsilon = 1.0;
  const auto result = RunPipeline(dataset, options, &budget);
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfBudget);
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.0);
}

TEST(PipelineTest, OptionsTheExplainerRefusesChargeNothing) {
  // The explanation options are checked before the fit, so a dp-k-means
  // run that could never explain does not spend the clustering budget.
  // That covers the options alone and their shape over the data's 10
  // attributes and the spec's 3 clusters.
  struct Row {
    const char* what;
    size_t num_candidates;
    size_t max_combinations;
  };
  const DpClustXOptions defaults;
  const std::vector<Row> rows = {
      {"no candidates", 0, defaults.max_combinations},
      {"k above the attribute count", 11, defaults.max_combinations},
      {"4^3 combinations above the limit", 4, 10},
  };
  const Dataset dataset = MakeData();
  for (const Row& row : rows) {
    PrivacyBudget budget(2.0);
    PipelineOptions options;
    options.clustering.method = ClusteringMethod::kDpKMeans;
    options.clustering.num_clusters = 3;
    options.clustering.epsilon = 1.0;
    options.explain.num_candidates = row.num_candidates;
    options.explain.max_combinations = row.max_combinations;
    const auto result = RunPipeline(dataset, options, &budget);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << row.what;
    EXPECT_EQ(budget.spent_epsilon(), 0.0) << row.what;
  }
}

TEST(PipelineTest, StatsUsableForEvaluation) {
  const Dataset dataset = MakeData();
  PipelineOptions options;
  options.clustering.num_clusters = 3;
  const auto result = RunPipeline(dataset, options);
  ASSERT_TRUE(result.ok());
  GlobalWeights lambda;
  const double quality = eval::SensitiveQuality(
      result->stats, result->explanation.combination, lambda);
  EXPECT_GT(quality, 0.0);
  EXPECT_LE(quality, 1.0);
}

TEST(PipelineTest, DeterministicGivenSeeds) {
  const Dataset dataset = MakeData();
  PipelineOptions options;
  options.clustering.num_clusters = 3;
  options.clustering.seed = 9;
  options.explain.seed = 11;
  const auto a = RunPipeline(dataset, options);
  const auto b = RunPipeline(dataset, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->explanation.combination, b->explanation.combination);
  EXPECT_EQ(a->labels, b->labels);
}

/// Runs `args` to completion with stdin/stdout/stderr on /dev/null and
/// returns its waitpid status.
int RunToExit(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_RDWR);
    for (const int fd : {STDIN_FILENO, STDOUT_FILENO, STDERR_FILENO}) {
      ::dup2(null_fd, fd);
    }
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = -1;
  ::waitpid(pid, &status, 0);
  return status;
}

TEST(CliTest, OutputJsonEqualsRunPipeline) {
  // dpclustx_cli is a RunPipeline front end: for every method, the payload
  // it writes is the library's explanation of the same data and seeds.
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(n, 0);
  exe[n] = '\0';
  std::string build(exe);                      // .../build/tests/pipeline_test
  build = build.substr(0, build.rfind('/'));   // .../build/tests
  build = build.substr(0, build.rfind('/'));   // .../build
  const std::string cli = build + "/tools/dpclustx_cli";

  StatusOr<synth::SyntheticConfig> config = synth::PresetByName("diabetes");
  ASSERT_TRUE(config.ok()) << config.status();
  config->num_rows = 2000;
  const StatusOr<Dataset> dataset = synth::Generate(*config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();

  for (const std::string method :
       {"k-means", "dp-k-means", "k-modes", "agglomerative", "gmm"}) {
    const std::string path = ::testing::TempDir() + "/cli_" + method + "_" +
                             std::to_string(::getpid()) + ".json";
    const int status = RunToExit(
        {cli, "--synthetic", "diabetes", "--rows", "2000", "--clusters", "3",
         "--seed", "5", "--quiet", "--method", method, "--output-json",
         path});
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << method << ": status " << status;
    std::ifstream in(path, std::ios::binary);
    std::stringstream written;
    written << in.rdbuf();
    ::unlink(path.c_str());

    PipelineOptions options;
    options.clustering.method = ParseClusteringMethod(method).value();
    options.clustering.num_clusters = 3;
    options.clustering.seed = 5;
    options.explain.seed = 5;
    const StatusOr<PipelineResult> result = RunPipeline(*dataset, options);
    ASSERT_TRUE(result.ok()) << method << ": " << result.status();
    EXPECT_EQ(written.str(),
              ExplanationToJson(result->explanation, dataset->schema()) + "\n")
        << method;
  }
}

}  // namespace
}  // namespace dpclustx
