#include "core/pipeline.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
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

/// The build directory of this test binary (.../build/tests/pipeline_test).
std::string BuildDir() {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  EXPECT_GT(n, 0);
  exe[n] = '\0';
  std::string build(exe);
  build = build.substr(0, build.rfind('/'));  // .../build/tests
  return build.substr(0, build.rfind('/'));   // .../build
}

TEST(CliTest, OutputJsonEqualsRunPipeline) {
  // dpclustx_cli is a RunPipeline front end: for every method, the payload
  // it writes is the library's explanation of the same data and seeds.
  const std::string cli = BuildDir() + "/tools/dpclustx_cli";

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

/// Runs `program` with `script` on stdin and stderr on /dev/null; returns
/// its stdout and sets `*status` to its waitpid status.
std::string RunScript(const std::string& program, const std::string& script,
                      int* status) {
  const std::string base = ::testing::TempDir() + "/script_" +
                           std::to_string(::getpid());
  const std::string in_path = base + ".in";
  const std::string out_path = base + ".out";
  std::ofstream(in_path, std::ios::binary) << script;
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int in_fd = ::open(in_path.c_str(), O_RDONLY);
    const int out_fd =
        ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(in_fd, STDIN_FILENO);
    ::dup2(out_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    ::execl(program.c_str(), program.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::waitpid(pid, status, 0);
  std::ifstream in(out_path, std::ios::binary);
  std::stringstream out;
  out << in.rdbuf();
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  return out.str();
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ReplTest, ScriptedEmbeddedSessionChargesThenRefusesOverBudget) {
  // dpclustx_repl without --connect embeds its own engine. Noise seeds are
  // drawn server-side, so only the transcript's structure is pinned: every
  // command answers, the ledger holds one row per charge label, and a
  // spend past the budget is refused without moving the ledger.
  int status = -1;
  const std::string out = RunScript(BuildDir() + "/tools/dpclustx_repl",
                                    "load synthetic diabetes 2000\n"
                                    "budget 1.0\n"
                                    "cluster k-means 3\n"
                                    "explain 0.3\n"
                                    "hist diab_0 0.05\n"
                                    "ledger\n"
                                    "explain 0.9\n"
                                    "ledger\n"
                                    "quit\n",
                                    &status);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "status " << status << ", stdout: " << out;
  EXPECT_NE(out.find("loaded 2000 rows x "), std::string::npos) << out;
  EXPECT_NE(out.find("opened budget eps = 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("clustered with k-means"), std::string::npos) << out;
  // explain: one rendered histogram pair per cluster.
  EXPECT_EQ(Count(out, " inside cluster:\n"), 3u) << out;
  EXPECT_EQ(Count(out, " outside cluster:\n"), 3u) << out;
  // hist: per-cluster noisy bins.
  for (const std::string cluster : {"0", "1", "2"}) {
    EXPECT_NE(out.find("cluster " + cluster + ":\n  v0: "), std::string::npos)
        << out;
  }
  // The same ledger before and after the refused explain.
  EXPECT_EQ(Count(out, "session s1: spent 0.35 of 1 eps\n"), 2u) << out;
  EXPECT_EQ(Count(out, "  1 \u00d7 explain "), 2u) << out;
  EXPECT_EQ(Count(out, "  1 \u00d7 hist attr=diab_0"), 2u) << out;
  EXPECT_EQ(Count(out, "OutOfBudget: "), 1u) << out;
  EXPECT_NE(out.find("[eps 0.65 left] > "), std::string::npos) << out;
}

}  // namespace
}  // namespace dpclustx
