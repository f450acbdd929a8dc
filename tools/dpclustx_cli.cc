// dpclustx — command-line front end for the DPClustX pipeline.
//
// Reads a CSV table (or synthesizes one), runs RunPipeline on it (cluster,
// then explain the clusters under differential privacy), prints the
// explanation, and optionally writes the JSON payload. Run with --help for
// usage.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/flags.h"
#include "core/pipeline.h"
#include "core/serialization.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "dp/privacy_budget.h"
#include "eval/metrics.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "service/transport.h"

namespace {

using namespace dpclustx;

constexpr char kUsage[] = R"(dpclustx — differentially private cluster explanations

USAGE
  dpclustx_cli [--input FILE.csv | --synthetic NAME] [OPTIONS]

DATA
  --input FILE        CSV file; the schema is inferred from the contents
                      (domains become data-dependent — prefer fixed schemas
                      for production releases)
  --synthetic NAME    built-in generator: diabetes | census | stackoverflow
  --rows N            rows for --synthetic (default 30000)

CLUSTERING
  --method NAME       k-means (default) | dp-k-means | k-modes |
                      agglomerative | gmm
  --clusters N        number of clusters (default 5)
  --epsilon-clust E   budget of dp-k-means (default 1.0)

EXPLANATION (DPClustX)
  --epsilon-candset E   Stage-1 budget (default 0.1)
  --epsilon-topcomb E   Stage-2 selection budget (default 0.1)
  --epsilon-hist E      histogram-release budget (default 0.1)
  --candidates K        Stage-1 candidate-set size (default 3)
  --stage1 NAME         topk (default) | svt
  --svt-threshold F     SVT score bar as a fraction of cluster size
                        (default 0.3)
  --lambda I,S,D        quality weights, comma separated (default
                        0.333,0.333,0.334)
  --hist-mechanism M    geometric (default) | laplace | hierarchical

SERVER
  --connect SPEC      client mode: forward JSON protocol lines from stdin
                      to a dpclustx_serve/dpclustx_router socket
                      (unix:/path or tcp:[host:]port) and print each
                      response line to stdout; exits non-zero if any
                      response is missing. All pipeline flags are ignored.
  --timeout-ms N      per-response wait in client mode (default 30000)

OUTPUT
  --output-json FILE  write the explanation JSON payload
  --report            print a per-cluster quality breakdown (computed from
                      EXACT counts — for evaluation on non-sensitive data)
  --seed N            clustering and mechanism seed (default 1)
  --trace             print a span-tree timing breakdown of the run to
                      stderr (clustering fit, labeling, stats build,
                      Stage-1, Stage-2; timings only, never data values)
  --quiet             suppress the rendered histograms
  --version           print build provenance and exit
  --help              this message
)";

struct CliOptions {
  std::string connect;
  size_t timeout_ms = 30000;
  std::string input;
  std::optional<synth::SyntheticConfig> synthetic;
  size_t rows = 30000;
  /// The clustering seed follows --seed, like the explanation's.
  PipelineOptions pipeline;
  std::string output_json;
  bool quiet = false;
  bool report = false;
  bool trace = false;
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T ValueOrFail(StatusOr<T> value) {
  if (!value.ok()) Fail(value.status().ToString());
  return std::move(*value);
}

/// ParseDoubleFlag for a privacy budget, which must also be non-zero.
bool ParseEpsilonFlag(int argc, char** argv, int* i, const char* name,
                      double* out) {
  if (!ParseDoubleFlag(argc, argv, i, name, out)) return false;
  if (*out == 0.0) {
    std::cerr << name << " needs a positive number, got '" << argv[*i]
              << "'\n";
    std::exit(2);
  }
  return true;
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  ClusteringSpec& clustering = options.pipeline.clustering;
  DpClustXOptions& explain = options.pipeline.explain;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    size_t seed = 0;
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (arg == "--version") {
      std::puts(obs::BuildInfoVersionLine().c_str());
      std::exit(0);
    } else if (ParseStringFlag(argc, argv, &i, "--connect", &options.connect) ||
               ParseSizeFlag(argc, argv, &i, "--timeout-ms",
                             &options.timeout_ms) ||
               ParseStringFlag(argc, argv, &i, "--input", &options.input) ||
               ParseSizeFlag(argc, argv, &i, "--rows", &options.rows) ||
               ParseSizeFlag(argc, argv, &i, "--clusters",
                             &clustering.num_clusters) ||
               ParseEpsilonFlag(argc, argv, &i, "--epsilon-clust",
                                &clustering.epsilon) ||
               ParseEpsilonFlag(argc, argv, &i, "--epsilon-candset",
                                &explain.epsilon_cand_set) ||
               ParseEpsilonFlag(argc, argv, &i, "--epsilon-topcomb",
                                &explain.epsilon_top_comb) ||
               ParseEpsilonFlag(argc, argv, &i, "--epsilon-hist",
                                &explain.epsilon_hist) ||
               ParseSizeFlag(argc, argv, &i, "--candidates",
                             &explain.num_candidates) ||
               ParseDoubleFlag(argc, argv, &i, "--svt-threshold",
                               &explain.svt_threshold_fraction) ||
               ParseStringFlag(argc, argv, &i, "--output-json",
                               &options.output_json)) {
      // The flag's value is already in its field.
    } else if (ParseSizeFlag(argc, argv, &i, "--seed", &seed)) {
      explain.seed = seed;
      clustering.seed = seed;
    } else if (ParseStringFlag(argc, argv, &i, "--synthetic", &value)) {
      options.synthetic = ValueOrFail(synth::PresetByName(value));
    } else if (ParseStringFlag(argc, argv, &i, "--method", &value)) {
      clustering.method = ValueOrFail(ParseClusteringMethod(value));
    } else if (ParseStringFlag(argc, argv, &i, "--stage1", &value)) {
      if (value == "topk") {
        explain.stage1 = Stage1Selector::kOneShotTopK;
      } else if (value == "svt") {
        explain.stage1 = Stage1Selector::kSvt;
      } else {
        Fail("unknown --stage1 '" + value + "'");
      }
    } else if (ParseStringFlag(argc, argv, &i, "--lambda", &value)) {
      double l_int = 0, l_suf = 0, l_div = 0;
      if (std::sscanf(value.c_str(), "%lf,%lf,%lf", &l_int, &l_suf,
                      &l_div) != 3) {
        Fail("--lambda expects I,S,D");
      }
      explain.lambda = {l_int, l_suf, l_div};
      if (const Status valid = explain.lambda.Validate(); !valid.ok()) {
        Fail("--lambda: " + valid.message());
      }
    } else if (ParseStringFlag(argc, argv, &i, "--hist-mechanism", &value)) {
      if (value == "geometric") {
        explain.histogram.noise = HistogramNoise::kGeometric;
      } else if (value == "laplace") {
        explain.histogram.noise = HistogramNoise::kLaplace;
      } else if (value == "hierarchical") {
        explain.histogram.noise = HistogramNoise::kHierarchical;
      } else {
        Fail("unknown --hist-mechanism '" + value + "'");
      }
    } else if (arg == "--report") {
      options.report = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      Fail("unknown flag '" + arg + "' (see --help)");
    }
  }
  if (options.connect.empty() &&
      options.input.empty() == !options.synthetic.has_value()) {
    Fail("exactly one of --input / --synthetic is required (see --help)");
  }
  return options;
}

/// Client mode: stdin protocol lines → server socket → stdout responses.
/// The protocol is pipelined (responses may be out of order), but every
/// request line produces exactly one response line, so matching counts is
/// enough to know the session completed.
int RunConnectMode(const CliOptions& options) {
  auto channel = service::ClientChannel::Connect(options.connect);
  if (!channel.ok()) Fail(channel.status().ToString());

  size_t sent = 0;
  size_t received = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const Status status = (*channel)->SendLine(line);
    if (!status.ok()) Fail(status.ToString());
    ++sent;
    // Drain whatever responses are already here so a long scripted session
    // never deadlocks both sides' write buffers.
    for (;;) {
      StatusOr<std::string> response = (*channel)->RecvLine(0);
      if (!response.ok()) break;
      std::cout << *response << "\n";
      ++received;
    }
  }
  while (received < sent) {
    StatusOr<std::string> response =
        (*channel)->RecvLine(static_cast<int>(options.timeout_ms));
    if (!response.ok()) {
      std::cout.flush();
      std::fprintf(stderr,
                   "error: %s after %zu/%zu responses\n",
                   response.status().ToString().c_str(), received, sent);
      return 1;
    }
    std::cout << *response << "\n";
    ++received;
  }
  std::cout.flush();
  std::fprintf(stderr, "%zu requests, %zu responses\n", sent, received);
  return 0;
}

Dataset LoadData(const CliOptions& options) {
  if (!options.input.empty()) return ValueOrFail(ReadCsv(options.input));
  synth::SyntheticConfig config = *options.synthetic;
  config.num_rows = options.rows;
  return ValueOrFail(synth::Generate(config));
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = ParseArgs(argc, argv);
  if (!options.connect.empty()) return RunConnectMode(options);
  const Dataset dataset = LoadData(options);
  std::fprintf(stderr, "loaded %zu rows x %zu attributes\n",
               dataset.num_rows(), dataset.num_attributes());

  const ClusteringSpec& clustering = options.pipeline.clustering;
  const DpClustXOptions& explain = options.pipeline.explain;
  PrivacyBudget budget(
      explain.epsilon_cand_set + explain.epsilon_top_comb +
      explain.epsilon_hist +
      (clustering.method == ClusteringMethod::kDpKMeans ? clustering.epsilon
                                                        : 0.0));

  obs::Trace trace("dpclustx_cli");
  const StatusOr<PipelineResult> result = [&] {
    // Spans record only when a trace is active on this thread; without
    // --trace the activation is a no-op and nothing is measured.
    obs::ScopedTraceActivation activate(options.trace ? &trace : nullptr);
    return RunPipeline(dataset, options.pipeline, &budget);
  }();
  trace.Finish();
  if (options.trace) std::cerr << obs::RenderTraceText(trace.root());
  if (!result.ok()) Fail(result.status().ToString());
  std::fprintf(stderr, "clustered with %s\n", result->clustering_name.c_str());

  if (!options.quiet) {
    std::cout << RenderGlobalExplanation(result->explanation,
                                         dataset.schema());
  }
  if (options.report) {
    std::cout << eval::QualityBreakdownReport(
        result->stats, result->explanation.combination, explain.lambda,
        dataset.schema());
  }
  std::cout << budget.Report();

  if (!options.output_json.empty()) {
    std::ofstream out(options.output_json, std::ios::binary);
    if (!out) Fail("cannot write '" + options.output_json + "'");
    out << ExplanationToJson(result->explanation, dataset.schema()) << '\n';
    std::fprintf(stderr, "wrote %s\n", options.output_json.c_str());
  }
  return 0;
}
