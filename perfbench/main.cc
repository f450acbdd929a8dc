// perfbench_runner — one benchmark run of one workload.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --router BIN --serve BIN --state-dir DIR
//                    --trace-out FILE
//
// perfbench/run.py builds the binaries and supplies the paths. The last
// line of stdout is the result object; the line before it carries the
// run's provenance and diagnostics. A failed correctness gate prints the
// result with "correct": false and exits 1; any other failure exits
// non-zero without a result line.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "bench.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::string CommandOutput(const std::string& command) {
  std::string out;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

JsonValue Provenance(const RunConfig& config) {
  JsonValue p = JsonValue::Object();
  // The worker binary's own stamp: sha, compiler, build type, ISA levels.
  p.Set("serve_version",
        JsonValue::String(CommandOutput("'" + config.serve_bin +
                                        "' --version")));
  p.Set("nproc", JsonValue::Number(
                     static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN))));
  for (const char* var : {"DPCLUSTX_THREADS", "DPCLUSTX_ISA"}) {
    const char* value = std::getenv(var);
    p.Set(var, value != nullptr ? JsonValue::String(value) : JsonValue::Null());
  }
  p.Set("workload", JsonValue::String(config.workload));
  p.Set("seed", JsonValue::Number(static_cast<double>(config.seed)));
  p.Set("seconds", JsonValue::Number(config.seconds));
  p.Set("trace", JsonValue::Bool(config.trace));
  return p;
}

JsonValue MetricsJson(const Metrics& metrics) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value.first)) Fail("metric " + name + " is not finite");
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue::Number(value.first));
    m.Set("unit", JsonValue::String(value.second));
    out.Set(name, std::move(m));
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 --router BIN --serve BIN --state-dir DIR "
               "--trace-out FILE\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--router") {
      config.router_bin = value;
    } else if (flag == "--serve") {
      config.serve_bin = value;
    } else if (flag == "--state-dir") {
      config.state_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || config.workload.empty() ||
      config.router_bin.empty() || config.serve_bin.empty() ||
      config.state_dir.empty() || config.trace_out.empty() ||
      !(config.seconds > 0.0)) {
    return Usage();
  }
  ::signal(SIGPIPE, SIG_IGN);

  StatusOr<Workload> workload = MakeWorkload(config.workload, config.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  std::filesystem::remove_all(config.state_dir);
  std::filesystem::create_directories(config.state_dir);

  RunReport report = RunEndToEnd(config, *workload, config.trace);
  if (config.trace) RunReplay(config, *workload, &report);
  std::filesystem::remove_all(config.state_dir);

  JsonValue details = report.details;
  details.Set("provenance", Provenance(config));
  JsonValue info = JsonValue::Object();
  info.Set("perfbench", std::move(details));
  std::printf("%s\n", info.Dump().c_str());

  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(report.correct));
  result.Set("attempted",
             JsonValue::Number(static_cast<double>(report.attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(report.failed)));
  result.Set("metrics",
             MetricsJson(config.trace ? report.layers : report.metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
