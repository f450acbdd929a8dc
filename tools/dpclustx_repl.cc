// dpclustx_repl — interactive analyst console, mirroring the DPClustX
// demonstration system: load data, cluster it, run budgeted EDA queries,
// and generate DP explanations, all against one privacy-budget accountant
// that refuses work once the budget is spent.
//
// The console is a thin translator in front of the service engine
// (src/service): every command becomes the same JSON request the line
// server (tools/dpclustx_serve) accepts, so the REPL, the server, and the
// bench exercise one orchestration/privacy code path.
//
// Commands (one per line; also accepted from a piped script):
//   load csv PATH            load a CSV table (schema inferred)
//   load synthetic NAME [N]  diabetes | census | stackoverflow, N rows
//   budget EPS               open a fresh session with total EPS
//   cluster METHOD K [EPS]   k-means | dp-k-means | k-modes |
//                            agglomerative | gmm; EPS for dp-k-means
//   explain [EPS]            run DPClustX (EPS split equally across the
//                            three stages; default 0.3)
//   hist ATTR [EPS]          noisy per-cluster histograms of ATTR
//                            (default EPS 0.02)
//   size CLUSTER [EPS]       noisy cluster size (default EPS 0.01)
//   ledger                   print the budget ledger, one row per label
//   schema                   list attributes
//   help / quit
//
// By default the console embeds its own service engine. With
// --connect unix:/path (or tcp:[host:]port) it instead speaks the same
// JSON protocol to a running dpclustx_serve or dpclustx_router socket, so
// an analyst console can sit on a shared, sharded deployment: one command
// in flight at a time, same transcript either way.

#include <iostream>
#include <sstream>
#include <string>

#include <cstring>
#include <memory>

#include "common/json.h"
#include "service/service_engine.h"
#include "service/transport.h"

namespace {

using dpclustx::JsonValue;
using dpclustx::Status;
using dpclustx::StatusOr;
using dpclustx::service::ClientChannel;
using dpclustx::service::ServiceEngine;

constexpr char kDataset[] = "repl";

class Repl {
 public:
  /// `connect` empty = embedded engine; otherwise a server socket spec.
  explicit Repl(const std::string& connect) {
    if (connect.empty()) {
      engine_ = std::make_unique<ServiceEngine>();
      return;
    }
    StatusOr<std::unique_ptr<ClientChannel>> channel =
        ClientChannel::Connect(connect);
    if (!channel.ok()) {
      std::cout << "cannot connect to '" << connect
                << "': " << channel.status().ToString() << "\n";
      std::exit(1);
    }
    channel_ = std::move(*channel);
    std::cout << "connected to " << connect << "\n";
  }

  void Run() {
    std::cout << "dpclustx interactive console — 'help' for commands\n";
    std::string line;
    while (Prompt(), std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
  }

 private:
  void Prompt() {
    if (!session_.empty()) {
      std::cout << "[eps " << remaining_ << " left] > ";
    } else {
      std::cout << "> ";
    }
    std::cout.flush();
  }

  // Returns false to exit the loop.
  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "load") {
      Load(in);
    } else if (command == "budget") {
      Budget(in);
    } else if (command == "cluster") {
      Cluster(in);
    } else if (command == "explain") {
      Explain(in);
    } else if (command == "hist") {
      Hist(in);
    } else if (command == "size") {
      Size(in);
    } else if (command == "ledger") {
      Ledger();
    } else if (command == "schema") {
      PrintSchema();
    } else {
      std::cout << "unknown command '" << command << "' — try 'help'\n";
    }
    return true;
  }

  void Help() {
    std::cout <<
        "  load csv PATH | load synthetic NAME [N]\n"
        "  budget EPS\n"
        "  cluster METHOD K [EPS]\n"
        "  explain [EPS]\n"
        "  hist ATTR [EPS]\n"
        "  size CLUSTER [EPS]\n"
        "  ledger | schema | quit\n";
  }

  /// Sends one request to the engine. Prints the error and returns nullopt
  /// on failure; otherwise returns the parsed response body and refreshes
  /// the remaining-budget display when the response reports it.
  /// One round-trip: embedded engine or server socket, same transcript.
  /// The console keeps a single request in flight, so a plain blocking
  /// receive is the whole client protocol.
  StatusOr<JsonValue> Exchange(const std::string& request_line) {
    if (channel_ == nullptr) return JsonValue::Parse(engine_->Handle(request_line));
    const Status sent = channel_->SendLine(request_line);
    if (!sent.ok()) return sent;
    StatusOr<std::string> response = channel_->RecvLine(kServerTimeoutMs);
    if (!response.ok()) return response.status();
    return JsonValue::Parse(*response);
  }

  StatusOr<JsonValue> Call(JsonValue request) {
    StatusOr<JsonValue> response = Exchange(request.Dump());
    if (!response.ok()) {
      std::cout << "request failed: " << response.status().ToString() << "\n";
      return response.status();
    }
    if (response.ok() && !response->at("ok").AsBool()) {
      const JsonValue& error = response->at("error");
      std::cout << error.at("code").AsString() << ": "
                << error.at("message").AsString() << "\n";
      return dpclustx::Status::Internal("request failed");
    }
    if (response.ok() && response->Has("epsilon_remaining")) {
      remaining_ = response->at("epsilon_remaining").AsNumber();
    }
    if (response.ok() && response->Has("remaining")) {
      remaining_ = response->at("remaining").AsNumber();
    }
    return response;
  }

  void Load(std::istringstream& in) {
    std::string kind, arg;
    in >> kind >> arg;
    if (arg.empty() || (kind != "csv" && kind != "synthetic")) {
      std::cout << "usage: load csv PATH | load synthetic NAME [N]\n";
      return;
    }
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("load_dataset"));
    request.Set("name", JsonValue::String(kDataset));
    request.Set("replace", JsonValue::Bool(true));
    if (kind == "csv") {
      request.Set("source", JsonValue::String("csv"));
      request.Set("path", JsonValue::String(arg));
    } else {
      size_t rows = 20000;
      in >> rows;
      request.Set("source", JsonValue::String("synthetic"));
      request.Set("generator", JsonValue::String(arg));
      request.Set("rows", JsonValue::Number(static_cast<double>(rows)));
    }
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    // A replaced dataset invalidates the open session and clustering (they
    // reference the detached entry).
    session_.clear();
    clustering_.clear();
    std::cout << "loaded " << response->at("rows").AsNumber() << " rows x "
              << response->at("attributes").AsNumber() << " attributes\n";
  }

  void Budget(std::istringstream& in) {
    double eps = 0.0;
    if (!(in >> eps) || eps <= 0.0) {
      std::cout << "usage: budget EPS (positive)\n";
      return;
    }
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("create_session"));
    request.Set("session", JsonValue::String("s" + std::to_string(++serial_)));
    request.Set("dataset", JsonValue::String(kDataset));
    request.Set("epsilon", JsonValue::Number(eps));
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    session_ = response->at("session").AsString();
    remaining_ = eps;
    std::cout << "opened budget eps = " << eps << "\n";
  }

  bool RequireSession() {
    if (session_.empty()) std::cout << "no budget open — use 'budget EPS'\n";
    return !session_.empty();
  }
  bool RequireClustering() {
    if (clustering_.empty()) std::cout << "no clustering — use 'cluster'\n";
    return !clustering_.empty();
  }

  void Cluster(std::istringstream& in) {
    if (!RequireSession()) return;
    std::string method;
    size_t k = 0;
    in >> method >> k;
    if (method.empty() || k == 0) {
      std::cout << "usage: cluster METHOD K [EPS]\n";
      return;
    }
    double eps = 1.0;
    in >> eps;
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("cluster"));
    request.Set("dataset", JsonValue::String(kDataset));
    request.Set("clustering",
                JsonValue::String("c" + std::to_string(++serial_)));
    request.Set("method", JsonValue::String(method));
    request.Set("k", JsonValue::Number(static_cast<double>(k)));
    request.Set("seed", JsonValue::Number(static_cast<double>(seed_++)));
    request.Set("epsilon", JsonValue::Number(eps));
    request.Set("session", JsonValue::String(session_));
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    clustering_ = response->at("clustering").AsString();
    std::cout << "clustered with " << response->at("method").AsString()
              << " (" << response->at("num_clusters").AsNumber()
              << " clusters; sizes are private — use 'size C')\n";
  }

  void Explain(std::istringstream& in) {
    if (!RequireSession() || !RequireClustering()) return;
    double eps = 0.3;
    in >> eps;
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("explain"));
    request.Set("session", JsonValue::String(session_));
    request.Set("clustering", JsonValue::String(clustering_));
    request.Set("epsilon", JsonValue::Number(eps));
    // No seed: noise seeds are server-drawn (a repeated identical explain
    // re-serves the already-paid-for release from the cache at zero ε).
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    std::cout << response->at("text").AsString();
  }

  void Hist(std::istringstream& in) {
    if (!RequireSession() || !RequireClustering()) return;
    std::string attr_name;
    double eps = 0.02;
    in >> attr_name >> eps;
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("hist"));
    request.Set("session", JsonValue::String(session_));
    request.Set("clustering", JsonValue::String(clustering_));
    request.Set("attribute", JsonValue::String(attr_name));
    request.Set("epsilon", JsonValue::Number(eps));
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    const JsonValue& clusters = response->at("clusters");
    for (size_t c = 0; c < clusters.size(); ++c) {
      const JsonValue& entry = clusters.at(c);
      std::cout << "cluster " << entry.at("cluster").AsNumber() << ":\n";
      const JsonValue& bins = entry.at("bins");
      for (size_t b = 0; b < bins.size(); ++b) {
        std::cout << "  " << bins.at(b).at("value").AsString() << ": "
                  << bins.at(b).at("count").AsNumber() << "\n";
      }
    }
  }

  void Size(std::istringstream& in) {
    if (!RequireSession() || !RequireClustering()) return;
    uint32_t cluster = 0;
    double eps = 0.01;
    in >> cluster >> eps;
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("size"));
    request.Set("session", JsonValue::String(session_));
    request.Set("clustering", JsonValue::String(clustering_));
    request.Set("cluster", JsonValue::Number(static_cast<double>(cluster)));
    request.Set("epsilon", JsonValue::Number(eps));
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    std::cout << "noisy size of cluster " << cluster << ": "
              << response->at("noisy_size").AsNumber() << "\n";
  }

  void Ledger() {
    if (!RequireSession()) return;
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("budget"));
    request.Set("session", JsonValue::String(session_));
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    std::cout << "session " << session_ << ": spent "
              << response->at("spent").AsNumber() << " of "
              << response->at("total").AsNumber() << " eps\n";
    // One row per charge label: "count × label: epsilon".
    const JsonValue& ledger = response->at("ledger");
    for (size_t i = 0; i < ledger.size(); ++i) {
      const JsonValue& row = ledger.at(i);
      std::cout << "  " << row.at("count").AsNumber() << " \u00d7 "
                << row.at("label").AsString() << ": "
                << row.at("epsilon").AsNumber() << "\n";
    }
  }

  void PrintSchema() {
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue::String("schema"));
    request.Set("dataset", JsonValue::String(kDataset));
    StatusOr<JsonValue> response = Call(std::move(request));
    if (!response.ok()) return;
    const JsonValue& attributes = response->at("attributes");
    for (size_t a = 0; a < attributes.size(); ++a) {
      std::cout << "  " << attributes.at(a).at("name").AsString() << " ("
                << attributes.at(a).at("values").size() << " values)\n";
    }
  }

  static constexpr int kServerTimeoutMs = 30000;

  std::unique_ptr<ServiceEngine> engine_;   // embedded mode
  std::unique_ptr<ClientChannel> channel_;  // --connect mode
  std::string session_;     // active session id ("" until 'budget')
  std::string clustering_;  // active clustering id ("" until 'cluster')
  double remaining_ = 0.0;
  uint64_t serial_ = 0;  // session / clustering id counter
  uint64_t seed_ = 1;    // clustering-fit seeds (not mechanism noise)
};

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
      continue;
    }
    std::cerr << "usage: dpclustx_repl [--connect unix:/path|tcp:[host:]port]\n";
    return 2;
  }
  Repl repl(connect);
  repl.Run();
  return 0;
}
