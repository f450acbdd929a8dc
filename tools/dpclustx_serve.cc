// dpclustx_serve — JSON line-protocol explanation server on stdin/stdout
// and on every --listen socket (the front door it shares with
// dpclustx_router, src/service/front_door.h, which also answers HTTP GET
// /metrics, /healthz and /ready). One JSON request per line, one response
// per line; responses may arrive out of order, so clients pass an "id",
// echoed back verbatim. A full queue answers ResourceExhausted at once.
//
// Durability — restore from --snapshot plus --audit-journal replay, the
// base, periodic and final snapshots — is service::Worker
// (src/service/worker.h, DESIGN.md §11); this file is --help, --version
// and the front door. stdin is the lifecycle handle: on EOF the server
// drains, writes its final snapshot and exits 0. kUsage below is the flag
// reference (printed by --help and mirrored in README.md "Serving flags").

#include <cstring>
#include <iostream>
#include <memory>

#include "obs/build_info.h"
#include "obs/metrics.h"
#include "service/front_door.h"
#include "service/worker.h"
#include "snapshot/snapshot_io.h"

namespace {

// Keep README.md "Serving flags" in sync — this text IS the reference
// table.
constexpr const char kUsage[] =
    "usage: dpclustx_serve [flags]\n"
    "\n"
    "  --listen SPEC            also accept clients on unix:/path or\n"
    "                           tcp:[host:]port (repeatable); the same\n"
    "                           socket answers HTTP GET /metrics, /healthz,\n"
    "                           /ready\n"
    "  --threads N              worker threads (default 4)\n"
    "  --queue N                pending-request bound (default 256)\n"
    "  --cache N                release-cache entries (default 1024)\n"
    "  --deadline-ms N          default per-request deadline in ms, counted\n"
    "                           from enqueue; a request's own \"deadline_ms\"\n"
    "                           overrides it (default 0 = none)\n"
    "  --max-csv-bytes N        refuse load_dataset csv files larger than N\n"
    "                           bytes (default 0 = no limit; use\n"
    "                           dpclustx_convert for big files)\n"
    "  --sync                   serve each request on the reader thread, in\n"
    "                           order (deterministic scripted sessions)\n"
    "  --trace-all              trace every request into the trace ring\n"
    "  --snapshot FILE          durable state snapshot: restored at startup\n"
    "                           (written empty there when absent), saved\n"
    "                           every --snapshot-interval-ms and at shutdown\n"
    "  --snapshot-interval-ms N snapshot save period in ms (default 10000;\n"
    "                           0 = no periodic save)\n"
    "  --audit-journal FILE     append+flush every charge/denial to FILE\n"
    "                           before its response (crash-recovery WAL;\n"
    "                           needs --snapshot)\n"
    "  --read-only              replica mode: refuse charging/mutating ops;\n"
    "                           cache hits still serve\n"
    "  --version                print build provenance and exit\n"
    "  --help                   print this flag table and exit\n";

}  // namespace

int main(int argc, char** argv) {
  using dpclustx::service::Worker;
  dpclustx::service::WorkerOptions options;
  const int stop = dpclustx::service::ParseWorkerFlags(argc, argv, &options);
  if (stop < argc) {
    if (std::strcmp(argv[stop], "--version") == 0) {
      // The snapshot format rides along so operators (and the bench
      // snapshot scripts) can tell which format a binary writes without
      // inspecting a file.
      std::cout << dpclustx::obs::BuildInfoVersionLine() << ", snapshot-format v"
                << dpclustx::snapshot::kSnapshotFormatVersion << "\n";
      return 0;
    }
    if (std::strcmp(argv[stop], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    std::cerr << "unknown flag '" << argv[stop] << "'\n" << kUsage;
    return 2;
  }

  // One process, one scrape: the engine registers its instruments in the
  // process-global registry so GET /metrics exposes engine ops, transport
  // counters, and the ISA dispatch gauge in a single exposition.
  dpclustx::StatusOr<std::unique_ptr<Worker>> worker =
      Worker::Start(options, &dpclustx::obs::MetricsRegistry::Default());
  if (!worker.ok()) return 1;  // Start logged why
  const dpclustx::Status served =
      dpclustx::service::ServeFrontDoor((*worker)->Door(), options.listen);
  if (!served.ok()) {
    std::cerr << "cannot listen: " << served.ToString() << "\n";
    return 1;
  }
  return 0;
}
