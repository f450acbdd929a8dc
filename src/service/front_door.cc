#include "service/front_door.h"

#include <iostream>
#include <memory>
#include <mutex>

#include "service/service_engine.h"
#include "service/transport.h"

namespace dpclustx::service {
namespace {

constexpr const char kText[] = "text/plain; charset=utf-8";

std::mutex stdout_mutex;

void WriteStdout(const std::string& line) {
  std::lock_guard<std::mutex> lock(stdout_mutex);
  std::cout << line << "\n";
  std::cout.flush();
}

/// Runs on the event-loop thread: registry reads only, never a round trip.
HttpResponse Scrape(const FrontDoor& door, const std::string& path) {
  if (path == "/metrics") {
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            door.metrics->PrometheusText()};
  }
  if (path == "/healthz") return {200, kText, "ok\n"};  // the loop answered
  if (path == "/ready") {
    const Status ready = door.ready ? door.ready() : Status::OK();
    if (ready.ok()) return {200, kText, "ready\n"};
    return {503, kText, "not ready: " + ready.message() + "\n"};
  }
  return {404, kText, "not found (try /metrics, /healthz, /ready)\n"};
}

void Dispatch(const FrontDoor& door, const std::string& line,
              const std::function<void(std::string)>& reply) {
  const Status submitted = door.handle(line, reply);
  if (!submitted.ok()) {
    reply(ServiceEngine::RejectionResponse(line, submitted,
                                           door.retry_after_ms));
  }
}

}  // namespace

Status ServeFrontDoor(const FrontDoor& door,
                      const std::vector<std::string>& listen_specs) {
  std::unique_ptr<Transport> transport;
  if (!listen_specs.empty()) {
    transport = std::make_unique<Transport>();
    for (const std::string& spec : listen_specs) {
      DPX_RETURN_IF_ERROR(transport->Listen(spec));
    }
    transport->SetHttpHandler(
        [&door](const std::string& path) { return Scrape(door, path); });
    Transport* t = transport.get();
    // Frames arrive on the event-loop thread: shed or hand off, quickly.
    DPX_RETURN_IF_ERROR(t->Start([&door, t](ConnId conn, std::string&& line) {
      // A client whose response backlog passed the hard cap gets a
      // back-off hint instead of more queued work (reads already paused
      // at the soft limit; reaching the hard one means responses pile up
      // faster than the client drains them).
      if (t->QueuedBytes(conn) > t->options().write_hard_limit_bytes) {
        if (door.shed != nullptr) door.shed->Increment();
        t->Send(conn, ServiceEngine::RejectionResponse(
                          line,
                          Status::ResourceExhausted(
                              "client response backlog exceeds the hard "
                              "write limit; drain responses before sending "
                              "more requests"),
                          door.retry_after_ms));
        return;
      }
      Dispatch(door, line,
               [t, conn](std::string response) { t->Send(conn, response); });
    }));
  }
  // stdin is the lifecycle handle even with sockets live: EOF here is the
  // shutdown signal (run under a supervisor, hold the pipe open).
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty()) Dispatch(door, line, WriteStdout);
  }
  // Drain first so in-flight socket responses still go out, then stop the
  // transport (late arrivals during the drain get shutdown rejections).
  if (door.drain) door.drain();
  if (transport != nullptr) transport->Stop();
  return Status::OK();
}

}  // namespace dpclustx::service
