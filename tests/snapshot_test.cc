// Crash-recovery tests for the durable snapshot/restore path (src/snapshot +
// ServiceEngine::SaveSnapshotToFile / RestoreFromFiles / EnableAuditJournal)
// and for the worker lifecycle that runs it (service/worker.h).
//
// The invariant under test is exactly-once ε accounting across a SIGKILL:
// a charge that reached the audit journal is restored bit-for-bit (same
// doubles, same order → same floating-point sums), a charge that didn't
// reach it never produced a response, and every refusal path (corrupt
// snapshot, truncated snapshot, newer format, journal gap, snapshot-less
// journal) refuses loudly instead of rebuilding wrong ledgers.

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "data/columnar_format.h"
#include "data/dataset.h"
#include "dp/privacy_budget.h"
#include "gtest/gtest.h"
#include "service/service_engine.h"
#include "service/worker.h"
#include "snapshot/audit_journal.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_io.h"

namespace dpclustx::service {
namespace {

JsonValue Parse(const std::string& text) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " in: " << text;
  return std::move(*parsed);
}

JsonValue Call(ServiceEngine& engine, const std::string& request) {
  return Parse(engine.Handle(request));
}

void ExpectOk(const JsonValue& response) {
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  EXPECT_TRUE(response.at("ok").AsBool()) << response.Dump();
}

void ExpectError(const JsonValue& response, const std::string& code) {
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  ASSERT_FALSE(response.at("ok").AsBool()) << response.Dump();
  EXPECT_EQ(response.at("error").at("code").AsString(), code)
      << response.Dump();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Loads the diabetes synthetic set (cap 5.0), clusters it, and opens a
/// session "alice" with ε = 2.0.
void SetUpServing(ServiceEngine& engine) {
  ExpectOk(Call(engine,
                R"({"op":"load_dataset","name":"d","source":"synthetic",)"
                R"("generator":"diabetes","rows":400,"seed":7,)"
                R"("cap_epsilon":5.0})"));
  ExpectOk(Call(engine,
                R"({"op":"cluster","dataset":"d","method":"k-means","k":3,)"
                R"("seed":3})"));
  ExpectOk(Call(engine,
                R"({"op":"create_session","dataset":"d","session":"alice",)"
                R"("epsilon":2.0})"));
}

/// One hist release; 0.1 is inexact in binary, so repeated additions
/// exercise the bit-for-bit replay guarantee rather than hiding behind
/// round numbers.
JsonValue Hist(ServiceEngine& engine, const std::string& attr,
               double epsilon = 0.1) {
  std::ostringstream request;
  request << R"({"op":"hist","session":"alice","attribute":")" << attr
          << R"(","epsilon":)" << epsilon << "}";
  return Call(engine, request.str());
}

double SessionSpent(ServiceEngine& engine, const std::string& id) {
  StatusOr<std::shared_ptr<ServiceSession>> session =
      engine.sessions().Get(id);
  EXPECT_TRUE(session.ok()) << session.status();
  return (*session)->budget().spent_epsilon();
}

double CapSpent(ServiceEngine& engine, const std::string& dataset) {
  StatusOr<std::shared_ptr<DatasetEntry>> entry =
      engine.registry().Get(dataset);
  EXPECT_TRUE(entry.ok()) << entry.status();
  EXPECT_NE((*entry)->cap(), nullptr);
  return (*entry)->cap()->spent_epsilon();
}

PrivacyBudget::State SessionLedger(ServiceEngine& engine,
                                   const std::string& id) {
  StatusOr<std::shared_ptr<ServiceSession>> session =
      engine.sessions().Get(id);
  EXPECT_TRUE(session.ok()) << session.status();
  return (*session)->budget().state();
}

PrivacyBudget::State CapLedger(ServiceEngine& engine,
                               const std::string& dataset) {
  StatusOr<std::shared_ptr<DatasetEntry>> entry =
      engine.registry().Get(dataset);
  EXPECT_TRUE(entry.ok()) << entry.status();
  EXPECT_NE((*entry)->cap(), nullptr);
  return (*entry)->cap()->state();
}

/// Exact equality: the same spent bits and the same rows in the same order.
bool SameLedger(const PrivacyBudget::State& a, const PrivacyBudget::State& b) {
  if (a.spent != b.spent || a.totals.size() != b.totals.size()) return false;
  for (size_t i = 0; i < a.totals.size(); ++i) {
    if (a.totals[i].label != b.totals[i].label ||
        a.totals[i].count != b.totals[i].count ||
        a.totals[i].epsilon != b.totals[i].epsilon) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<ServiceSession> SessionOf(ServiceEngine& engine,
                                          const std::string& id) {
  StatusOr<std::shared_ptr<ServiceSession>> session =
      engine.sessions().Get(id);
  EXPECT_TRUE(session.ok()) << session.status();
  return *session;
}

std::string ReadBytes(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

/// Runs `body` in a forked child and expects it to finish with no test
/// failure, so a limit set in `body` (a file size cap, a dropped uid) never
/// reaches the rest of the suite.
void ExpectPassesInChild(const std::function<void()>& body) {
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid == 0) {
    body();
    std::fflush(stdout);
    ::_exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  int status = -1;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the child failed (wait status " << status << "); see above";
}

/// Caps every file this process writes at `bytes` (RLIM_INFINITY lifts the
/// cap): a write past it fails with EFBIG, since SIGXFSZ is ignored.
void LimitFileSize(rlim_t bytes) {
  std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit limit;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &limit), 0);
  limit.rlim_cur = std::min(bytes, limit.rlim_max);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limit), 0);
}

/// The names in `dir`, "." and ".." aside.
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  while (d != nullptr) {
    const dirent* entry = ::readdir(d);
    if (entry == nullptr) break;
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  if (d != nullptr) ::closedir(d);
  return names;
}

/// True when a refused restore left `engine` exactly as empty as it was.
bool NothingApplied(ServiceEngine& engine) {
  return engine.registry().size() == 0 && engine.sessions().size() == 0 &&
         engine.cache().size() == 0 && engine.audit_log().next_seq() == 1;
}

TEST(SnapshotTest, RoundTripRestoresEverythingBitForBit) {
  const std::string snap = TempPath("roundtrip.snap");
  std::remove(snap.c_str());

  ServiceEngine saved;
  SetUpServing(saved);
  // Awkward doubles on purpose: the restored ledger must reproduce the
  // exact floating-point sum, not an approximation of it.
  ExpectOk(Hist(saved, "diab_3", 0.1));
  ExpectOk(Hist(saved, "diab_5", 0.07));
  ExpectOk(Hist(saved, "diab_7", 0.3));
  const double spent = SessionSpent(saved, "alice");
  const double cap_spent = CapSpent(saved, "d");
  const PrivacyBudget::State ledger = SessionLedger(saved, "alice");
  const PrivacyBudget::State cap_ledger = CapLedger(saved, "d");
  ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());

  ServiceEngine restored;
  StatusOr<ServiceEngine::RestoreReport> report =
      restored.RestoreFromFiles(snap, "");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->format_version, dpclustx::snapshot::kSnapshotFormatVersion);
  EXPECT_EQ(report->datasets, 1u);
  EXPECT_EQ(report->sessions, 1u);
  EXPECT_EQ(report->cache_entries, 3u);
  EXPECT_EQ(report->replayed_records, 0u);

  // Ledger equality is EXACT double equality, row by row.
  EXPECT_EQ(SessionSpent(restored, "alice"), spent);
  EXPECT_EQ(CapSpent(restored, "d"), cap_spent);
  EXPECT_EQ(ledger.totals.size(), 3u);
  EXPECT_TRUE(SameLedger(SessionLedger(restored, "alice"), ledger));
  EXPECT_TRUE(SameLedger(CapLedger(restored, "d"), cap_ledger));
  // Audit totals were restored and still match the ledger exactly.
  EXPECT_EQ(restored.audit_log().TenantTotals("alice").epsilon_charged, spent);
  EXPECT_EQ(restored.audit_log().next_seq(), saved.audit_log().next_seq());

  // A repeat of a paid-for release is a cache hit: zero additional ε.
  const JsonValue repeat = Hist(restored, "diab_3", 0.1);
  ExpectOk(repeat);
  EXPECT_TRUE(repeat.at("cache_hit").AsBool());
  EXPECT_EQ(repeat.at("epsilon_charged").AsNumber(), 0.0);
  EXPECT_EQ(SessionSpent(restored, "alice"), spent);
}

TEST(SnapshotTest, KillBetweenChargeAndResponseReplaysExactlyOnce) {
  const std::string snap = TempPath("kill.snap");
  const std::string journal = TempPath("kill.journal");
  std::remove(snap.c_str());
  std::remove(journal.c_str());

  // The "worker": journaling enabled, snapshot saved BEFORE the fatal
  // charge. The fault injector fails the request after the handler ran —
  // the ε was charged and journaled, but no successful response ever left
  // the engine. On-disk state is now exactly what a SIGKILL between charge
  // and response leaves behind.
  double spent_before_kill = 0.0;
  double cap_before_kill = 0.0;
  {
    ServiceEngineOptions options;
    options.fault_injector = [](const FaultPoint& point) {
      if (point.point == "hist:finish" && point.request->Has("lethal")) {
        return Status::Internal("simulated crash before response");
      }
      return Status::OK();
    };
    ServiceEngine worker(options);
    ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
    SetUpServing(worker);
    ExpectOk(Hist(worker, "diab_3", 0.1));
    ASSERT_TRUE(worker.SaveSnapshotToFile(snap).ok());

    ExpectError(Call(worker,
                     R"({"op":"hist","session":"alice","attribute":"diab_5",)"
                     R"("epsilon":0.07,"lethal":true})"),
                "Internal");
    spent_before_kill = SessionSpent(worker, "alice");
    cap_before_kill = CapSpent(worker, "d");
    // The charge stuck even though the response was lost.
    EXPECT_EQ(spent_before_kill, 0.1 + 0.07);
  }

  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(snap, journal);
  ASSERT_TRUE(report.ok()) << report.status();
  // The snapshot held the first charge; only the post-cursor one replays.
  EXPECT_EQ(report->replayed_records, 1u);
  EXPECT_TRUE(report->unrecovered_sessions.empty());

  // Exactly-once: the replayed ledger equals the pre-kill ledger to the
  // bit, on the session, the dataset cap, and the audit totals.
  EXPECT_EQ(SessionSpent(recovered, "alice"), spent_before_kill);
  EXPECT_EQ(CapSpent(recovered, "d"), cap_before_kill);
  EXPECT_EQ(recovered.audit_log().TenantTotals("alice").epsilon_charged,
            spent_before_kill);

  // Restoring the same files again into another engine gives the same
  // answer — replay is deterministic, not cumulative.
  ServiceEngine again;
  ASSERT_TRUE(again.RestoreFromFiles(snap, journal).ok());
  EXPECT_EQ(SessionSpent(again, "alice"), spent_before_kill);
}

TEST(SnapshotTest, SnapshotlessRecoveryWithJournalIsRefused) {
  const std::string journal = TempPath("orphan.journal");
  std::remove(journal.c_str());
  {
    ServiceEngine worker;
    ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
    SetUpServing(worker);
    ExpectOk(Hist(worker, "diab_3", 0.1));
  }

  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(TempPath("never-saved.snap"), journal);
  ASSERT_FALSE(report.ok());
  // A clear, actionable refusal — not NotFound (which means "fresh start").
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("snapshot-less"),
            std::string::npos)
      << report.status();
}

TEST(SnapshotTest, MissingSnapshotWithoutJournalIsNotFound) {
  ServiceEngine engine;
  StatusOr<ServiceEngine::RestoreReport> report =
      engine.RestoreFromFiles(TempPath("absent.snap"),
                              TempPath("absent.journal"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, CorruptedSnapshotIsRejected) {
  const std::string snap = TempPath("corrupt.snap");
  {
    ServiceEngine saved;
    SetUpServing(saved);
    ExpectOk(Hist(saved, "diab_3", 0.1));
    ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  }
  // Flip one byte in the middle of the file: some section's CRC now fails.
  {
    std::fstream file(snap, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    ASSERT_GT(size, 64);
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }
  ServiceEngine engine;
  StatusOr<ServiceEngine::RestoreReport> report =
      engine.RestoreFromFiles(snap, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError) << report.status();
  // Nothing was partially applied.
  EXPECT_EQ(engine.registry().size(), 0u);
}

TEST(SnapshotTest, TruncatedSnapshotIsRejected) {
  const std::string snap = TempPath("truncated.snap");
  {
    ServiceEngine saved;
    SetUpServing(saved);
    ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  }
  std::string bytes;
  {
    std::ifstream in(snap, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 32u);
  {
    std::ofstream out(snap, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  ServiceEngine engine;
  StatusOr<ServiceEngine::RestoreReport> report =
      engine.RestoreFromFiles(snap, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError) << report.status();
  EXPECT_EQ(engine.registry().size(), 0u);
}

TEST(SnapshotTest, NewerFormatVersionIsRefusedNotGuessed) {
  const std::string snap = TempPath("future.snap");
  {
    ServiceEngine saved;
    SetUpServing(saved);
    ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  }
  // Patch the u32 version field (right after the 8-byte magic) to a future
  // format. A reader must refuse what it cannot fully understand: guessing
  // at ledgers is how budgets get silently corrupted.
  {
    std::fstream file(snap, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    const uint32_t future = dpclustx::snapshot::kSnapshotFormatVersion + 7;
    char le[4] = {static_cast<char>(future & 0xFF),
                  static_cast<char>((future >> 8) & 0xFF),
                  static_cast<char>((future >> 16) & 0xFF),
                  static_cast<char>((future >> 24) & 0xFF)};
    file.seekp(sizeof(dpclustx::snapshot::kSnapshotMagic));
    file.write(le, 4);
  }
  ServiceEngine engine;
  StatusOr<ServiceEngine::RestoreReport> report =
      engine.RestoreFromFiles(snap, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status();
  EXPECT_NE(report.status().message().find("not supported"),
            std::string::npos)
      << report.status();
}

TEST(SnapshotTest, JournalGapIsRefused) {
  const std::string snap = TempPath("gap.snap");
  const std::string journal = TempPath("gap.journal");
  std::remove(snap.c_str());
  std::remove(journal.c_str());
  {
    ServiceEngine worker;
    ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
    SetUpServing(worker);
    ASSERT_TRUE(worker.SaveSnapshotToFile(snap).ok());  // cursor = 1
    ExpectOk(Hist(worker, "diab_3", 0.1));              // seq 1
    ExpectOk(Hist(worker, "diab_5", 0.1));              // seq 2
  }
  // Drop the journal's first line: recovery now sees seq 2 where it needs
  // seq 1 — records are missing, rebuilt ledgers would understate.
  {
    std::ifstream in(journal);
    std::string first, rest, line;
    std::getline(in, first);
    while (std::getline(in, line)) rest += line + "\n";
    in.close();
    std::ofstream out(journal, std::ios::trunc);
    out << rest;
  }
  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(snap, journal);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status();
  EXPECT_NE(report.status().message().find("gap"), std::string::npos)
      << report.status();
}

/// A refused restore leaves nothing behind: no dataset, no session (so no
/// budget to read), no audit record — the engine can still restore cleanly.
void ExpectEmptyEngine(ServiceEngine& engine) {
  ExpectError(Call(engine, R"({"op":"budget","session":"alice"})"),
              "NotFound");
  const JsonValue stats = Call(engine, R"({"op":"stats"})");
  ExpectOk(stats);
  EXPECT_EQ(stats.at("datasets").size(), 0u) << stats.Dump();
  EXPECT_EQ(stats.at("sessions").size(), 0u) << stats.Dump();
  EXPECT_EQ(engine.audit_log().next_seq(), 1u);
  EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(SnapshotTest, JournalMissingFirstPostCursorRecordLeavesEngineEmpty) {
  const std::string snap = TempPath("gap-first.snap");
  const std::string journal = TempPath("gap-first.journal");
  std::remove(snap.c_str());
  std::remove(journal.c_str());
  {
    ServiceEngine worker;
    ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
    SetUpServing(worker);
    ExpectOk(Hist(worker, "diab_3", 0.1));              // seq 1
    ASSERT_TRUE(worker.SaveSnapshotToFile(snap).ok());  // cursor = 2
    ExpectOk(Hist(worker, "diab_5", 0.1));              // seq 2
    ExpectOk(Hist(worker, "diab_3", 0.2));              // seq 3
  }
  // Drop seq 2, the first record after the cursor: the snapshot's session
  // would otherwise come back without it, with ε it already spent free.
  {
    std::ifstream in(journal);
    std::string line, kept;
    for (int i = 0; std::getline(in, line); ++i) {
      if (i != 1) kept += line + "\n";
    }
    in.close();
    std::ofstream out(journal, std::ios::trunc);
    out << kept;
  }
  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(snap, journal);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status();
  ExpectEmptyEngine(recovered);
}

// A cached payload is served on a hit without being parsed again, so a
// restore checks each one the way a fresh release is checked before it is
// cached. A payload that fails refuses the whole restore, before anything
// is registered.
TEST(SnapshotTest, CachePayloadThatIsNotAReleaseLeavesEngineEmpty) {
  const std::string good = TempPath("payload-good.snap");
  const std::string bad = TempPath("payload-bad.snap");
  {
    ServiceEngine worker;
    SetUpServing(worker);
    ExpectOk(Hist(worker, "diab_3", 0.1));
    ExpectOk(Hist(worker, "diab_5", 0.1));
    ASSERT_TRUE(worker.SaveSnapshotToFile(good).ok());
  }
  for (const std::string payload : {"not json", "[1,2]", R"({"a":1)"}) {
    StatusOr<snapshot::ServiceSnapshot> state =
        snapshot::LoadSnapshotFile(good);
    ASSERT_TRUE(state.ok()) << state.status();
    ASSERT_EQ(state->cache.size(), 2u);
    state->cache[1].payload = payload;
    // Written through the writer: the section CRCs are valid.
    ASSERT_TRUE(snapshot::SaveSnapshotFile(bad, *state).ok());

    ServiceEngine recovered;
    StatusOr<ServiceEngine::RestoreReport> report =
        recovered.RestoreFromFiles(bad, "");
    ASSERT_FALSE(report.ok()) << payload;
    EXPECT_EQ(report.status().code(), StatusCode::kIoError)
        << report.status();
    EXPECT_NE(report.status().message().find(state->cache[1].key),
              std::string::npos)
        << report.status();
    ExpectEmptyEngine(recovered);
  }
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(SnapshotTest, JournalChargeOverflowingASessionLeavesEngineEmpty) {
  const std::string snap = TempPath("overflow.snap");
  const std::string journal = TempPath("overflow.journal");
  std::remove(snap.c_str());
  std::remove(journal.c_str());
  {
    ServiceEngine worker;
    ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
    SetUpServing(worker);
    ExpectOk(Hist(worker, "diab_3", 0.1));              // seq 1
    ASSERT_TRUE(worker.SaveSnapshotToFile(snap).ok());  // cursor = 2
    ExpectOk(Hist(worker, "diab_5", 0.1));              // seq 2
  }
  // A forged seq 3 that charges alice past her 2.0 budget.
  {
    obs::AuditRecord record;
    record.seq = 3;
    record.tenant = "alice";
    record.dataset = "d";
    record.label = "hist attr=diab_3";
    record.epsilon = 1.95;
    record.granted = true;
    std::ofstream out(journal, std::ios::app);
    out << obs::RecordToJson(record).Dump() << "\n";
  }
  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(snap, journal);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status();
  EXPECT_NE(report.status().message().find("overflows"), std::string::npos)
      << report.status();
  ExpectEmptyEngine(recovered);
  // Nothing was half-applied: the snapshot alone still restores.
  ASSERT_TRUE(recovered.RestoreFromFiles(snap, "").ok());
  EXPECT_EQ(SessionSpent(recovered, "alice"), 0.1);
}

TEST(SnapshotTest, TornFinalJournalLineIsSkipped) {
  const std::string snap = TempPath("torn.snap");
  const std::string journal = TempPath("torn.journal");
  std::remove(snap.c_str());
  std::remove(journal.c_str());
  double spent_at_seq1 = 0.0;
  {
    ServiceEngine worker;
    ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
    SetUpServing(worker);
    ASSERT_TRUE(worker.SaveSnapshotToFile(snap).ok());
    ExpectOk(Hist(worker, "diab_3", 0.1));
    spent_at_seq1 = SessionSpent(worker, "alice");
    ExpectOk(Hist(worker, "diab_5", 0.1));
  }
  // A SIGKILL mid-append leaves a half-written final line. Its charge never
  // produced a response (the journal flush happens before the response), so
  // skipping it keeps accounting consistent with what any client observed.
  {
    std::ifstream in(journal);
    std::string first;
    std::getline(in, first);
    in.close();
    std::ofstream out(journal, std::ios::trunc);
    out << first << "\n" << R"({"dataset":"d","epsilon":0.1,"gra)";
  }
  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(snap, journal);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replayed_records, 1u);
  EXPECT_EQ(SessionSpent(recovered, "alice"), spent_at_seq1);

  // The next life's journal cuts the torn line before it appends, so its
  // first charge is a line of its own and the journal still restores.
  ASSERT_TRUE(recovered.EnableAuditJournal(journal).ok());
  ExpectOk(Hist(recovered, "diab_7", 0.2));
  ServiceEngine again;
  report = again.RestoreFromFiles(snap, journal);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replayed_records, 2u);
  EXPECT_EQ(SessionSpent(again, "alice"), SessionSpent(recovered, "alice"));
  std::remove(snap.c_str());
  std::remove(journal.c_str());
}

TEST(SnapshotTest, RestoreIntoNonEmptyEngineIsRefused) {
  const std::string snap = TempPath("nonempty.snap");
  {
    ServiceEngine saved;
    SetUpServing(saved);
    ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  }
  ServiceEngine busy;
  ExpectOk(Call(busy,
                R"({"op":"load_dataset","name":"other","source":"synthetic",)"
                R"("generator":"diabetes","rows":200})"));
  StatusOr<ServiceEngine::RestoreReport> report =
      busy.RestoreFromFiles(snap, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, UnrecoveredSessionChargesStillHitTheDatasetCap) {
  const std::string snap = TempPath("unrecovered.snap");
  const std::string journal = TempPath("unrecovered.journal");
  std::remove(snap.c_str());
  std::remove(journal.c_str());
  double cap_before_kill = 0.0;
  {
    ServiceEngine worker;
    ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
    SetUpServing(worker);
    ASSERT_TRUE(worker.SaveSnapshotToFile(snap).ok());
    // A session created AFTER the snapshot charges, then the worker dies:
    // its ledger cannot be rebuilt (session creation is not journaled), but
    // the dataset cap must still absorb the charge — the cap may overstate,
    // never understate.
    ExpectOk(Call(worker,
                  R"({"op":"create_session","dataset":"d","session":"bob",)"
                  R"("epsilon":1.0})"));
    ExpectOk(Call(worker,
                  R"({"op":"hist","session":"bob","attribute":"diab_3",)"
                  R"("epsilon":0.1})"));
    cap_before_kill = CapSpent(worker, "d");
  }
  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(snap, journal);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->unrecovered_sessions.size(), 1u);
  EXPECT_EQ(report->unrecovered_sessions[0], "bob");
  EXPECT_EQ(CapSpent(recovered, "d"), cap_before_kill);
  EXPECT_FALSE(recovered.sessions().Get("bob").ok());
}

TEST(SnapshotTest, ReadOnlyReplicaServesHitsAndRefusesCharges) {
  const std::string snap = TempPath("replica.snap");
  {
    ServiceEngine primary;
    SetUpServing(primary);
    ExpectOk(Hist(primary, "diab_3", 0.1));
    ASSERT_TRUE(primary.SaveSnapshotToFile(snap).ok());
  }
  ServiceEngineOptions options;
  options.read_only = true;
  ServiceEngine replica(options);
  ASSERT_TRUE(replica.RestoreFromFiles(snap, "").ok());

  // The paid-for release serves from the restored cache, free.
  const JsonValue hit = Hist(replica, "diab_3", 0.1);
  ExpectOk(hit);
  EXPECT_TRUE(hit.at("cache_hit").AsBool());
  EXPECT_EQ(hit.at("epsilon_charged").AsNumber(), 0.0);

  // Anything that would charge or mutate is refused, loudly.
  ExpectError(Hist(replica, "diab_11", 0.1), "FailedPrecondition");
  ExpectError(Call(replica,
                   R"({"op":"load_dataset","name":"x","source":"synthetic",)"
                   R"("generator":"diabetes","rows":100})"),
              "FailedPrecondition");
  ExpectError(Call(replica,
                   R"({"op":"create_session","dataset":"d","session":"eve",)"
                   R"("epsilon":1.0})"),
              "FailedPrecondition");
}

// ---------------------------------------------------------------------------
// Snapshot v2: mapped DPXCOL datasets are saved by reference, not inlined.
// ---------------------------------------------------------------------------

/// Writes a 3-attribute DPXCOL file with `rows` rows and append headroom.
std::string WriteColumnarFixture(const std::string& name, size_t rows) {
  Schema schema({Attribute("color", {"red", "green", "blue"}),
                 Attribute("size", {"s", "m", "l", "xl"}),
                 Attribute("grade", {"lo", "hi"})});
  Dataset dataset(schema);
  for (size_t r = 0; r < rows; ++r) {
    dataset.AppendRowUnchecked({static_cast<ValueCode>(r % 3),
                                static_cast<ValueCode>(r % 4),
                                static_cast<ValueCode>(r % 2)});
  }
  const std::string path = TempPath("snap_" + name + ".dpxcol");
  std::remove(path.c_str());
  ColumnarWriteOptions options;
  options.capacity_rows = rows + 64;
  Status written = WriteColumnarFile(dataset, path, options);
  EXPECT_TRUE(written.ok()) << written;
  return path;
}

/// Loads `path` as mapped dataset "m" (cap 5.0), clusters it, opens
/// session "alice" (ε = 2.0), and appends one row so the epoch is nonzero.
void SetUpColumnarServing(ServiceEngine& engine, const std::string& path) {
  ExpectOk(Call(engine,
                R"({"op":"load_dataset","name":"m","source":"dpxcol",)"
                R"("path":")" + path + R"(","cap_epsilon":5.0})"));
  ExpectOk(Call(engine,
                R"({"op":"cluster","dataset":"m","method":"k-modes","k":2,)"
                R"("seed":5})"));
  ExpectOk(Call(engine,
                R"({"op":"create_session","dataset":"m","session":"alice",)"
                R"("epsilon":2.0})"));
  ExpectOk(Call(engine, R"({"op":"append_rows","dataset":"m",)"
                        R"("rows":[["red","s","lo"]]})"));
}

TEST(SnapshotTest, ColumnarDatasetSavedByReferenceAndRestored) {
  const std::string snap = TempPath("columnar_ref.snap");
  std::remove(snap.c_str());
  const std::string path = WriteColumnarFixture("ref", 24);

  ServiceEngine saved;
  SetUpColumnarServing(saved, path);
  const JsonValue release = Parse(saved.Handle(
      R"({"op":"hist","session":"alice","attribute":"size","epsilon":0.1})"));
  ExpectOk(release);
  const auto saved_entry = saved.registry().Get("m");
  ASSERT_TRUE(saved_entry.ok());
  const uint64_t saved_epoch = (*saved_entry)->epoch();
  EXPECT_GE(saved_epoch, 1u);
  ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());

  // By reference: the snapshot must be far smaller than an inlined copy —
  // it records (path, file_uid, rows), not 25 rows of codes per column.
  // (Sanity: it is at least parseable and re-openable below.)
  ServiceEngine restored;
  StatusOr<ServiceEngine::RestoreReport> report =
      restored.RestoreFromFiles(snap, "");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->datasets, 1u);

  const auto entry = restored.registry().Get("m");
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_TRUE((*entry)->dataset()->is_mapped());
  EXPECT_EQ((*entry)->dataset()->num_rows(), 25u);
  // The epoch is pinned, not reset: cached releases from before the save
  // keep their keys, so the paid-for hist re-serves at zero ε.
  EXPECT_EQ((*entry)->epoch(), saved_epoch);
  const JsonValue repeat = Parse(restored.Handle(
      R"({"op":"hist","session":"alice","attribute":"size","epsilon":0.1})"));
  ExpectOk(repeat);
  EXPECT_TRUE(repeat.at("cache_hit").AsBool());
  EXPECT_EQ(repeat.at("epsilon_charged").AsNumber(), 0.0);

  std::remove(snap.c_str());
  std::remove(path.c_str());
}

TEST(SnapshotTest, ColumnarRestoreRefusesAReplacedFile) {
  const std::string snap = TempPath("columnar_swap.snap");
  std::remove(snap.c_str());
  const std::string path = WriteColumnarFixture("swap", 24);

  {
    ServiceEngine saved;
    SetUpColumnarServing(saved, path);
    ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  }

  // Same path, different file: a fresh DPXCOL gets a fresh file_uid, so
  // the snapshot's fingerprint no longer matches — restoring against it
  // would silently compute on the wrong rows.
  std::remove(path.c_str());
  const std::string replacement = WriteColumnarFixture("swap", 24);
  ASSERT_EQ(replacement, path);

  ServiceEngine restored;
  StatusOr<ServiceEngine::RestoreReport> report =
      restored.RestoreFromFiles(snap, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError)
      << report.status();

  std::remove(snap.c_str());
  std::remove(path.c_str());
}

TEST(SnapshotTest, ColumnarRestoreMapsExactlyTheSavedRowPrefix) {
  const std::string snap = TempPath("columnar_prefix.snap");
  std::remove(snap.c_str());
  const std::string path = WriteColumnarFixture("prefix", 24);

  {
    ServiceEngine saved;
    SetUpColumnarServing(saved, path);  // 24 + 1 appended = 25 rows saved
    ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
    // The file keeps growing after the save (a later epoch the snapshot
    // never saw).
    ExpectOk(Call(saved, R"({"op":"append_rows","dataset":"m",)"
                         R"("rows":[["blue","xl","hi"],["green","m","lo"]]})"));
  }
  {
    auto grown = MappedColumnar::Open(path);
    ASSERT_TRUE(grown.ok()) << grown.status();
    ASSERT_EQ((*grown)->num_rows(), 27u);
  }

  // Restore sees 27 committed rows on disk but maps only the 25 the
  // snapshot describes — the restored engine is the saved instant.
  ServiceEngine restored;
  StatusOr<ServiceEngine::RestoreReport> report =
      restored.RestoreFromFiles(snap, "");
  ASSERT_TRUE(report.ok()) << report.status();
  const auto entry = restored.registry().Get("m");
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE((*entry)->dataset()->is_mapped());
  EXPECT_EQ((*entry)->dataset()->num_rows(), 25u);

  std::remove(snap.c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Rows live only in DPXCOL files: a save writes each heap dataset once to a
// row file beside the snapshot, and the image names it by reference.
// ---------------------------------------------------------------------------

/// A fresh, empty directory under the test temp dir.
std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  ::mkdir(dir.c_str(), 0755);
  for (const std::string& entry : DirEntries(dir)) {
    std::remove((dir + "/" + entry).c_str());
  }
  return dir;
}

/// Removes `dir` and everything in it (one level).
void RemoveDir(const std::string& dir) {
  for (const std::string& entry : DirEntries(dir)) {
    std::remove((dir + "/" + entry).c_str());
  }
  ::rmdir(dir.c_str());
}

std::vector<std::string> Sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

/// The snapshot's own name plus the name of every file beside it that its
/// datasets reference, sorted: what a save leaves in its directory.
std::vector<std::string> SnapshotAndNamedFiles(const std::string& snap) {
  StatusOr<snapshot::ServiceSnapshot> state = snapshot::LoadSnapshotFile(snap);
  EXPECT_TRUE(state.ok()) << state.status();
  const std::string dir = snap.substr(0, snap.rfind('/') + 1);
  std::vector<std::string> names = {snap.substr(dir.size())};
  if (!state.ok()) return names;
  for (const snapshot::DatasetState& ds : state->datasets) {
    EXPECT_TRUE(ds.columns.empty()) << ds.name;
    EXPECT_FALSE(ds.columnar_path.empty()) << ds.name;
    if (ds.columnar_path.rfind(dir, 0) == 0) {
      names.push_back(ds.columnar_path.substr(dir.size()));
    }
  }
  return Sorted(names);
}

ServiceEngineOptions SeededNoise() {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  return options;
}

/// Seeded releases on session "alice" of SetUpServing's dataset "d":
/// explain and hist, each its own cache key.
std::vector<std::string> SeededReleases(double epsilon) {
  std::ostringstream eps;
  eps << epsilon;
  return {R"({"op":"explain","session":"alice","epsilon":)" + eps.str() +
              R"(,"seed":11})",
          R"({"op":"hist","session":"alice","attribute":"diab_2",)"
          R"("epsilon":)" + eps.str() + R"(,"seed":5})",
          R"({"op":"budget","session":"alice"})"};
}

std::vector<std::string> Replies(ServiceEngine& engine,
                                 const std::vector<std::string>& requests) {
  std::vector<std::string> replies;
  for (const std::string& request : requests) {
    replies.push_back(engine.Handle(request));
    ExpectOk(Parse(replies.back()));
  }
  return replies;
}

/// An append_rows request adding one row (each attribute's first label)
/// to dataset "d".
std::string AppendOneRow(const Schema& schema) {
  std::string row = "[";
  for (const Attribute& attr : schema.attributes()) {
    row += (row.size() > 1 ? ",\"" : "\"") + attr.label(0) + "\"";
  }
  return R"({"op":"append_rows","dataset":"d","rows":[)" + row + "]]}";
}

TEST(SnapshotTest, HeapDatasetIsSavedAsARowFileAndServedFromIt) {
  const std::string dir = FreshDir("row_file");
  const std::string snap = dir + "/state.snap";
  ServiceEngine engine(SeededNoise());
  SetUpServing(engine);
  Replies(engine, SeededReleases(0.1));
  const std::vector<std::string> hits = Replies(engine, SeededReleases(0.1));
  const std::shared_ptr<DatasetEntry> entry = *engine.registry().Get("d");
  const uint64_t epoch = entry->epoch();
  EXPECT_FALSE(entry->dataset()->is_mapped());
  ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());

  // The image names one row file beside it; the entry now maps that file
  // under the same uid, epoch and views, so repeats are the same hits.
  const std::vector<std::string> files = SnapshotAndNamedFiles(snap);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(Sorted(DirEntries(dir)), files);
  EXPECT_EQ(files[1].rfind("state.snap.", 0), 0u) << files[1];
  EXPECT_TRUE(entry->dataset()->is_mapped());
  EXPECT_EQ(entry->dataset()->mapped()->path(), dir + "/" + files[1]);
  EXPECT_EQ(entry->epoch(), epoch);
  EXPECT_EQ(Replies(engine, SeededReleases(0.1)), hits);

  // A second save writes no row file: the image and the directory stay.
  const std::string image = ReadBytes(snap);
  ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
  EXPECT_EQ(ReadBytes(snap), image);
  EXPECT_EQ(Sorted(DirEntries(dir)), files);

  // An append extends that file instead of copying the rows, and the next
  // image names the same file at the new row count.
  ExpectOk(Call(engine, AppendOneRow(entry->dataset()->schema())));
  EXPECT_TRUE(entry->dataset()->is_mapped());
  EXPECT_EQ(entry->dataset()->num_rows(), 401u);
  ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
  EXPECT_EQ(Sorted(DirEntries(dir)), files);
  StatusOr<snapshot::ServiceSnapshot> state = snapshot::LoadSnapshotFile(snap);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->datasets[0].columnar_rows, 401u);
  RemoveDir(dir);
}

TEST(SnapshotTest, AppendAfterASaveCommitsInPlace) {
  // A save's row file reserves headroom, so the first append after it
  // writes into the reserved space: same path, same file uid and the same
  // inode (a grow would rename a new one over the path).
  const std::string dir = FreshDir("row_file_headroom");
  const std::string snap = dir + "/state.snap";
  ServiceEngine engine;
  SetUpServing(engine);
  const std::shared_ptr<DatasetEntry> entry = *engine.registry().Get("d");
  ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
  ASSERT_TRUE(entry->dataset()->is_mapped());
  const std::shared_ptr<const MappedColumnar> saved =
      entry->dataset()->mapped();
  EXPECT_GT(saved->capacity_rows(), saved->num_rows());
  struct stat before {};
  ASSERT_EQ(::stat(saved->path().c_str(), &before), 0);

  ExpectOk(Call(engine, AppendOneRow(entry->dataset()->schema())));
  const std::shared_ptr<const MappedColumnar> appended =
      entry->dataset()->mapped();
  ASSERT_NE(appended, nullptr);
  EXPECT_EQ(appended->num_rows(), saved->num_rows() + 1);
  EXPECT_EQ(appended->path(), saved->path());
  EXPECT_EQ(appended->file_uid(), saved->file_uid());
  EXPECT_EQ(appended->capacity_rows(), saved->capacity_rows());
  struct stat after {};
  ASSERT_EQ(::stat(appended->path().c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(after.st_dev, before.st_dev);
  RemoveDir(dir);
}

TEST(SnapshotTest, SavesRacingAppendsKeepEveryNamedRowFile) {
  // Saves adopt the heap rows and clean up while appends copy them, then
  // grow the adopted file (renaming a new inode over its path): every
  // image a save leaves restores, and the directory holds exactly the
  // files the last one names.
  const std::string dir = FreshDir("racing_appends");
  const std::string snap = dir + "/state.snap";
  ServiceEngine engine;
  SetUpServing(engine);
  const std::shared_ptr<DatasetEntry> entry = *engine.registry().Get("d");
  const std::string append = AppendOneRow(entry->dataset()->schema());
  constexpr int kAppends = 60;
  std::thread appender([&] {
    for (int i = 0; i < kAppends; ++i) ExpectOk(Call(engine, append));
  });
  for (int save = 0; save < 12; ++save) {
    ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
    ServiceEngine restored;
    ASSERT_TRUE(restored.RestoreFromFiles(snap, "").ok()) << "save " << save;
  }
  appender.join();
  ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
  EXPECT_TRUE(entry->dataset()->is_mapped());
  EXPECT_EQ(Sorted(DirEntries(dir)), SnapshotAndNamedFiles(snap));
  ServiceEngine restored;
  ASSERT_TRUE(restored.RestoreFromFiles(snap, "").ok());
  EXPECT_EQ((*restored.registry().Get("d"))->dataset()->num_rows(),
            400u + kAppends);
  RemoveDir(dir);
}

TEST(SnapshotTest, SnapshotSizeDoesNotGrowWithRowCount) {
  // Without a clustering (whose labels are one u32 per row) the image is
  // ledgers, caches and file references: 1k and 50k rows save the same
  // image but for the digits of the source string and the file names.
  const std::string dir = FreshDir("size_by_rows");
  std::vector<size_t> sizes;
  for (const size_t rows : {1000, 50000}) {
    const std::string snap = dir + "/rows" + std::to_string(rows) + ".snap";
    ServiceEngine engine;
    ExpectOk(Call(engine, R"({"op":"load_dataset","name":"d",)"
                          R"("source":"synthetic","generator":"census",)"
                          R"("rows":)" + std::to_string(rows) +
                              R"(,"seed":7,"cap_epsilon":5.0})"));
    ExpectOk(Call(engine,
                  R"({"op":"create_session","dataset":"d","session":"alice",)"
                  R"("epsilon":2.0})"));
    ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
    sizes.push_back(ReadBytes(snap).size());
    EXPECT_LT(sizes.back(), 16u * 1024) << rows << " rows";
  }
  EXPECT_LE(sizes[1], sizes[0] + 16);
  EXPECT_GE(sizes[1], sizes[0]);
  RemoveDir(dir);
}

TEST(SnapshotTest, ReplacedDatasetsRowFileIsDeletedOnceTheImageIsDurable) {
  const std::string dir = FreshDir("replace_rows");
  const std::string snap = dir + "/state.snap";
  ServiceEngine engine;
  SetUpServing(engine);
  ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
  const std::vector<std::string> first = SnapshotAndNamedFiles(snap);
  ASSERT_EQ(first.size(), 2u);
  for (const uint64_t seed : {8, 9}) {
    // The session is bound to the replaced entry: end it so saves go on.
    ExpectOk(Call(engine, R"({"op":"close_session","session":"alice"})"));
    ExpectOk(Call(engine, R"({"op":"load_dataset","name":"d",)"
                          R"("source":"synthetic","generator":"diabetes",)"
                          R"("rows":300,"seed":)" + std::to_string(seed) +
                              R"(,"replace":true})"));
    ExpectOk(Call(engine,
                  R"({"op":"load_dataset","name":"e","source":"synthetic",)"
                  R"("generator":"diabetes","rows":200,"seed":)" +
                      std::to_string(seed) + R"(,"replace":true})"));
    ExpectOk(Call(engine,
                  R"({"op":"create_session","dataset":"d","session":"alice",)"
                  R"("epsilon":2.0})"));
    ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
    const std::vector<std::string> files = SnapshotAndNamedFiles(snap);
    EXPECT_EQ(files.size(), 3u);
    EXPECT_EQ(Sorted(DirEntries(dir)), files) << "seed " << seed;
    for (const std::string& name : first) {
      if (name != "state.snap") {
        EXPECT_EQ(std::count(files.begin(), files.end(), name), 0) << name;
      }
    }
  }
  ServiceEngine restored;
  StatusOr<ServiceEngine::RestoreReport> report =
      restored.RestoreFromFiles(snap, "");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->datasets, 2u);
  RemoveDir(dir);
}

TEST(SnapshotTest, ClientLoadedColumnarFileSurvivesEverySave) {
  // A client's DPXCOL file, even one beside the snapshot and named after
  // it, is never deleted: only `<snapshot>.<16 hex digits>.dpxcol` files
  // are the save's own.
  const std::string dir = FreshDir("client_rows");
  const std::string snap = dir + "/state.snap";
  const std::string fixture = WriteColumnarFixture("client_rows", 24);
  std::vector<std::string> clients = {dir + "/client.dpxcol",
                                      dir + "/state.snap.client.dpxcol"};
  for (const std::string& client : clients) {
    ASSERT_EQ(::link(fixture.c_str(), client.c_str()), 0) << client;
  }
  ServiceEngine engine;
  for (size_t i = 0; i < clients.size(); ++i) {
    ExpectOk(Call(engine, R"({"op":"load_dataset","name":"m)" +
                              std::to_string(i) +
                              R"(","source":"dpxcol","path":")" + clients[i] +
                              R"("})"));
  }
  ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
  EXPECT_EQ(SnapshotAndNamedFiles(snap), Sorted(DirEntries(dir)));
  // Replaced by heap data: the image stops naming the client files, and
  // every later save still leaves them.
  for (size_t i = 0; i < clients.size(); ++i) {
    ExpectOk(Call(engine, R"({"op":"load_dataset","name":"m)" +
                              std::to_string(i) +
                              R"(","source":"synthetic","generator":)"
                              R"("diabetes","rows":100,"replace":true})"));
  }
  for (int save = 0; save < 2; ++save) {
    ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
    for (const std::string& client : clients) {
      struct stat st;
      EXPECT_EQ(::stat(client.c_str(), &st), 0) << client;
    }
    EXPECT_EQ(DirEntries(dir).size(), 5u);
  }
  std::remove(fixture.c_str());
  RemoveDir(dir);
}

TEST(SnapshotTest, RowFileNamedByAnotherPathsImageOutlivesAReplace) {
  // save_snapshot to a second path makes the entry adopt a row file there,
  // which the worker's own image then names. A replace and a save to the
  // second path must not delete that file while the own image (saved, or
  // restored after a crash) still names it.
  const std::string own_dir = FreshDir("own_image");
  const std::string other_dir = FreshDir("other_image");
  const std::string own = own_dir + "/w.snap";
  const std::string other = other_dir + "/o.snap";
  const std::string replace =
      R"({"op":"load_dataset","name":"d","source":"synthetic",)"
      R"("generator":"diabetes","rows":200,"seed":2,"replace":true})";
  std::string adopted;  // the row file beside `other` that `own` names
  {
    ServiceEngine engine;
    ExpectOk(Call(engine, R"({"op":"load_dataset","name":"d",)"
                          R"("source":"synthetic","generator":"diabetes",)"
                          R"("rows":200,"seed":1})"));
    ASSERT_TRUE(engine.SaveSnapshotToFile(other).ok());
    ASSERT_TRUE(engine.SaveSnapshotToFile(own).ok());
    adopted = (*engine.registry().Get("d"))->dataset()->mapped()->path();
    ExpectOk(Call(engine, replace));
    ASSERT_TRUE(engine.SaveSnapshotToFile(other).ok());
    ServiceEngine restored;
    ASSERT_TRUE(restored.RestoreFromFiles(own, "").ok());
  }
  EXPECT_EQ(DirEntries(other_dir).size(), 3u);
  {
    // After a restart from the own image, the same sequence.
    ServiceEngine engine;
    ASSERT_TRUE(engine.RestoreFromFiles(own, "").ok());
    ExpectOk(Call(engine, replace));
    ASSERT_TRUE(engine.SaveSnapshotToFile(other).ok());
    struct stat st;
    EXPECT_EQ(::stat(adopted.c_str(), &st), 0) << adopted;
    ServiceEngine restored;
    ASSERT_TRUE(restored.RestoreFromFiles(own, "").ok());
    // Once the own image stops naming it, the next save deletes it.
    ASSERT_TRUE(engine.SaveSnapshotToFile(own).ok());
    ASSERT_TRUE(engine.SaveSnapshotToFile(other).ok());
    EXPECT_EQ(Sorted(DirEntries(other_dir)), SnapshotAndNamedFiles(other));
    EXPECT_NE(::stat(adopted.c_str(), &st), 0) << adopted;
  }
  RemoveDir(own_dir);
  RemoveDir(other_dir);
}

/// `image` (format 3) with each dataset's by-reference fields replaced by
/// the inline columns of `datasets[i]`, as formats 1–3 could hold them.
std::string InlineColumnImage(const std::string& image,
                              const std::vector<const Dataset*>& datasets) {
  StatusOr<snapshot::ServiceSnapshot> state =
      snapshot::DecodeServiceSnapshot(image);
  EXPECT_TRUE(state.ok()) << state.status();
  StatusOr<std::vector<snapshot::Section>> sections =
      snapshot::ParseSnapshotFile(image, nullptr);
  EXPECT_TRUE(sections.ok()) << sections.status();
  if (!state.ok() || !sections.ok()) return "";
  EXPECT_EQ(state->datasets.size(), datasets.size());
  snapshot::SectionWriter file(3);
  for (const snapshot::Section& section : *sections) {
    if (section.id != snapshot::SectionId::kDatasets) {
      file.AddSection(section.id, section.payload);
      continue;
    }
    ByteWriter w;
    w.PutU64(state->datasets.size());
    for (size_t d = 0; d < state->datasets.size(); ++d) {
      const snapshot::DatasetState& ds = state->datasets[d];
      w.PutString(ds.name);
      w.PutString(ds.source);
      w.PutU64(ds.uid);
      w.PutU64(ds.epoch);
      w.PutU8(ds.width_policy);
      w.PutDouble(ds.cap_epsilon);
      w.PutDouble(ds.cap.spent);
      w.PutU64(ds.cap.totals.size());
      for (const PrivacyBudget::LabelTotal& total : ds.cap.totals) {
        w.PutString(total.label);
        w.PutU64(total.count);
        w.PutDouble(total.epsilon);
      }
      w.PutString(ds.schema_json);
      w.PutString("");  // no columnar file
      w.PutU64(0);
      w.PutU64(0);
      const Dataset& dataset = *datasets[d];
      w.PutU64(dataset.num_attributes());
      for (size_t a = 0; a < dataset.num_attributes(); ++a) {
        const ColumnView column = dataset.column(static_cast<AttrIndex>(a));
        w.PutU8(static_cast<uint8_t>(column.width()));
        w.PutU64(column.size());
        VisitColumn(column, [&](const auto* codes) {
          w.PutString(std::string(reinterpret_cast<const char*>(codes),
                                  column.size() * sizeof(*codes)));
        });
      }
      w.PutU64(ds.clusterings.size());
      for (const snapshot::ClusteringState& cl : ds.clusterings) {
        w.PutString(cl.id);
        w.PutString(cl.description);
        w.PutString(cl.fingerprint);
        w.PutU64(cl.num_clusters);
        w.PutU64(cl.labels.size());
        for (const uint32_t label : cl.labels) w.PutU32(label);
      }
    }
    file.AddSection(section.id, w.Take());
  }
  return file.Take();
}

TEST(SnapshotTest, InlineColumnImageRestoresAndItsNextSaveNamesARowFile) {
  const std::string dir = FreshDir("inline_rows");
  const std::string snap = dir + "/state.snap";
  ServiceEngine saved(SeededNoise());
  SetUpServing(saved);
  Replies(saved, SeededReleases(0.1));
  const std::vector<std::string> hits = Replies(saved, SeededReleases(0.1));
  const std::shared_ptr<const Dataset> rows =
      (*saved.registry().Get("d"))->dataset();
  ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  const std::string inline_image = InlineColumnImage(ReadBytes(snap), {&*rows});
  ASSERT_FALSE(inline_image.empty());
  // The restore must read the inline columns: no row file is left.
  RemoveDir(dir);
  ::mkdir(dir.c_str(), 0755);
  ASSERT_TRUE(WriteFileAtomic(snap, inline_image).ok());
  // What the saved engine answers next: fresh releases on the same rows.
  const std::vector<std::string> fresh = Replies(saved, SeededReleases(0.2));

  ServiceEngine restored(SeededNoise());
  StatusOr<ServiceEngine::RestoreReport> report =
      restored.RestoreFromFiles(snap, "");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->format_version, 3u);
  const std::shared_ptr<DatasetEntry> entry = *restored.registry().Get("d");
  EXPECT_FALSE(entry->dataset()->is_mapped());
  EXPECT_EQ(Replies(restored, SeededReleases(0.1)), hits);

  // Its next save moves the rows into a file and serves from it.
  ASSERT_TRUE(restored.SaveSnapshotToFile(snap).ok());
  EXPECT_TRUE(entry->dataset()->is_mapped());
  const std::vector<std::string> files = SnapshotAndNamedFiles(snap);
  EXPECT_EQ(files.size(), 2u);
  EXPECT_EQ(Sorted(DirEntries(dir)), files);
  EXPECT_EQ(Replies(restored, SeededReleases(0.2)), fresh);

  // And that image restores to the same answers again.
  ServiceEngine again(SeededNoise());
  ASSERT_TRUE(again.RestoreFromFiles(snap, "").ok());
  EXPECT_TRUE((*again.registry().Get("d"))->dataset()->is_mapped());
  EXPECT_EQ(Replies(again, SeededReleases(0.1)), hits);
  EXPECT_EQ(Replies(again, SeededReleases(0.2)).back(), fresh.back());
  RemoveDir(dir);
}

TEST(SnapshotTest, KilledSaveLeavesTheOldImageAndItsOrphanIsDeletedNext) {
  // A child restores the image, registers heap rows, and is SIGKILLed
  // inside its save after the row file is written and adopted, before the
  // image is: the old image stays and restores exactly, and the next
  // save deletes the row file no image names.
  const std::vector<std::string> changes = {
      R"({"op":"load_dataset","name":"e","source":"synthetic",)"
      R"("generator":"diabetes","rows":200,"seed":9})",
      R"({"op":"load_dataset","name":"d","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"seed":9,"replace":true})"};
  for (const std::string& change : changes) {
    const std::string dir = FreshDir("killed_save");
    const std::string snap = dir + "/state.snap";
    std::vector<std::string> hits;
    PrivacyBudget::State ledger;
    {
      ServiceEngine engine(SeededNoise());
      SetUpServing(engine);
      Replies(engine, SeededReleases(0.1));
      hits = Replies(engine, SeededReleases(0.1));
      ledger = SessionLedger(engine, "alice");
      ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
    }
    const std::string image = ReadBytes(snap);
    const std::vector<std::string> files = SnapshotAndNamedFiles(snap);

    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ServiceEngineOptions options = SeededNoise();
      options.fault_injector = [](const FaultPoint& point) {
        if (point.point == "snapshot:image") ::raise(SIGKILL);
        return Status::OK();
      };
      ServiceEngine engine(options);
      if (!engine.RestoreFromFiles(snap, "").ok()) ::_exit(2);
      // A replaced entry must not hold a session for the save to go on.
      engine.Handle(R"({"op":"close_session","session":"alice"})");
      engine.Handle(change);
      (void)engine.SaveSnapshotToFile(snap);
      ::_exit(3);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "wait status " << status;

    EXPECT_EQ(ReadBytes(snap), image);
    const std::vector<std::string> left = Sorted(DirEntries(dir));
    EXPECT_EQ(left.size(), files.size() + 1) << change;
    ServiceEngine restored(SeededNoise());
    ASSERT_TRUE(restored.RestoreFromFiles(snap, "").ok());
    EXPECT_TRUE(SameLedger(SessionLedger(restored, "alice"), ledger));
    EXPECT_EQ(Replies(restored, SeededReleases(0.1)), hits);
    ASSERT_TRUE(restored.SaveSnapshotToFile(snap).ok());
    EXPECT_EQ(ReadBytes(snap), image);
    EXPECT_EQ(Sorted(DirEntries(dir)), files) << change;
    RemoveDir(dir);
  }
}

// ---------------------------------------------------------------------------
// Snapshot v3: each accountant is its spent bits plus one row per label.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, SaveLoadSaveIsBitForBit) {
  const std::string first = TempPath("resave_first.snap");
  const std::string second = TempPath("resave_second.snap");
  ServiceEngine saved;
  SetUpServing(saved);
  ExpectOk(Hist(saved, "diab_3", 0.1));
  ExpectOk(Hist(saved, "diab_5", 0.07));
  const std::shared_ptr<ServiceSession> alice = SessionOf(saved, "alice");
  ASSERT_TRUE(alice->Spend(0.01, "size c=0").ok());
  ASSERT_TRUE(alice->Spend(0.01, "size c=0").ok());
  ASSERT_TRUE(saved.SaveSnapshotToFile(first).ok());

  ServiceEngine restored;
  ASSERT_TRUE(restored.RestoreFromFiles(first, "").ok());
  ASSERT_TRUE(restored.SaveSnapshotToFile(second).ok());
  const std::string first_bytes = ReadBytes(first);
  EXPECT_FALSE(first_bytes.empty());
  EXPECT_TRUE(first_bytes == ReadBytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

/// One charge of a format 1/2 ledger, which listed every charge.
struct Charge {
  std::string label;
  double epsilon;
};

void PutCharges(ByteWriter& w, const std::vector<Charge>& charges) {
  w.PutU64(charges.size());
  for (const Charge& charge : charges) {
    w.PutString(charge.label);
    w.PutDouble(charge.epsilon);
  }
}

/// Re-encodes a one-dataset, one-session v3 image in the format-2 layout:
/// the cap and the session list `cap_charges` and `session_charges`, the
/// session stores `session_spent`, and the other sections are copied.
std::string FormatTwoImage(const std::string& v3_image,
                           const std::vector<Charge>& cap_charges,
                           const std::vector<Charge>& session_charges,
                           double session_spent) {
  StatusOr<snapshot::ServiceSnapshot> state =
      snapshot::DecodeServiceSnapshot(v3_image);
  EXPECT_TRUE(state.ok()) << state.status();
  StatusOr<std::vector<snapshot::Section>> sections =
      snapshot::ParseSnapshotFile(v3_image, nullptr);
  EXPECT_TRUE(sections.ok()) << sections.status();
  if (!state.ok() || !sections.ok()) return "";
  snapshot::SectionWriter file(2);
  for (const snapshot::Section& section : *sections) {
    ByteWriter w;
    if (section.id == snapshot::SectionId::kDatasets) {
      w.PutU64(state->datasets.size());
      for (const snapshot::DatasetState& ds : state->datasets) {
        w.PutString(ds.name);
        w.PutString(ds.source);
        w.PutU64(ds.uid);
        w.PutU64(ds.epoch);
        w.PutU8(ds.width_policy);
        w.PutDouble(ds.cap_epsilon);
        PutCharges(w, cap_charges);
        w.PutString(ds.schema_json);
        w.PutString(ds.columnar_path);
        w.PutU64(ds.columnar_file_uid);
        w.PutU64(ds.columnar_rows);
        w.PutU64(ds.columns.size());
        for (const snapshot::ColumnState& col : ds.columns) {
          w.PutU8(col.width_tag);
          w.PutU64(col.rows);
          w.PutString(col.bytes);
        }
        w.PutU64(ds.clusterings.size());
        for (const snapshot::ClusteringState& cl : ds.clusterings) {
          w.PutString(cl.id);
          w.PutString(cl.description);
          w.PutString(cl.fingerprint);
          w.PutU64(cl.num_clusters);
          w.PutU64(cl.labels.size());
          for (const uint32_t label : cl.labels) w.PutU32(label);
        }
      }
    } else if (section.id == snapshot::SectionId::kSessions) {
      w.PutU64(state->sessions.size());
      for (const snapshot::SessionState& ss : state->sessions) {
        w.PutString(ss.id);
        w.PutString(ss.dataset_name);
        w.PutU64(ss.dataset_uid);
        w.PutDouble(ss.total_epsilon);
        w.PutDouble(session_spent);
        w.PutU8(ss.audit_matches_ledger ? 1 : 0);
        PutCharges(w, session_charges);
      }
    } else {
      w.PutBytes(section.payload.data(), section.payload.size());
    }
    file.AddSection(section.id, w.Take());
  }
  return file.Take();
}

TEST(SnapshotTest, FormatTwoImageFoldsItsChargesIntoRows) {
  const std::string snap = TempPath("format2.snap");
  const std::string path = WriteColumnarFixture("format2", 24);
  ServiceEngine saved;
  SetUpColumnarServing(saved, path);
  const std::vector<Charge> charges = {{"hist a", 0.1},
                                       {"hist b", 0.07},
                                       {"hist a", 0.3},
                                       {"size c=0", 0.01},
                                       {"hist a", 0.1}};
  std::vector<Charge> cap_charges;
  const std::shared_ptr<ServiceSession> alice = SessionOf(saved, "alice");
  for (const Charge& charge : charges) {
    ASSERT_TRUE(alice->Spend(charge.epsilon, charge.label).ok());
    cap_charges.push_back({"alice/" + charge.label, charge.epsilon});
  }
  const PrivacyBudget::State session = SessionLedger(saved, "alice");
  const PrivacyBudget::State cap = CapLedger(saved, "m");
  ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  const std::string image =
      FormatTwoImage(ReadBytes(snap), cap_charges, charges, session.spent);
  ASSERT_TRUE(WriteFileAtomic(snap, image).ok());

  // Format 2 rebuilt each total by replaying its charges in order. The fold
  // adds the same doubles in the same order: the spent totals are those
  // bits, and each row sums its own label's charges.
  ServiceEngine restored;
  StatusOr<ServiceEngine::RestoreReport> report =
      restored.RestoreFromFiles(snap, "");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->format_version, 2u);
  const PrivacyBudget::State folded = SessionLedger(restored, "alice");
  EXPECT_TRUE(SameLedger(folded, session));
  EXPECT_TRUE(SameLedger(CapLedger(restored, "m"), cap));
  ASSERT_EQ(folded.totals.size(), 3u);
  EXPECT_EQ(folded.totals[0].label, "hist a");
  EXPECT_EQ(folded.totals[0].count, 3u);
  EXPECT_EQ(folded.totals[0].epsilon, 0.1 + 0.3 + 0.1);
  EXPECT_EQ(restored.audit_log().TenantTotals("alice").epsilon_charged,
            folded.spent);

  // No checksum covers the version word: the same body marked format 1 is
  // read under the wrong layout and must be refused, not half-applied.
  std::string relabeled = image;
  relabeled[sizeof(snapshot::kSnapshotMagic)] = 1;
  ASSERT_TRUE(WriteFileAtomic(snap, relabeled).ok());
  ServiceEngine refused;
  report = refused.RestoreFromFiles(snap, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError) << report.status();
  EXPECT_TRUE(NothingApplied(refused));

  std::remove(snap.c_str());
  std::remove(path.c_str());
}

TEST(SnapshotTest, EveryTruncationFlipAndVersionIsRefusedOrRestoredExactly) {
  const std::string snap = TempPath("sweep.snap");
  const std::string path = WriteColumnarFixture("sweep", 24);
  ServiceEngine saved;
  SetUpColumnarServing(saved, path);
  ExpectOk(Parse(saved.Handle(R"({"op":"hist","session":"alice",)"
                              R"("attribute":"size","epsilon":0.1})")));
  const std::shared_ptr<ServiceSession> alice = SessionOf(saved, "alice");
  ASSERT_TRUE(alice->Spend(0.07, "size c=0").ok());
  ASSERT_TRUE(alice->Spend(0.07, "size c=0").ok());
  const PrivacyBudget::State session = SessionLedger(saved, "alice");
  const PrivacyBudget::State cap = CapLedger(saved, "m");
  ASSERT_TRUE(saved.SaveSnapshotToFile(snap).ok());
  const std::string image = ReadBytes(snap);
  ASSERT_GT(image.size(), 64u);

  // Every case either restores the saved accountants exactly (a flipped
  // meta or cache section id makes that section unknown, so it is
  // skipped) or is refused with a structured error and applies nothing.
  ServiceEngineOptions options;
  options.num_threads = 1;
  size_t failures = 0;
  const auto restores = [&](const std::string& what,
                            const std::string& bytes) {
    if (!WriteFileAtomic(snap, bytes).ok()) {
      ADD_FAILURE() << what << ": cannot write the case";
      return false;
    }
    ServiceEngine engine(options);
    StatusOr<ServiceEngine::RestoreReport> report =
        engine.RestoreFromFiles(snap, "");
    bool ok = true;
    if (!report.ok()) {
      const StatusCode code = report.status().code();
      ok = (code == StatusCode::kIoError ||
            code == StatusCode::kFailedPrecondition) &&
           NothingApplied(engine);
    } else {
      ok = SameLedger(SessionLedger(engine, "alice"), session) &&
           SameLedger(CapLedger(engine, "m"), cap);
    }
    if (!ok && ++failures <= 5) {
      ADD_FAILURE() << what << ": " << report.status();
    }
    return report.ok();
  };
  for (size_t size = 0; size < image.size(); ++size) {
    EXPECT_FALSE(restores("truncated to " + std::to_string(size),
                          image.substr(0, size)));
  }
  for (size_t at = 0; at < image.size(); ++at) {
    std::string flipped = image;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    restores("byte " + std::to_string(at) + " flipped", flipped);
  }
  for (uint32_t version = 0;
       version <= snapshot::kSnapshotFormatVersion + 1; ++version) {
    std::string relabeled = image;
    for (size_t i = 0; i < 4; ++i) {
      relabeled[sizeof(snapshot::kSnapshotMagic) + i] =
          static_cast<char>((version >> (8 * i)) & 0xFF);
    }
    EXPECT_EQ(restores("version " + std::to_string(version), relabeled),
              version == snapshot::kSnapshotFormatVersion);
  }
  // One byte appended inside a section under a valid CRC: only the check
  // for leftover bytes tells it from a well-formed section. The meta
  // section's counts are advisory and never decoded.
  StatusOr<std::vector<snapshot::Section>> sections =
      snapshot::ParseSnapshotFile(image, nullptr);
  ASSERT_TRUE(sections.ok()) << sections.status();
  for (size_t padded = 0; padded < sections->size(); ++padded) {
    snapshot::SectionWriter file;
    for (size_t i = 0; i < sections->size(); ++i) {
      std::string payload = (*sections)[i].payload;
      if (i == padded) payload.push_back('\0');
      file.AddSection((*sections)[i].id, payload);
    }
    EXPECT_EQ(restores("section " + std::to_string(padded) + " padded",
                       file.Take()),
              (*sections)[padded].id == snapshot::SectionId::kMeta);
  }
  EXPECT_EQ(failures, 0u);
  std::remove(snap.c_str());
  std::remove(path.c_str());
}

/// `value` with every number replaced by 0: two replies that differ only in
/// their numbers' values dump to the same text.
JsonValue MaskNumbers(const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNumber:
      return JsonValue::Number(0);
    case JsonValue::Type::kArray: {
      JsonValue masked = JsonValue::Array();
      for (size_t i = 0; i < value.size(); ++i) {
        masked.Append(MaskNumbers(value.at(i)));
      }
      return masked;
    }
    case JsonValue::Type::kObject: {
      JsonValue masked = JsonValue::Object();
      for (const std::string& key : value.ObjectKeys()) {
        masked.Set(key, MaskNumbers(value.at(key)));
      }
      return masked;
    }
    default:
      return value;
  }
}

TEST(SnapshotTest, LedgerKeepsOneRowPerLabelAcrossManyCharges) {
  const std::string snap = TempPath("many.snap");
  const std::string journal = TempPath("many.journal");
  std::remove(snap.c_str());
  std::remove(journal.c_str());
  const std::string budget_request =
      R"({"op":"budget","session":"alice"})";
  const std::vector<std::string> labels = {
      "explain default", "hist attr=diab_3 [parallel x3]", "size c=0"};
  constexpr int kCharges = 100000;
  constexpr double kEpsilon = 1e-6;

  ServiceEngine worker;
  SetUpServing(worker);
  const std::shared_ptr<ServiceSession> alice = SessionOf(worker, "alice");
  std::string early_reply;
  for (int i = 0; i < kCharges; ++i) {
    ASSERT_TRUE(alice->Spend(kEpsilon, labels[i % labels.size()]).ok());
    if (i + 1 == 10) early_reply = worker.Handle(budget_request);
  }
  const std::string late_reply = worker.Handle(budget_request);
  // The same rows either way: only the numbers (counts, sums) moved.
  EXPECT_EQ(MaskNumbers(Parse(late_reply)).Dump(),
            MaskNumbers(Parse(early_reply)).Dump());
  EXPECT_EQ(Parse(late_reply).at("ledger").size(), labels.size());

  const PrivacyBudget::State live = alice->budget().state();
  ASSERT_EQ(live.totals.size(), labels.size());
  double sum = 0.0;
  uint64_t count = 0;
  for (const PrivacyBudget::LabelTotal& total : live.totals) {
    sum += total.epsilon;
    count += total.count;
  }
  EXPECT_EQ(count, static_cast<uint64_t>(kCharges));
  EXPECT_NEAR(sum, live.spent, 1e-9 * live.spent);
  EXPECT_EQ(worker.audit_log().TenantTotals("alice").epsilon_charged,
            live.spent);

  // The journal starts at the save: restore skips every record before the
  // snapshot's cursor anyway.
  ASSERT_TRUE(worker.EnableAuditJournal(journal).ok());
  ASSERT_TRUE(worker.SaveSnapshotToFile(snap).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(alice->Spend(kEpsilon, labels[i % labels.size()]).ok());
  }
  ServiceEngine recovered;
  StatusOr<ServiceEngine::RestoreReport> report =
      recovered.RestoreFromFiles(snap, journal);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replayed_records, 10u);
  EXPECT_TRUE(SameLedger(SessionLedger(recovered, "alice"),
                         alice->budget().state()));
  EXPECT_TRUE(SameLedger(CapLedger(recovered, "d"), CapLedger(worker, "d")));
  EXPECT_EQ(recovered.audit_log().TenantTotals("alice").epsilon_charged,
            SessionSpent(recovered, "alice"));
  std::remove(snap.c_str());
  std::remove(journal.c_str());
}

TEST(SnapshotTest, FailedJournalWriteReleasesNothing) {
  // With every file capped at the journal's size, each append fails
  // (EFBIG): each charge stays on the ledger (it may overstate, never
  // understate) and its request fails before anything is computed or
  // cached. The cap is per process, so the engine runs in a child.
  const std::string journal = TempPath("failed_write.journal");
  std::remove(journal.c_str());
  ExpectPassesInChild([&] {
    ServiceEngine engine;
    SetUpServing(engine);
    ASSERT_TRUE(engine.EnableAuditJournal(journal).ok());
    LimitFileSize(0);
    const JsonValue explain =
        Call(engine, R"({"op":"explain","session":"alice","epsilon":0.3})");
    ExpectError(explain, "IoError");
    EXPECT_FALSE(explain.Has("explanation")) << explain.Dump();
    const JsonValue hist = Hist(engine, "diab_0");
    ExpectError(hist, "IoError");
    EXPECT_FALSE(hist.Has("bins")) << hist.Dump();
    EXPECT_EQ(engine.cache().size(), 0u);

    const JsonValue budget =
        Call(engine, R"({"op":"budget","session":"alice"})");
    ExpectOk(budget);
    EXPECT_DOUBLE_EQ(budget.at("spent").AsNumber(), 0.4);
    const std::string metrics = engine.metrics().PrometheusText();
    EXPECT_NE(metrics.find("\ndpclustx_audit_journal_failures_total 2\n"),
              std::string::npos)
        << metrics;
  });
  std::remove(journal.c_str());
}

TEST(SnapshotTest, KilledWritersLeaveACompleteOldOrNewImage) {
  // A child replaces a snapshot and rewrites and grows a DPXCOL file in a
  // loop until it is SIGKILLed at a seeded random moment. After every kill
  // each file is a complete old or new image, never a torn one.
  const std::string snap = TempPath("killed_writer.snap");
  const std::string col = TempPath("killed_writer.dpxcol");
  std::vector<std::string> images;
  {
    ServiceEngine engine;
    SetUpServing(engine);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
      images.push_back(ReadBytes(snap));
      ExpectOk(Hist(engine, "diab_0"));
    }
  }  // no engine threads are alive across the forks below
  ASSERT_NE(images[0], images[1]);
  std::vector<snapshot::ServiceSnapshot> states;
  for (const std::string& image : images) {
    StatusOr<snapshot::ServiceSnapshot> state =
        snapshot::DecodeServiceSnapshot(image);
    ASSERT_TRUE(state.ok()) << state.status();
    ASSERT_EQ(snapshot::EncodeServiceSnapshot(*state), image);
    states.push_back(std::move(*state));
  }
  Dataset ten(Schema({Attribute("color", {"red", "green", "blue"})}));
  for (ValueCode r = 0; r < 10; ++r) ten.AppendRowUnchecked({r % 3});
  const std::vector<std::vector<ValueCode>> eleven(11, {2});
  ASSERT_TRUE(WriteColumnarFile(ten, col).ok());

  std::mt19937 rng(20261019);
  for (int kill = 0; kill < 20; ++kill) {
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (size_t i = 0;; ++i) {
        (void)snapshot::SaveSnapshotFile(snap, states[i % 2]);
        (void)WriteColumnarFile(ten, col);  // capacity 10: the append grows
        StatusOr<std::shared_ptr<const MappedColumnar>> mapped =
            MappedColumnar::Open(col);
        if (mapped.ok()) (void)AppendRowsToColumnar(*mapped, eleven);
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(rng() % 20000));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::waitpid(pid, nullptr, 0);
    const std::string tmp_suffix = ".tmp." + std::to_string(pid);
    std::remove((snap + tmp_suffix).c_str());
    std::remove((col + tmp_suffix).c_str());

    const std::string bytes = ReadBytes(snap);
    EXPECT_TRUE(bytes == images[0] || bytes == images[1]) << "kill " << kill;
    EXPECT_TRUE(snapshot::LoadSnapshotFile(snap).ok()) << "kill " << kill;
    ColumnarOpenOptions verify;
    verify.verify_data = true;
    StatusOr<std::shared_ptr<const MappedColumnar>> mapped =
        MappedColumnar::Open(col, verify);
    ASSERT_TRUE(mapped.ok()) << "kill " << kill << ": " << mapped.status();
    EXPECT_TRUE((*mapped)->num_rows() == 10 || (*mapped)->num_rows() == 21)
        << "kill " << kill << ": " << (*mapped)->num_rows() << " rows";
  }
  std::remove(snap.c_str());
  std::remove(col.c_str());
}

TEST(SnapshotTest, FailedSaveLeavesTheOldFileAndNoTmp) {
  // The save fails before its tmp file exists (an unwritable directory;
  // root is dropped to nobody for it) or after (a file size cap): either
  // way the old snapshot is byte-identical and nothing but it and the row
  // file it names is left.
  const std::string dir = TempPath("failed_save");
  ::mkdir(dir.c_str(), 0755);
  const std::string snap = dir + "/state.snap";
  std::string old_bytes;
  snapshot::ServiceSnapshot newer;
  {
    ServiceEngine engine;
    SetUpServing(engine);
    ASSERT_TRUE(engine.SaveSnapshotToFile(snap).ok());
    old_bytes = ReadBytes(snap);
    ExpectOk(Hist(engine, "diab_0"));
    ASSERT_TRUE(engine.SaveSnapshotToFile(dir + "/newer.snap").ok());
    StatusOr<snapshot::ServiceSnapshot> loaded =
        snapshot::LoadSnapshotFile(dir + "/newer.snap");
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    newer = std::move(*loaded);
    std::remove((dir + "/newer.snap").c_str());
  }
  const std::vector<std::string> left = SnapshotAndNamedFiles(snap);
  EXPECT_EQ(left.size(), 2u);
  const std::vector<std::function<void()>> failures = {
      [&] {
        ASSERT_EQ(::chmod(dir.c_str(), 0555), 0);
        if (::geteuid() == 0) {
          ASSERT_EQ(::setuid(65534), 0);
        }
      },
      [] { LimitFileSize(0); }};
  for (const std::function<void()>& fail : failures) {
    ExpectPassesInChild([&] {
      fail();
      EXPECT_FALSE(snapshot::SaveSnapshotFile(snap, newer).ok());
    });
    ::chmod(dir.c_str(), 0755);
    EXPECT_EQ(ReadBytes(snap), old_bytes);
    EXPECT_EQ(Sorted(DirEntries(dir)), left);
  }
  RemoveDir(dir);
}

// ---- the worker lifecycle (service/worker.h) -------------------------

WorkerOptions DurableWorker(const std::string& name, size_t interval_ms) {
  WorkerOptions options;
  options.snapshot = TempPath(name + ".snap");
  options.audit_journal = TempPath(name + ".journal");
  options.snapshot_interval_ms = interval_ms;
  std::remove(options.snapshot.c_str());
  std::remove(options.audit_journal.c_str());
  return options;
}

std::unique_ptr<Worker> StartWorker(const WorkerOptions& options) {
  StatusOr<std::unique_ptr<Worker>> worker = Worker::Start(options, nullptr);
  EXPECT_TRUE(worker.ok()) << worker.status();
  return worker.ok() ? std::move(*worker) : nullptr;
}

TEST(WorkerTest, KilledFreshWorkerRestartsOnItsBaseSnapshot) {
  // No periodic save: the base snapshot written at start is the only one
  // before the kill, and the journal's charge replays onto it. Datasets
  // and sessions are not journaled, so only the audit ledger comes back —
  // exactly.
  const WorkerOptions options = DurableWorker("worker_base", 0);
  obs::AuditLog::Totals before;
  {
    std::unique_ptr<Worker> worker = StartWorker(options);
    ASSERT_NE(worker, nullptr);
    SetUpServing(worker->engine());
    ExpectOk(Hist(worker->engine(), "diab_0"));
    before = worker->engine().audit_log().TenantTotals("alice");
  }  // destroyed without Shutdown: a SIGKILL
  std::unique_ptr<Worker> restarted = StartWorker(options);
  ASSERT_NE(restarted, nullptr);
  const obs::AuditLog::Totals after =
      restarted->engine().audit_log().TenantTotals("alice");
  EXPECT_EQ(after.epsilon_charged, before.epsilon_charged);
  EXPECT_EQ(after.charges, 1u);
}

TEST(WorkerTest, PeriodicSavesBesideChargesLoseNothingAcrossAKill) {
  // The saver runs every millisecond while four threads charge: each
  // charge is inside a snapshot or after its cursor in the journal, never
  // both and never neither.
  const WorkerOptions options = DurableWorker("worker_periodic", 1);
  {
    // The session must be in a snapshot to come back at all (session
    // creation is not journaled): a first life sets up and stops cleanly.
    std::unique_ptr<Worker> setup = StartWorker(options);
    ASSERT_NE(setup, nullptr);
    SetUpServing(setup->engine());
    setup->Shutdown();
  }
  PrivacyBudget::State session_before;
  PrivacyBudget::State cap_before;
  {
    std::unique_ptr<Worker> worker = StartWorker(options);
    ASSERT_NE(worker, nullptr);
    ServiceEngine& engine = worker->engine();
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&engine, t] {
        for (int i = 0; i < 10; ++i) {
          // Distinct ε per request: every one misses the cache and charges.
          ExpectOk(Hist(engine, "diab_" + std::to_string(t),
                        0.001 * (1 + i + 10 * t)));
        }
      });
    }
    for (std::thread& client : clients) client.join();
    session_before = SessionLedger(engine, "alice");
    cap_before = CapLedger(engine, "d");
  }  // destroyed without Shutdown: a SIGKILL
  std::unique_ptr<Worker> restarted = StartWorker(options);
  ASSERT_NE(restarted, nullptr);
  EXPECT_TRUE(SameLedger(SessionLedger(restarted->engine(), "alice"),
                         session_before));
  EXPECT_TRUE(SameLedger(CapLedger(restarted->engine(), "d"), cap_before));
}

TEST(WorkerTest, ShutdownWritesTheFinalSnapshot) {
  // A clean stop needs no journal replay: the final save holds it all.
  const WorkerOptions options = DurableWorker("worker_final", 0);
  PrivacyBudget::State before;
  {
    std::unique_ptr<Worker> worker = StartWorker(options);
    ASSERT_NE(worker, nullptr);
    SetUpServing(worker->engine());
    ExpectOk(Hist(worker->engine(), "diab_0"));
    before = SessionLedger(worker->engine(), "alice");
    worker->Shutdown();
  }
  ServiceEngine engine;
  StatusOr<ServiceEngine::RestoreReport> restored =
      engine.RestoreFromFiles(options.snapshot, "");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(SameLedger(SessionLedger(engine, "alice"), before));
}

/// A durable worker whose first life set up "d" and "alice" and stopped
/// cleanly, so the session is in the snapshot.
WorkerOptions SetUpWorker(const std::string& name) {
  const WorkerOptions options = DurableWorker(name, 0);
  std::unique_ptr<Worker> setup = StartWorker(options);
  EXPECT_NE(setup, nullptr);
  if (setup != nullptr) {
    SetUpServing(setup->engine());
    setup->Shutdown();
  }
  return options;
}

/// Second life: a charge, a charge whose journal line the file size cap
/// (`spare` bytes past the journal's end) refuses, a charge with the cap
/// lifted, then a kill. The refused line leaves neither a seq nor a half
/// line behind, so the restart restores the two journaled charges exactly.
void RefuseOneJournalLineThenKill(const std::string& name, rlim_t spare) {
  const WorkerOptions options = SetUpWorker(name);
  ExpectPassesInChild([&] {
    obs::AuditLog::Totals before;
    {
      std::unique_ptr<Worker> worker = StartWorker(options);
      ASSERT_NE(worker, nullptr);
      ServiceEngine& engine = worker->engine();
      ExpectOk(Hist(engine, "diab_0", 0.1));
      const std::string journaled = ReadBytes(options.audit_journal);
      LimitFileSize(journaled.size() + spare);
      ExpectError(Hist(engine, "diab_1", 0.2), "IoError");
      LimitFileSize(RLIM_INFINITY);
      EXPECT_EQ(ReadBytes(options.audit_journal), journaled);
      ExpectOk(Hist(engine, "diab_2", 0.3));
      before = engine.audit_log().TenantTotals("alice");
    }  // destroyed without Shutdown: a SIGKILL
    EXPECT_EQ(before.charges, 2u);
    std::unique_ptr<Worker> restarted = StartWorker(options);
    ASSERT_NE(restarted, nullptr);
    ServiceEngine& engine = restarted->engine();
    const obs::AuditLog::Totals after =
        engine.audit_log().TenantTotals("alice");
    EXPECT_EQ(after.charges, 2u);
    EXPECT_EQ(after.epsilon_charged, before.epsilon_charged);
    EXPECT_EQ(SessionSpent(engine, "alice"), before.epsilon_charged);
    EXPECT_EQ(CapSpent(engine, "d"), before.epsilon_charged);
  });
  std::remove(options.snapshot.c_str());
  std::remove(options.audit_journal.c_str());
}

TEST(WorkerTest, RefusedJournalAppendTakesNoSeq) {
  RefuseOneJournalLineThenKill("worker_refused", 0);
}

TEST(WorkerTest, ShortJournalAppendLeavesNoHalfLine) {
  RefuseOneJournalLineThenKill("worker_short", 20);
}

TEST(WorkerTest, NonRegularSnapshotOrJournalIsRefusedAtStart) {
  // A device never ends and keeps nothing, a FIFO blocks its opener, a
  // directory is not a file: each is refused at start, promptly, by name.
  const std::string fifo = TempPath("worker_nonregular.fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path : {std::string("/dev/zero"),
                                  std::string("/dev/full"), fifo,
                                  ::testing::TempDir()}) {
    for (const bool journal : {false, true}) {
      WorkerOptions options = DurableWorker("worker_nonregular", 0);
      (journal ? options.audit_journal : options.snapshot) = path;
      const auto start = std::chrono::steady_clock::now();
      const StatusOr<std::unique_ptr<Worker>> worker =
          Worker::Start(options, nullptr);
      EXPECT_LT(std::chrono::steady_clock::now() - start,
                std::chrono::seconds(1));
      ASSERT_FALSE(worker.ok()) << path;
      EXPECT_NE(worker.status().message().find("'" + path + "'"),
                std::string::npos)
          << worker.status();
      if (journal) {
        // The journal is checked before the base snapshot is written, so
        // a refused journal leaves no snapshot behind.
        struct stat st;
        EXPECT_NE(::stat(options.snapshot.c_str(), &st), 0)
            << path << ": a base snapshot was written";
        std::remove(options.snapshot.c_str());
      }
    }
  }
  std::remove(fifo.c_str());
}

}  // namespace
}  // namespace dpclustx::service
