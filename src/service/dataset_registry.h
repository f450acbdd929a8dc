// Shared, immutable dataset state for the explanation service.
//
// A production deployment loads each sensitive dataset once and serves many
// analysts against it. The registry owns that shared state: the columnar
// Dataset (immutable after registration), any number of named clustering
// views (labels + a precomputed StatsCache, built once and shared read-only
// by every request), and an optional per-dataset global privacy cap — a
// PrivacyBudget that every session's spending is *also* charged against, so
// the total ε released about one dataset is bounded across all tenants (the
// central-accounting discipline the DPM line of work argues for).
//
// Thread-safety: the registry and each entry are internally locked; Dataset,
// ClusteringView, and StatsCache are immutable once published and shared via
// shared_ptr, so request threads read them without synchronization. Streaming
// ingest keeps that discipline: AppendRows builds a new dataset generation
// (an in-place DPXCOL append, or a copy of a heap dataset) plus new views and
// swaps them in atomically with an epoch bump — readers holding the old
// generation are undisturbed.

#ifndef DPCLUSTX_SERVICE_DATASET_REGISTRY_H_
#define DPCLUSTX_SERVICE_DATASET_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "core/stats_cache.h"
#include "data/columnar_format.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "dp/privacy_budget.h"

namespace dpclustx::service {

/// One named clustering of a registered dataset: per-row labels plus the
/// per-(cluster, attribute) count cache every explanation request reuses.
/// Immutable once published. The StatsCache holds exact counts of the
/// sensitive data — it must never cross the protocol boundary; only DP
/// mechanism outputs derived from it do.
struct ClusteringView {
  std::string id;
  /// Human-readable method description ("k-means(k=5)").
  std::string description;
  /// Canonical config string ("method=k-means k=5 seed=7 eps=0"); identical
  /// re-registrations are idempotent, conflicting ones are rejected.
  std::string fingerprint;
  size_t num_clusters = 0;
  std::vector<ClusterId> labels;
  std::shared_ptr<const StatsCache> stats;
  /// The fitted clustering function, kept so appended rows can be labeled
  /// with the *same* model (assignment is pure per-row given the fitted
  /// state, so tail labels match what a full AssignAll would produce).
  /// Null for views restored from a snapshot — those must be re-clustered
  /// before the dataset accepts appends.
  std::shared_ptr<const ClusteringFunction> model;
};

/// A registered dataset plus its clusterings and optional global ε cap.
class DatasetEntry {
 public:
  /// `source` fingerprints where the data came from (e.g. "csv path=..." or
  /// "synthetic generator=... rows=... seed=...") so the registry can tell a
  /// re-registration of the same data from genuinely new data; empty means
  /// unknown. cap_epsilon <= 0 means uncapped.
  DatasetEntry(std::string name, std::string source, Dataset dataset,
               double cap_epsilon);

  /// Restore-time constructor: pins the registry uid to `uid` instead of
  /// drawing a fresh one. Release-cache keys embed the uid, so a restored
  /// entry must keep its pre-crash uid or every cached (paid-for) release
  /// would miss. Callers must also BumpUidFloor so later fresh entries
  /// cannot collide with restored uids.
  DatasetEntry(std::string name, std::string source, Dataset dataset,
               double cap_epsilon, uint64_t uid);

  /// Raises the process-wide uid counter to at least `floor` so uids minted
  /// after a restore never collide with pinned ones.
  static void BumpUidFloor(uint64_t floor);

  const std::string& name() const { return name_; }
  const std::string& source() const { return source_; }

  /// The current dataset generation. Appends swap in a new generation
  /// atomically; in-flight requests keep the shared_ptr they grabbed, so a
  /// request never sees rows change underneath it.
  std::shared_ptr<const Dataset> dataset() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dataset_;
  }

  /// Registry-unique id, distinct across re-registrations of the same name —
  /// cache keys embed it so a replaced dataset can never serve stale bytes.
  uint64_t uid() const { return uid_; }

  /// Append generation, bumped once per successful AppendRows. Release
  /// cache keys embed (uid, epoch), so an append invalidates exactly this
  /// dataset's cached releases and nothing else.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Restore-time only: pins the epoch saved in a snapshot so cache keys
  /// from before the crash keep matching.
  void PinEpoch(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }

  /// Outcome of one append batch.
  struct AppendResult {
    size_t num_rows = 0;  // total rows after the append
    uint64_t epoch = 0;   // new epoch
  };

  /// Appends `rows` (vectors of codes, validated against the schema) as one
  /// atomic batch: the dataset generation, every clustering view (tail rows
  /// labeled by the view's fitted model, StatsCache delta-updated exactly —
  /// see StatsCache::BuildAppended), and the epoch all advance together.
  /// Mapped datasets extend their DPXCOL file in place; heap datasets copy
  /// (O(base + tail)). A durable worker's heap datasets become mapped at
  /// their first snapshot save (AdoptMapped), so only a dataset no save
  /// has reached yet pays the copy.
  /// FailedPrecondition if any view lacks a fitted model (snapshot-restored
  /// views; re-cluster first). Appends to one entry are serialized.
  StatusOr<AppendResult> AppendRows(
      const std::vector<std::vector<ValueCode>>& rows,
      size_t num_threads = 0);

  /// Global cross-session cap, or nullptr when uncapped.
  PrivacyBudget* cap() const { return cap_.get(); }
  double cap_epsilon() const { return cap_epsilon_; }

  /// Publishes `view` under view->id. If the id already exists with the same
  /// fingerprint, returns the existing view (idempotent); a conflicting
  /// fingerprint is FailedPrecondition (views are immutable).
  StatusOr<std::shared_ptr<const ClusteringView>> PutClustering(
      std::shared_ptr<const ClusteringView> view);

  StatusOr<std::shared_ptr<const ClusteringView>> GetClustering(
      const std::string& id) const;

  /// Serves `mapped` in place of the heap generation `expected`: the same
  /// rows, now in a DPXCOL file a snapshot save wrote. The uid, the epoch
  /// and the views are kept. False, changing nothing, when an append
  /// replaced `expected` since.
  bool AdoptMapped(const std::shared_ptr<const Dataset>& expected,
                   Dataset mapped);

  /// Dataset generation, views, and epoch from one locked instant — the
  /// snapshot harvester must not pair a post-append dataset with pre-append
  /// views (or vice versa). Null out-params are skipped.
  void SnapshotState(
      std::shared_ptr<const Dataset>* dataset,
      std::vector<std::shared_ptr<const ClusteringView>>* views,
      uint64_t* epoch) const;

 private:
  const std::string name_;
  const std::string source_;
  const uint64_t uid_;
  const double cap_epsilon_;
  const std::unique_ptr<PrivacyBudget> cap_;  // null when uncapped

  std::atomic<uint64_t> epoch_{0};
  std::mutex append_mutex_;  // serializes AppendRows end to end

  mutable std::mutex mutex_;
  std::shared_ptr<const Dataset> dataset_;  // guarded by mutex_
  std::map<std::string, std::shared_ptr<const ClusteringView>>
      clusterings_;  // guarded by mutex_
};

class DatasetRegistry {
 public:
  /// Registers `dataset` under `name` with the given source fingerprint
  /// (see DatasetEntry). An existing name is FailedPrecondition unless
  /// `replace` is set, in which case the old entry is detached (sessions
  /// already bound to it keep their reference and budget accounting, but no
  /// new sessions can reach it).
  ///
  /// The dataset ε cap is a property of the data, so a replacement cannot
  /// be used to reset it: unless both entries' sources are known and
  /// differ (genuinely new data), the new cap inherits the old cap's spent
  /// ε, and the cap total can be tightened but never raised or removed by
  /// re-registering.
  StatusOr<std::shared_ptr<DatasetEntry>> Register(const std::string& name,
                                                   const std::string& source,
                                                   Dataset dataset,
                                                   double cap_epsilon,
                                                   bool replace = false);

  /// Loads one of the synthetic substitutes: "diabetes", "census",
  /// "stackoverflow".
  StatusOr<std::shared_ptr<DatasetEntry>> RegisterSynthetic(
      const std::string& name, const std::string& generator, size_t rows,
      uint64_t seed, double cap_epsilon, bool replace = false);

  /// Loads a CSV table (schema inferred). `max_bytes` gates the file size
  /// like the service's max_request_bytes (0 = unlimited).
  StatusOr<std::shared_ptr<DatasetEntry>> RegisterCsv(const std::string& name,
                                                      const std::string& path,
                                                      double cap_epsilon,
                                                      bool replace = false,
                                                      size_t max_bytes = 0);

  /// Opens a DPXCOL file (data/columnar_format.h) via mmap, zero-copy. The
  /// entry's dataset reads straight from the page cache, so opening a
  /// full-scale file is O(header) and workers mapping the same file share
  /// physical pages. `verify` forces the O(data) integrity pass.
  StatusOr<std::shared_ptr<DatasetEntry>> RegisterColumnar(
      const std::string& name, const std::string& path, double cap_epsilon,
      bool replace = false, bool verify = false);

  StatusOr<std::shared_ptr<DatasetEntry>> Get(const std::string& name) const;

  /// Inserts a fully-built entry (snapshot restore). FailedPrecondition if
  /// the name is taken — restore targets an empty registry.
  Status RestoreEntry(std::shared_ptr<DatasetEntry> entry);

  std::vector<std::string> Names() const;
  /// Every live entry, in name order (snapshot harvest).
  std::vector<std::shared_ptr<DatasetEntry>> Entries() const;
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<DatasetEntry>> entries_;
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_DATASET_REGISTRY_H_
