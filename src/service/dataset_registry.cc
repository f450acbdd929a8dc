#include "service/dataset_registry.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "data/csv.h"
#include "data/synthetic.h"

namespace dpclustx::service {

namespace {
std::atomic<uint64_t>& UidCounter() {
  static std::atomic<uint64_t> counter{1};
  return counter;
}

uint64_t NextUid() {
  return UidCounter().fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

DatasetEntry::DatasetEntry(std::string name, std::string source,
                           Dataset dataset, double cap_epsilon)
    : DatasetEntry(std::move(name), std::move(source), std::move(dataset),
                   cap_epsilon, NextUid()) {}

DatasetEntry::DatasetEntry(std::string name, std::string source,
                           Dataset dataset, double cap_epsilon, uint64_t uid)
    : name_(std::move(name)),
      source_(std::move(source)),
      uid_(uid),
      cap_epsilon_(cap_epsilon > 0.0 ? cap_epsilon : 0.0),
      cap_(cap_epsilon > 0.0 ? std::make_unique<PrivacyBudget>(cap_epsilon)
                             : nullptr),
      dataset_(std::make_shared<const Dataset>(std::move(dataset))) {}

void DatasetEntry::BumpUidFloor(uint64_t floor) {
  std::atomic<uint64_t>& counter = UidCounter();
  uint64_t current = counter.load(std::memory_order_relaxed);
  while (current < floor &&
         !counter.compare_exchange_weak(current, floor,
                                        std::memory_order_relaxed)) {
  }
}

StatusOr<DatasetEntry::AppendResult> DatasetEntry::AppendRows(
    const std::vector<std::vector<ValueCode>>& rows, size_t num_threads) {
  // append_mutex_ serializes whole append batches (including the DPXCOL
  // file write); mutex_ is only taken for the final pointer swap, so
  // readers are never blocked behind the heavy work.
  std::lock_guard<std::mutex> append_lock(append_mutex_);

  std::shared_ptr<const Dataset> base;
  std::vector<std::shared_ptr<const ClusteringView>> views;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    base = dataset_;
    views.reserve(clusterings_.size());
    for (const auto& [id, view] : clusterings_) views.push_back(view);
  }
  for (const auto& view : views) {
    if (view->model == nullptr) {
      return Status::FailedPrecondition(
          "clustering '" + view->id + "' of dataset '" + name_ +
          "' has no fitted model (restored from a snapshot); re-run "
          "cluster before appending rows");
    }
  }

  // Materialize the tail as a heap dataset: it both validates every code
  // against the schema and is what the models label / the stats delta
  // scans. AppendRow returns InvalidArgument on any malformed row before
  // anything is committed anywhere.
  Dataset tail(base->schema(), base->width_policy());
  tail.Reserve(rows.size());
  for (const auto& row : rows) {
    DPX_RETURN_IF_ERROR(tail.AppendRow(row));
  }

  // New dataset generation.
  std::shared_ptr<const Dataset> grown;
  if (base->is_mapped()) {
    DPX_ASSIGN_OR_RETURN(std::shared_ptr<const MappedColumnar> extended,
                         AppendRowsToColumnar(base->mapped(), rows));
    DPX_ASSIGN_OR_RETURN(Dataset mapped_ds, Dataset::FromMapped(extended));
    grown = std::make_shared<const Dataset>(std::move(mapped_ds));
  } else {
    auto copy = std::make_shared<Dataset>(*base);  // copy-on-append
    for (const auto& row : rows) copy->AppendRowUnchecked(row);
    grown = std::move(copy);
  }

  // Re-derive every view: tail labels from the view's own fitted model
  // (pure per-row assignment — identical to what a cold AssignAll over the
  // grown dataset would produce for those rows), stats by exact delta.
  std::vector<std::shared_ptr<const ClusteringView>> new_views;
  new_views.reserve(views.size());
  for (const auto& view : views) {
    std::vector<ClusterId> tail_labels = view->model->AssignAll(tail);
    DPX_ASSIGN_OR_RETURN(
        StatsCache stats,
        StatsCache::BuildAppended(*view->stats, tail, tail_labels,
                                  num_threads));
    auto next = std::make_shared<ClusteringView>(*view);
    next->labels.insert(next->labels.end(), tail_labels.begin(),
                        tail_labels.end());
    next->stats = std::make_shared<const StatsCache>(std::move(stats));
    new_views.push_back(std::move(next));
  }

  AppendResult result;
  result.num_rows = grown->num_rows();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dataset_ = std::move(grown);
    for (auto& view : new_views) clusterings_[view->id] = std::move(view);
    result.epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  return result;
}

StatusOr<std::shared_ptr<const ClusteringView>> DatasetEntry::PutClustering(
    std::shared_ptr<const ClusteringView> view) {
  if (view == nullptr || view->id.empty()) {
    return Status::InvalidArgument("clustering view needs a non-empty id");
  }
  // append_mutex_ first (same order as AppendRows): publishing a view must
  // not interleave with an append, or the view's labels could describe a
  // row count the dataset no longer has.
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (view->labels.size() != dataset_->num_rows()) {
    return Status::FailedPrecondition(
        "clustering '" + view->id + "' labels " +
        std::to_string(view->labels.size()) + " rows but dataset '" + name_ +
        "' now has " + std::to_string(dataset_->num_rows()) +
        " (rows were appended during clustering; retry)");
  }
  auto it = clusterings_.find(view->id);
  if (it != clusterings_.end()) {
    if (it->second->fingerprint == view->fingerprint) return it->second;
    return Status::FailedPrecondition(
        "clustering '" + view->id + "' of dataset '" + name_ +
        "' already exists with a different configuration (" +
        it->second->fingerprint + " vs " + view->fingerprint + ")");
  }
  clusterings_.emplace(view->id, view);
  return view;
}

StatusOr<std::shared_ptr<const ClusteringView>> DatasetEntry::GetClustering(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = clusterings_.find(id);
  if (it == clusterings_.end()) {
    return Status::NotFound("no clustering '" + id + "' on dataset '" +
                            name_ + "'");
  }
  return it->second;
}

bool DatasetEntry::AdoptMapped(const std::shared_ptr<const Dataset>& expected,
                               Dataset mapped) {
  // Both locks, in AppendRows' order: no append or view publication is
  // between its read of dataset_ and its swap.
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (dataset_ != expected) return false;
  dataset_ = std::make_shared<const Dataset>(std::move(mapped));
  return true;
}

void DatasetEntry::SnapshotState(
    std::shared_ptr<const Dataset>* dataset,
    std::vector<std::shared_ptr<const ClusteringView>>* views,
    uint64_t* epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dataset != nullptr) *dataset = dataset_;
  if (views != nullptr) {
    views->clear();
    views->reserve(clusterings_.size());
    for (const auto& [id, view] : clusterings_) views->push_back(view);
  }
  // The epoch bump happens under mutex_ together with the dataset swap, so
  // this triple is one consistent generation.
  if (epoch != nullptr) *epoch = epoch_.load(std::memory_order_acquire);
}

StatusOr<std::shared_ptr<DatasetEntry>> DatasetRegistry::Register(
    const std::string& name, const std::string& source, Dataset dataset,
    double cap_epsilon, bool replace) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end() && !replace) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' already registered (pass replace to reload)");
  }
  // Replacing must not reset the cross-session ε cap: unless both sources
  // are known and differ (genuinely new data), the replacement is the same
  // sensitive data, so the accumulated spend carries over and the cap can
  // only be tightened, never raised or removed. An unknown (empty) source
  // is treated as possibly-same — over-charging is the safe direction.
  double effective_cap = cap_epsilon;
  double carried_spent = 0.0;
  if (it != entries_.end()) {
    const DatasetEntry& old = *it->second;
    const bool known_distinct =
        !old.source().empty() && !source.empty() && old.source() != source;
    if (!known_distinct && old.cap() != nullptr) {
      effective_cap = cap_epsilon > 0.0
                          ? std::min(cap_epsilon, old.cap_epsilon())
                          : old.cap_epsilon();
      carried_spent = old.cap()->spent_epsilon();
    }
  }
  auto entry = std::make_shared<DatasetEntry>(name, source,
                                              std::move(dataset),
                                              effective_cap);
  if (carried_spent > 0.0 && entry->cap() != nullptr) {
    const double charge =
        std::min(carried_spent, entry->cap()->total_epsilon());
    const Status carried = entry->cap()->Spend(
        charge, "carried over from replaced registration");
    DPX_CHECK(carried.ok()) << carried;  // charge <= total, cannot refuse
  }
  entries_[name] = entry;
  return entry;
}

StatusOr<std::shared_ptr<DatasetEntry>> DatasetRegistry::RegisterSynthetic(
    const std::string& name, const std::string& generator, size_t rows,
    uint64_t seed, double cap_epsilon, bool replace) {
  DPX_ASSIGN_OR_RETURN(synth::SyntheticConfig config,
                       synth::PresetByName(generator));
  config.num_rows = rows;
  config.seed = seed;
  DPX_ASSIGN_OR_RETURN(Dataset dataset, synth::Generate(config));
  const std::string source = "synthetic generator=" + generator +
                             " rows=" + std::to_string(rows) +
                             " seed=" + std::to_string(seed);
  return Register(name, source, std::move(dataset), cap_epsilon, replace);
}

StatusOr<std::shared_ptr<DatasetEntry>> DatasetRegistry::RegisterCsv(
    const std::string& name, const std::string& path, double cap_epsilon,
    bool replace, size_t max_bytes) {
  CsvReadOptions options;
  options.max_bytes = max_bytes;
  DPX_ASSIGN_OR_RETURN(Dataset dataset, ReadCsv(path, options));
  return Register(name, "csv path=" + path, std::move(dataset), cap_epsilon,
                  replace);
}

StatusOr<std::shared_ptr<DatasetEntry>> DatasetRegistry::RegisterColumnar(
    const std::string& name, const std::string& path, double cap_epsilon,
    bool replace, bool verify) {
  ColumnarOpenOptions options;
  options.verify_data = verify;
  DPX_ASSIGN_OR_RETURN(std::shared_ptr<const MappedColumnar> mapped,
                       MappedColumnar::Open(path, options));
  DPX_ASSIGN_OR_RETURN(Dataset dataset, Dataset::FromMapped(std::move(mapped)));
  return Register(name, "dpxcol path=" + path, std::move(dataset), cap_epsilon,
                  replace);
}

StatusOr<std::shared_ptr<DatasetEntry>> DatasetRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no dataset '" + name + "' registered");
  }
  return it->second;
}

Status DatasetRegistry::RestoreEntry(std::shared_ptr<DatasetEntry> entry) {
  if (entry == nullptr) {
    return Status::InvalidArgument("cannot restore a null dataset entry");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(entry->name()) != 0) {
    return Status::FailedPrecondition(
        "dataset '" + entry->name() +
        "' already registered; snapshot restore requires an empty registry");
  }
  entries_.emplace(entry->name(), std::move(entry));
  return Status::OK();
}

std::vector<std::string> DatasetRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::vector<std::shared_ptr<DatasetEntry>> DatasetRegistry::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<DatasetEntry>> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) entries.push_back(entry);
  return entries;
}

size_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace dpclustx::service
