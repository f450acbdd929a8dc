// ServiceEngine: the dataset-keyed ops (load_dataset, append_rows, schema,
// cluster). The op table and dispatch live in service_engine.cc.
#include "service/service_engine.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "cluster/clustering.h"
#include "obs/trace.h"

namespace dpclustx::service {

namespace {

std::string ClusteringFingerprint(const std::string& method, size_t k,
                                  uint64_t seed, double epsilon) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "method=%s k=%zu seed=%" PRIu64 " eps=%.17g",
                method.c_str(), k, seed, epsilon);
  return buf;
}

}  // namespace

StatusOr<JsonValue> ServiceEngine::OpLoadDataset(const JsonValue& request,
                                                 const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("name"));
  DPX_ASSIGN_OR_RETURN(const std::string source,
                       OptString(request, "source", "synthetic"));
  DPX_ASSIGN_OR_RETURN(const double cap_epsilon,
                       OptNumber(request, "cap_epsilon", 0.0));
  DPX_ASSIGN_OR_RETURN(const bool replace, OptBool(request, "replace", false));

  StatusOr<std::shared_ptr<DatasetEntry>> entry =
      Status::InvalidArgument("source must be 'synthetic', 'csv', or 'dpxcol'");
  if (source == "synthetic") {
    DPX_ASSIGN_OR_RETURN(const std::string generator,
                         request.GetString("generator"));
    DPX_ASSIGN_OR_RETURN(const size_t rows, OptCount(request, "rows", 20000));
    DPX_ASSIGN_OR_RETURN(const size_t seed, OptCount(request, "seed", 1));
    entry = registry_.RegisterSynthetic(name, generator, rows, seed,
                                        cap_epsilon, replace);
  } else if (source == "csv") {
    DPX_ASSIGN_OR_RETURN(const std::string path, request.GetString("path"));
    entry = registry_.RegisterCsv(name, path, cap_epsilon, replace,
                                  options_.max_csv_bytes);
  } else if (source == "dpxcol") {
    DPX_ASSIGN_OR_RETURN(const std::string path, request.GetString("path"));
    DPX_ASSIGN_OR_RETURN(const bool verify,
                         OptBool(request, "verify", false));
    entry = registry_.RegisterColumnar(name, path, cap_epsilon, replace,
                                       verify);
  }
  DPX_RETURN_IF_ERROR(entry.status());

  const std::shared_ptr<const Dataset> dataset = (*entry)->dataset();
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(name));
  body.Set("rows",
           JsonValue::Number(static_cast<double>(dataset->num_rows())));
  body.Set("attributes", JsonValue::Number(static_cast<double>(
                             dataset->num_attributes())));
  body.Set("mapped", JsonValue::Bool(dataset->is_mapped()));
  body.Set("cap_epsilon", JsonValue::Number((*entry)->cap_epsilon()));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpAppendRows(const JsonValue& request,
                                                const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  if (!request.Has("rows") ||
      request.at("rows").type() != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "'rows' must be an array of rows (each an array of cells)");
  }
  // Cells are resolved against the schema up front — a value label string
  // ("white-collar") or a numeric code — so a malformed batch is rejected
  // before anything is written anywhere.
  const std::shared_ptr<const Dataset> dataset = entry->dataset();
  const Schema& schema = dataset->schema();
  const JsonValue& rows_json = request.at("rows");
  std::vector<std::vector<ValueCode>> rows;
  rows.reserve(rows_json.size());
  for (size_t r = 0; r < rows_json.size(); ++r) {
    const JsonValue& row_json = rows_json.at(r);
    if (row_json.type() != JsonValue::Type::kArray ||
        row_json.size() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " must be an array of " +
          std::to_string(schema.num_attributes()) + " cells");
    }
    std::vector<ValueCode> row(schema.num_attributes());
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const Attribute& attr = schema.attribute(static_cast<AttrIndex>(a));
      const JsonValue& cell = row_json.at(a);
      if (cell.type() == JsonValue::Type::kString) {
        DPX_ASSIGN_OR_RETURN(row[a], attr.CodeOf(cell.AsString()));
      } else if (cell.type() == JsonValue::Type::kNumber) {
        const double value = cell.AsNumber();
        if (value < 0.0 || value != std::floor(value) ||
            value >= static_cast<double>(attr.domain_size())) {
          return Status::InvalidArgument(
              "row " + std::to_string(r) + ", attribute '" + attr.name() +
              "': code must be an integer in [0, " +
              std::to_string(attr.domain_size()) + ")");
        }
        row[a] = static_cast<ValueCode>(value);
      } else {
        return Status::InvalidArgument(
            "row " + std::to_string(r) + ", attribute '" + attr.name() +
            "': cell must be a value label string or a numeric code");
      }
    }
    rows.push_back(std::move(row));
  }

  DPX_ASSIGN_OR_RETURN(const DatasetEntry::AppendResult result,
                       entry->AppendRows(rows));
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(name));
  body.Set("appended", JsonValue::Number(static_cast<double>(rows.size())));
  body.Set("rows", JsonValue::Number(static_cast<double>(result.num_rows)));
  body.Set("epoch", JsonValue::Number(static_cast<double>(result.epoch)));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpSchema(const JsonValue& request,
                                            const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  // Schemas are data-independent (paper §2): releasing them costs nothing.
  const std::shared_ptr<const Dataset> dataset = entry->dataset();
  const Schema& schema = dataset->schema();
  JsonValue attributes = JsonValue::Array();
  for (const Attribute& attr : schema.attributes()) {
    JsonValue a = JsonValue::Object();
    a.Set("name", JsonValue::String(attr.name()));
    JsonValue values = JsonValue::Array();
    for (const std::string& label : attr.value_labels()) {
      values.Append(JsonValue::String(label));
    }
    a.Set("values", std::move(values));
    attributes.Append(std::move(a));
  }
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(name));
  body.Set("attributes", std::move(attributes));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpCluster(const JsonValue& request,
                                             const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  DPX_ASSIGN_OR_RETURN(const std::string method, request.GetString("method"));
  ClusteringSpec spec;
  DPX_ASSIGN_OR_RETURN(spec.method, ParseClusteringMethod(method));
  DPX_ASSIGN_OR_RETURN(spec.num_clusters, OptCount(request, "k", 5));
  DPX_ASSIGN_OR_RETURN(spec.seed, OptCount(request, "seed", 1));
  DPX_ASSIGN_OR_RETURN(spec.epsilon, OptNumber(request, "epsilon", 1.0));
  if (spec.num_clusters == 0) return Status::InvalidArgument("k must be >= 1");

  const bool is_private = spec.method == ClusteringMethod::kDpKMeans;
  const std::string fingerprint =
      ClusteringFingerprint(method, spec.num_clusters, spec.seed,
                            is_private ? spec.epsilon : 0.0);

  const auto respond = [&](const std::shared_ptr<const ClusteringView>& view) {
    JsonValue body = JsonValue::Object();
    body.Set("dataset", JsonValue::String(name));
    body.Set("clustering", JsonValue::String(clustering_id));
    body.Set("method", JsonValue::String(view->description));
    body.Set("num_clusters",
             JsonValue::Number(static_cast<double>(view->num_clusters)));
    // Deliberately NO per-cluster sizes here: exact counts never cross the
    // protocol boundary. Use the 'size' op for a noisy count.
    return body;
  };

  // Idempotent re-request: an existing view with the same config is returned
  // without refitting (and, for dp-k-means, without charging again).
  if (auto existing = entry->GetClustering(clustering_id); existing.ok()) {
    if ((*existing)->fingerprint == fingerprint) return respond(*existing);
    return Status::FailedPrecondition(
        "clustering '" + clustering_id + "' of dataset '" + name +
        "' already exists with a different configuration");
  }

  // One generation for the whole fit: labels and stats are computed against
  // this snapshot, and PutClustering rejects the publish if rows were
  // appended meanwhile (the caller retries against the new generation).
  const std::shared_ptr<const Dataset> dataset = entry->dataset();
  std::unique_ptr<ClusteringFunction> clustering;
  {
    DPX_SPAN("clustering_fit");
    if (is_private) {
      // The fit is an ε-DP release: charge the requesting session (and the
      // dataset cap) before fitting.
      DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                           SessionOf(request));
      if (session->dataset() != entry) {
        return Status::FailedPrecondition("session '" + session->id() +
                                          "' is not bound to dataset '" + name +
                                          "'");
      }
      DPX_RETURN_IF_ERROR(
          session->Spend(spec.epsilon, "cluster/dp-k-means " + clustering_id));
    }
    DPX_ASSIGN_OR_RETURN(clustering, FitClustering(*dataset, spec));
  }

  auto view = std::make_shared<ClusteringView>();
  view->id = clustering_id;
  view->description = clustering->name();
  view->fingerprint = fingerprint;
  view->num_clusters = clustering->num_clusters();
  {
    DPX_SPAN("assign_all");
    view->labels = clustering->AssignAll(*dataset);
  }
  DPX_ASSIGN_OR_RETURN(StatsCache stats,
                       StatsCache::Build(*dataset, view->labels,
                                         view->num_clusters));
  view->stats = std::make_shared<const StatsCache>(std::move(stats));
  // Keep the fitted model on the view: appended rows are labeled by the
  // same model, so a tail assignment matches a cold AssignAll exactly.
  view->model = std::shared_ptr<const ClusteringFunction>(
      std::move(clustering));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> published,
                       entry->PutClustering(std::move(view)));
  return respond(published);
}
}  // namespace dpclustx::service
