// Clustering functions f : dom(R) → C.
//
// The paper (§2.2) models the output of a (possibly DP) clustering algorithm
// as a *total* function on the tuple domain, not just on the observed
// dataset: fixed centers (or any data-independent rule) define an assignment
// for every possible tuple, which is what makes the sequential-composition
// argument for "cluster privately, then explain privately" go through.
// DPClustX only ever uses a clustering through this black-box interface.
//
// Bulk labeling is batched: AssignAll shards the rows and makes ONE virtual
// AssignBatch call per shard, and each concrete clustering overrides
// AssignBatch with a contiguous tile kernel over the dataset's narrow
// column codes (data/column.h) — no per-row virtual dispatch, no per-row
// allocation. Per-row Assign and the batched kernels compute identical
// arithmetic, so labels are bitwise-identical between the two paths
// (tests/dataset_layout_test).

#ifndef DPCLUSTX_CLUSTER_CLUSTERING_H_
#define DPCLUSTX_CLUSTER_CLUSTERING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "dp/privacy_budget.h"

namespace dpclustx {

/// Cluster label.
using ClusterId = uint32_t;

/// Abstract clustering function. Implementations must be deterministic given
/// their internal state (all randomness happens at fitting time).
class ClusteringFunction {
 public:
  virtual ~ClusteringFunction() = default;

  /// Number of cluster labels |C|. Labels are 0 .. num_clusters()-1; a label
  /// may be empty on a particular dataset.
  virtual size_t num_clusters() const = 0;

  /// Assigns a cluster label to an arbitrary tuple of the schema's domain.
  virtual ClusterId Assign(const std::vector<ValueCode>& tuple) const = 0;

  /// Short description for reports ("k-means(k=5)").
  virtual std::string name() const = 0;

  /// Labels rows [begin, end) of `dataset`: out[i] is the label of row
  /// begin+i. Must equal Assign(dataset.Row(row)) for every row — the
  /// batched kernel is an execution strategy, never a different function.
  /// The default materializes each row into one reused scratch tuple and
  /// calls Assign (no per-row allocation); concrete clusterings override
  /// with columnar tile kernels. Called concurrently from AssignAll shards,
  /// so overrides must be const-thread-safe.
  virtual void AssignBatch(const Dataset& dataset, size_t begin, size_t end,
                           ClusterId* out) const;

  /// Labels every row of `dataset`: shards the rows and calls AssignBatch
  /// once per shard (one virtual call per ~2k rows instead of one per row).
  virtual std::vector<ClusterId> AssignAll(const Dataset& dataset) const;
};

/// Maps codes to numeric coordinates in [0, 1] per attribute
/// (code / (domain_size − 1), or 0.5 for single-value domains). This is the
/// paper's "map each domain value to a unique integer" embedding, rescaled so
/// DP sensitivity per coordinate is 1.
std::vector<double> EmbedTuple(const Schema& schema,
                               const std::vector<ValueCode>& tuple);

/// Embeds rows [begin, end) into `out` (row-major, (end−begin) ×
/// num_attributes doubles). The width-dispatched tile primitive behind
/// EmbedDataset and the centroid/GMM assignment kernels; all three therefore
/// produce identical coordinates. `scales`/`offsets` are per-attribute
/// precomputed factors (see EmbedScales).
void EmbedRows(const Dataset& dataset, size_t begin, size_t end,
               const double* scales, const double* offsets, double* out);

/// Per-attribute embedding factors: coordinate = offset[a] + scale[a]·code.
/// (scale = 1/(domain−1), offset = 0; singleton domains: scale = 0,
/// offset = 0.5.)
void EmbedScales(const Schema& schema, std::vector<double>* scales,
                 std::vector<double>* offsets);

/// Columnar embedding of a whole dataset; result is row-major
/// [num_rows × num_attributes].
std::vector<double> EmbedDataset(const Dataset& dataset);

/// Labels rows [begin, end) by minimum Hamming distance to `modes` (ties to
/// the lower label); out[i] is the label of row begin+i. Columnar tile
/// kernel over the narrow codes, shared by ModeClustering::AssignBatch and
/// the k-modes fitting loop. Distances are exact integers, so the result
/// equals the naive per-row argmin.
void AssignNearestModes(const Dataset& dataset,
                        const std::vector<std::vector<ValueCode>>& modes,
                        size_t begin, size_t end, ClusterId* out);

/// Clustering function defined by centroids in the [0,1]^d embedding; tuples
/// go to the nearest centroid in squared Euclidean distance (ties to the
/// lower label).
class CentroidClustering final : public ClusteringFunction {
 public:
  /// `centers` is row-major [k × num_attributes], in embedded coordinates.
  CentroidClustering(Schema schema, std::vector<std::vector<double>> centers,
                     std::string name);

  size_t num_clusters() const override { return centers_.size(); }
  ClusterId Assign(const std::vector<ValueCode>& tuple) const override;
  std::string name() const override { return name_; }
  void AssignBatch(const Dataset& dataset, size_t begin, size_t end,
                   ClusterId* out) const override;

  const std::vector<std::vector<double>>& centers() const { return centers_; }

  /// Nearest center to an already-embedded point.
  ClusterId AssignEmbedded(const double* point) const;

 private:
  Schema schema_;
  std::vector<std::vector<double>> centers_;
  std::string name_;
};

/// Clustering function defined by categorical mode vectors; tuples go to the
/// center with minimum Hamming distance (ties to the lower label).
class ModeClustering final : public ClusteringFunction {
 public:
  /// `modes[c]` is a full tuple of codes.
  ModeClustering(Schema schema, std::vector<std::vector<ValueCode>> modes,
                 std::string name);

  size_t num_clusters() const override { return modes_.size(); }
  ClusterId Assign(const std::vector<ValueCode>& tuple) const override;
  std::string name() const override { return name_; }
  void AssignBatch(const Dataset& dataset, size_t begin, size_t end,
                   ClusterId* out) const override;

  const std::vector<std::vector<ValueCode>>& modes() const { return modes_; }

 private:
  Schema schema_;
  std::vector<std::vector<ValueCode>> modes_;
  std::string name_;
};

/// The clustering backends: the choice of f is one decision, made here for
/// every caller (pipeline, engine, CLI, benches).
enum class ClusteringMethod {
  kKMeans,
  kDpKMeans,
  kKModes,
  kAgglomerative,
  kGmm,
};

/// Parses "k-means" / "dp-k-means" / "k-modes" / "agglomerative" / "gmm";
/// any other name is InvalidArgument listing the five.
StatusOr<ClusteringMethod> ParseClusteringMethod(const std::string& name);

/// What to fit: the backend and the values every backend shares.
struct ClusteringSpec {
  ClusteringMethod method = ClusteringMethod::kKMeans;
  size_t num_clusters = 5;
  uint64_t seed = 1;
  /// Budget of the fit; only dp-k-means reads it (the other methods are
  /// non-private and MUST only be used on non-sensitive data or for
  /// evaluation).
  double epsilon = 1.0;
};

/// Fits `spec` on `dataset` with the backend's defaults for everything
/// else. `budget` reaches dp-k-means only, which charges it `spec.epsilon`
/// before fitting.
StatusOr<std::unique_ptr<ClusteringFunction>> FitClustering(
    const Dataset& dataset, const ClusteringSpec& spec,
    PrivacyBudget* budget = nullptr);

/// Per-cluster row counts for a label vector. Requires every label <
/// num_clusters.
std::vector<size_t> ClusterSizes(const std::vector<ClusterId>& labels,
                                 size_t num_clusters);

/// Row indices of each cluster.
std::vector<std::vector<uint32_t>> ClusterRowIndices(
    const std::vector<ClusterId>& labels, size_t num_clusters);

}  // namespace dpclustx

#endif  // DPCLUSTX_CLUSTER_CLUSTERING_H_
