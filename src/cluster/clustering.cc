#include "cluster/clustering.h"

#include <algorithm>
#include <limits>

#include "cluster/agglomerative.h"
#include "cluster/dp_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/kernels/kernel_table.h"

namespace dpclustx {

namespace {

// Rows per shard of AssignAll / EmbedDataset. Assignments are pure per-row
// maps into disjoint label slots, so any shard schedule writes the same
// labels.
constexpr size_t kAssignGrain = 2048;

// Rows per tile of the Hamming kernel; the distance block
// (k × 256 × 4 bytes) and its narrow partials stay in L1 while every
// attribute streams over it.
constexpr size_t kTileRows = 256;

// Rows per tile of the embedding kernels. The embedded block is written
// once per attribute in dims-strided doubles, so it must fit in L1 to make
// those re-touches free: 64 × dims × 8 bytes ≈ 35 KB at Census width.
constexpr size_t kEmbedTileRows = 64;

}  // namespace

void ClusteringFunction::AssignBatch(const Dataset& dataset, size_t begin,
                                     size_t end, ClusterId* out) const {
  // Fallback for clusterings without a columnar kernel: one scratch tuple
  // reused across the whole batch instead of a fresh allocation per row.
  std::vector<ValueCode> scratch;
  scratch.reserve(dataset.num_attributes());
  for (size_t row = begin; row < end; ++row) {
    dataset.RowInto(row, &scratch);
    out[row - begin] = Assign(scratch);
  }
}

std::vector<ClusterId> ClusteringFunction::AssignAll(
    const Dataset& dataset) const {
  std::vector<ClusterId> labels(dataset.num_rows());
  ParallelFor(dataset.num_rows(), kAssignGrain,
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                AssignBatch(dataset, begin, end, labels.data() + begin);
              });
  return labels;
}

void EmbedScales(const Schema& schema, std::vector<double>* scales,
                 std::vector<double>* offsets) {
  const size_t dims = schema.num_attributes();
  scales->resize(dims);
  offsets->resize(dims);
  for (size_t a = 0; a < dims; ++a) {
    const size_t domain = schema.attribute(static_cast<AttrIndex>(a))
                              .domain_size();
    (*scales)[a] = domain > 1 ? 1.0 / static_cast<double>(domain - 1) : 0.0;
    (*offsets)[a] = domain > 1 ? 0.0 : 0.5;
  }
}

std::vector<double> EmbedTuple(const Schema& schema,
                               const std::vector<ValueCode>& tuple) {
  DPX_CHECK_EQ(tuple.size(), schema.num_attributes());
  std::vector<double> point(tuple.size());
  for (size_t a = 0; a < tuple.size(); ++a) {
    const size_t domain = schema.attribute(static_cast<AttrIndex>(a))
                              .domain_size();
    // Same scale/offset arithmetic as EmbedRows, so the per-tuple and
    // batched paths produce bitwise-identical coordinates.
    const double scale =
        domain > 1 ? 1.0 / static_cast<double>(domain - 1) : 0.0;
    const double offset = domain > 1 ? 0.0 : 0.5;
    point[a] = offset + scale * static_cast<double>(tuple[a]);
  }
  return point;
}

void EmbedRows(const Dataset& dataset, size_t begin, size_t end,
               const double* scales, const double* offsets, double* out) {
  const size_t dims = dataset.num_attributes();
  const kernels::KernelTable& kt = kernels::Active();
  for (size_t a = 0; a < dims; ++a) {
    VisitColumn(dataset.column(static_cast<AttrIndex>(a)),
                [&](const auto* codes) {
                  kernels::EmbedFn(kt, codes)(codes, begin, end, scales[a],
                                              offsets[a], out + a, dims);
                });
  }
}

std::vector<double> EmbedDataset(const Dataset& dataset) {
  const size_t rows = dataset.num_rows();
  const size_t dims = dataset.num_attributes();
  std::vector<double> points(rows * dims);
  std::vector<double> scales, offsets;
  EmbedScales(dataset.schema(), &scales, &offsets);
  // Tiled so each output block is written while cache-resident (the old
  // whole-column sweep re-touched every output cache line once per
  // attribute). Elementwise writes into disjoint slots: identical output at
  // any thread count and tile size.
  ParallelFor(rows, kAssignGrain,
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                for (size_t tb = begin; tb < end; tb += kEmbedTileRows) {
                  const size_t te = std::min(end, tb + kEmbedTileRows);
                  EmbedRows(dataset, tb, te, scales.data(), offsets.data(),
                            points.data() + tb * dims);
                }
              });
  return points;
}

namespace {

// Accumulates per-mode mismatch counts for one width class of attributes
// into `dist[c·kTileRows + r]`. The compare and the add run at the codes'
// own width (T partials, T-cast mode codes), so the inner loop vectorizes
// at full lane width instead of widening every element to 32 bits; partials
// flush into the 32-bit distances every ≤ max(T) attributes, before they
// can overflow. Hamming distance is a sum of exact 0/1 integers, so
// processing attributes per width class (rather than in schema order)
// changes nothing about the result.
template <typename T>
void AccumulateMismatches(const Dataset& dataset,
                          const std::vector<AttrIndex>& attrs,
                          const std::vector<std::vector<ValueCode>>& modes,
                          size_t tb, size_t n, const T* (ColumnView::*ptr)()
                              const,
                          std::vector<T>& partial, uint32_t* dist) {
  const size_t k = modes.size();
  const size_t block = std::numeric_limits<T>::max();
  const kernels::KernelTable& kt = kernels::Active();
  for (size_t ab = 0; ab < attrs.size(); ab += block) {
    const size_t ae = std::min(attrs.size(), ab + block);
    std::fill(partial.begin(), partial.end(), T{0});
    for (size_t i = ab; i < ae; ++i) {
      const AttrIndex a = attrs[i];
      const T* col = (dataset.column(a).*ptr)() + tb;
      for (size_t c = 0; c < k; ++c) {
        kernels::HammingFn(kt, col)(col, n, static_cast<T>(modes[c][a]),
                                    partial.data() + c * kTileRows);
      }
    }
    for (size_t c = 0; c < k; ++c) {
      const T* __restrict p = partial.data() + c * kTileRows;
      uint32_t* __restrict d = dist + c * kTileRows;
      for (size_t r = 0; r < n; ++r) d[r] += p[r];
    }
  }
}

}  // namespace

void AssignNearestModes(const Dataset& dataset,
                        const std::vector<std::vector<ValueCode>>& modes,
                        size_t begin, size_t end, ClusterId* out) {
  const size_t k = modes.size();
  const size_t dims = dataset.num_attributes();
  DPX_CHECK_GT(k, 0u);
  // Attributes partitioned by storage width, so each class accumulates at
  // its own lane width (see AccumulateMismatches).
  std::vector<AttrIndex> attrs8, attrs16, attrs32;
  for (size_t a = 0; a < dims; ++a) {
    const auto attr = static_cast<AttrIndex>(a);
    switch (dataset.column_width(attr)) {
      case ColumnWidth::k8: attrs8.push_back(attr); break;
      case ColumnWidth::k16: attrs16.push_back(attr); break;
      case ColumnWidth::k32: attrs32.push_back(attr); break;
    }
  }
  // Distance block dist[c·kTileRows + r]: contiguous in r, as are the
  // narrow per-class partials.
  std::vector<uint32_t> dist(k * kTileRows);
  std::vector<uint8_t> partial8(attrs8.empty() ? 0 : k * kTileRows);
  std::vector<uint16_t> partial16(attrs16.empty() ? 0 : k * kTileRows);
  for (size_t tb = begin; tb < end; tb += kTileRows) {
    const size_t te = std::min(end, tb + kTileRows);
    const size_t n = te - tb;
    std::fill(dist.begin(), dist.end(), 0u);
    if (!attrs8.empty()) {
      AccumulateMismatches<uint8_t>(dataset, attrs8, modes, tb, n,
                                    &ColumnView::u8, partial8, dist.data());
    }
    if (!attrs16.empty()) {
      AccumulateMismatches<uint16_t>(dataset, attrs16, modes, tb, n,
                                     &ColumnView::u16, partial16,
                                     dist.data());
    }
    // 32-bit attributes accumulate straight into the distance block — the
    // partial and the distance share a width, so no flush step is needed.
    const kernels::KernelTable& kt = kernels::Active();
    for (const AttrIndex a : attrs32) {
      const uint32_t* col = dataset.column(a).u32() + tb;
      for (size_t c = 0; c < k; ++c) {
        kt.hamming_u32(col, n, modes[c][a], dist.data() + c * kTileRows);
      }
    }
    // Hamming distances are exact integers, so this argmin (ties to the
    // lower label) matches the per-row Assign scan exactly.
    for (size_t r = 0; r < n; ++r) {
      ClusterId best = 0;
      uint32_t best_dist = dist[r];
      for (size_t c = 1; c < k; ++c) {
        const uint32_t dc = dist[c * kTileRows + r];
        if (dc < best_dist) {
          best_dist = dc;
          best = static_cast<ClusterId>(c);
        }
      }
      out[tb - begin + r] = best;
    }
  }
}

CentroidClustering::CentroidClustering(
    Schema schema, std::vector<std::vector<double>> centers, std::string name)
    : schema_(std::move(schema)),
      centers_(std::move(centers)),
      name_(std::move(name)) {
  DPX_CHECK(!centers_.empty());
  for (const auto& center : centers_) {
    DPX_CHECK_EQ(center.size(), schema_.num_attributes());
  }
}

ClusterId CentroidClustering::AssignEmbedded(const double* point) const {
  const size_t dims = schema_.num_attributes();
  const kernels::KernelTable& kt = kernels::Active();
  ClusterId best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centers_.size(); ++c) {
    const double dist = kt.squared_distance(point, centers_[c].data(), dims);
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<ClusterId>(c);
    }
  }
  return best;
}

ClusterId CentroidClustering::Assign(
    const std::vector<ValueCode>& tuple) const {
  const std::vector<double> point = EmbedTuple(schema_, tuple);
  return AssignEmbedded(point.data());
}

void CentroidClustering::AssignBatch(const Dataset& dataset, size_t begin,
                                     size_t end, ClusterId* out) const {
  DPX_CHECK_EQ(dataset.num_attributes(), schema_.num_attributes());
  const size_t dims = schema_.num_attributes();
  std::vector<double> scales, offsets;
  EmbedScales(dataset.schema(), &scales, &offsets);
  // Embed one tile at a time straight from the narrow codes — the old path
  // materialized the full n × d double matrix first — then score it against
  // the centers while it is cache-hot. Same per-row arithmetic, same labels.
  std::vector<double> tile(kEmbedTileRows * dims);
  for (size_t tb = begin; tb < end; tb += kEmbedTileRows) {
    const size_t te = std::min(end, tb + kEmbedTileRows);
    EmbedRows(dataset, tb, te, scales.data(), offsets.data(), tile.data());
    for (size_t row = tb; row < te; ++row) {
      out[row - begin] = AssignEmbedded(&tile[(row - tb) * dims]);
    }
  }
}

ModeClustering::ModeClustering(Schema schema,
                               std::vector<std::vector<ValueCode>> modes,
                               std::string name)
    : schema_(std::move(schema)),
      modes_(std::move(modes)),
      name_(std::move(name)) {
  DPX_CHECK(!modes_.empty());
  for (const auto& mode : modes_) {
    DPX_CHECK_EQ(mode.size(), schema_.num_attributes());
  }
}

ClusterId ModeClustering::Assign(const std::vector<ValueCode>& tuple) const {
  DPX_CHECK_EQ(tuple.size(), schema_.num_attributes());
  ClusterId best = 0;
  size_t best_dist = std::numeric_limits<size_t>::max();
  for (size_t c = 0; c < modes_.size(); ++c) {
    size_t dist = 0;
    for (size_t a = 0; a < tuple.size(); ++a) {
      dist += (tuple[a] != modes_[c][a]) ? 1 : 0;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<ClusterId>(c);
    }
  }
  return best;
}

void ModeClustering::AssignBatch(const Dataset& dataset, size_t begin,
                                 size_t end, ClusterId* out) const {
  DPX_CHECK_EQ(dataset.num_attributes(), schema_.num_attributes());
  AssignNearestModes(dataset, modes_, begin, end, out);
}

std::vector<size_t> ClusterSizes(const std::vector<ClusterId>& labels,
                                 size_t num_clusters) {
  std::vector<size_t> sizes(num_clusters, 0);
  for (ClusterId label : labels) {
    DPX_CHECK_LT(label, num_clusters);
    ++sizes[label];
  }
  return sizes;
}

std::vector<std::vector<uint32_t>> ClusterRowIndices(
    const std::vector<ClusterId>& labels, size_t num_clusters) {
  std::vector<std::vector<uint32_t>> indices(num_clusters);
  for (size_t row = 0; row < labels.size(); ++row) {
    DPX_CHECK_LT(labels[row], num_clusters);
    indices[labels[row]].push_back(static_cast<uint32_t>(row));
  }
  return indices;
}

StatusOr<ClusteringMethod> ParseClusteringMethod(const std::string& name) {
  if (name == "k-means") return ClusteringMethod::kKMeans;
  if (name == "dp-k-means") return ClusteringMethod::kDpKMeans;
  if (name == "k-modes") return ClusteringMethod::kKModes;
  if (name == "agglomerative") return ClusteringMethod::kAgglomerative;
  if (name == "gmm") return ClusteringMethod::kGmm;
  return Status::InvalidArgument(
      "unknown method '" + name +
      "' (expected k-means | dp-k-means | k-modes | agglomerative | gmm)");
}

StatusOr<std::unique_ptr<ClusteringFunction>> FitClustering(
    const Dataset& dataset, const ClusteringSpec& spec,
    PrivacyBudget* budget) {
  switch (spec.method) {
    case ClusteringMethod::kKMeans: {
      KMeansOptions options;
      options.num_clusters = spec.num_clusters;
      options.seed = spec.seed;
      return FitKMeans(dataset, options);
    }
    case ClusteringMethod::kDpKMeans: {
      DpKMeansOptions options;
      options.num_clusters = spec.num_clusters;
      options.epsilon = spec.epsilon;
      options.seed = spec.seed;
      return FitDpKMeans(dataset, options, budget);
    }
    case ClusteringMethod::kKModes: {
      KModesOptions options;
      options.num_clusters = spec.num_clusters;
      options.seed = spec.seed;
      return FitKModes(dataset, options);
    }
    case ClusteringMethod::kAgglomerative: {
      AgglomerativeOptions options;
      options.num_clusters = spec.num_clusters;
      options.seed = spec.seed;
      return FitAgglomerative(dataset, options);
    }
    case ClusteringMethod::kGmm: {
      GmmOptions options;
      options.num_components = spec.num_clusters;
      options.seed = spec.seed;
      return FitGmm(dataset, options);
    }
  }
  return Status::InvalidArgument("invalid ClusteringMethod value");
}

}  // namespace dpclustx
