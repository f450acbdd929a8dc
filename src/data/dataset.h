// Columnar dataset of categorical codes.
//
// A dataset is a bag of tuples over a Schema (paper §2). Storage is columnar
// (one contiguous code vector per attribute) because every quality function
// in DPClustX reduces to single-attribute count scans — and each column is
// stored in the narrowest physical width (uint8/uint16/uint32) that covers
// its domain, so those scans move as few bytes as the data allows (see
// data/column.h and DESIGN.md §9).

#ifndef DPCLUSTX_DATA_DATASET_H_
#define DPCLUSTX_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/column.h"
#include "data/histogram.h"
#include "data/schema.h"

namespace dpclustx {

class MappedColumnar;  // data/columnar_format.h

class Dataset {
 public:
  Dataset() = default;
  /// Empty dataset over `schema`. Each column's width is the narrowest that
  /// fits its domain; `policy` = kForce32 pins every column to the legacy
  /// 4-byte layout (equivalence tests, pre-narrowing benchmark baselines).
  explicit Dataset(Schema schema, WidthPolicy policy = WidthPolicy::kAdaptive);

  /// Rebuilds a dataset from pre-built columns — the restore path for
  /// snapshot images that carry inline columns (formats 1–3).
  /// Validates that the column set matches `schema` (count, per-column row
  /// count, width per `policy`) and that every code is inside its
  /// attribute's domain (a snapshot is CRC-protected, but an out-of-domain
  /// code would index past histogram buffers, so restore re-checks).
  static StatusOr<Dataset> FromColumns(Schema schema, WidthPolicy policy,
                                       std::vector<NarrowColumn> columns);

  /// Sentinel for FromMapped: use every committed row in the file.
  static constexpr size_t kAllMappedRows = static_cast<size_t>(-1);

  /// Zero-copy dataset over the first `num_rows` committed rows of a mapped
  /// DPXCOL file (data/columnar_format.h). Column reads go straight into
  /// the mapping; a mapped dataset is immutable (AppendRow refuses) and
  /// keeps the mapping alive for its lifetime. Defined in
  /// columnar_format.cc so dataset.cc stays free of the mmap machinery.
  static StatusOr<Dataset> FromMapped(
      std::shared_ptr<const MappedColumnar> mapped,
      size_t num_rows = kAllMappedRows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return schema_.num_attributes(); }
  WidthPolicy width_policy() const { return width_policy_; }

  /// True when the rows live in a mapped DPXCOL file rather than heap
  /// columns. Mapped datasets are read-only; SelectRows/SelectAttributes/
  /// SampleRows still work and produce heap-backed outputs.
  bool is_mapped() const { return mapped_ != nullptr; }

  /// The backing mapped file, or nullptr for heap datasets.
  const std::shared_ptr<const MappedColumnar>& mapped() const {
    return mapped_;
  }

  /// Physical storage width of one column. Mapped files are validated at
  /// open time to use exactly the policy's widths, so this is the same
  /// answer for both storage kinds.
  ColumnWidth column_width(AttrIndex attr) const {
    return columns_[attr].width();
  }

  /// Reserves capacity for `num_rows` total rows in every column. Bulk
  /// loaders (synth::Generate, the CSV readers) call this once up front so
  /// appending n rows does not reallocate every column log(n) times.
  void Reserve(size_t num_rows);

  /// Appends one tuple. Requires row.size() == num_attributes() and each code
  /// within its attribute's domain; returns InvalidArgument otherwise.
  Status AppendRow(const std::vector<ValueCode>& row);

  /// Appends a tuple without validation. For bulk generators that guarantee
  /// well-formed codes; invalid codes trip DPX_CHECKs downstream.
  void AppendRowUnchecked(const std::vector<ValueCode>& row);

  /// Cell accessor (width-dispatched; cold paths only — hot kernels should
  /// visit column() once and run a typed loop).
  ValueCode at(size_t row, AttrIndex attr) const { return column(attr)[row]; }

  /// Materializes one tuple (for clustering-function evaluation).
  std::vector<ValueCode> Row(size_t row) const;

  /// Materializes one tuple into `out` (resized to num_attributes()),
  /// reusing its capacity — the allocation-free variant per-row scan loops
  /// call with one scratch tuple per shard.
  void RowInto(size_t row, std::vector<ValueCode>* out) const;

  /// Tagged read-only span over one attribute's codes (π_A(D)). Kernels
  /// dispatch on the width once via VisitColumn (data/column.h); the span
  /// points into heap columns or straight into the mapped file — callers
  /// cannot tell the difference, which is what lets the per-ISA kernels run
  /// on mapped data unchanged.
  ColumnView column(AttrIndex attr) const {
    return mapped_ ? mapped_views_[attr] : columns_[attr].view();
  }

  /// One attribute's codes widened to ValueCode. O(n) copy — for cold paths
  /// that want a plain vector regardless of storage width.
  std::vector<ValueCode> ColumnCodes(AttrIndex attr) const;

  /// Exact histogram h_A(D) over dom(A).
  Histogram ComputeHistogram(AttrIndex attr) const;

  /// Exact histogram of the sub-bag given by `row_indices`.
  Histogram ComputeHistogram(AttrIndex attr,
                             const std::vector<uint32_t>& row_indices) const;

  /// Per-group histograms in one pass: result[g] is the histogram of rows with
  /// labels[row] == g. Requires labels.size() == num_rows() and every label
  /// < num_groups.
  std::vector<Histogram> ComputeGroupHistograms(
      AttrIndex attr, const std::vector<uint32_t>& labels,
      size_t num_groups) const;

  /// Per-group histograms of EVERY attribute in one fused sharded pass:
  /// result[attr][g] is the histogram of rows with labels[row] == g. Rows
  /// are sharded across the compute pool (ParallelFor); each shard fills a
  /// flat (attribute × group × value) integer count buffer in one
  /// cache-friendly sweep over all columns, and shards merge by exact
  /// integer addition — the output is bitwise-identical for every
  /// max_threads value (0 = compute-pool width). Returns InvalidArgument on
  /// a label >= num_groups instead of DPX_CHECK-aborting, since callers
  /// (StatsCache::Build) validate through this path.
  StatusOr<std::vector<std::vector<Histogram>>> ComputeAllGroupHistograms(
      const std::vector<uint32_t>& labels, size_t num_groups,
      size_t max_threads = 0) const;

  /// New dataset with only the listed rows (bag semantics: duplicates and
  /// reordering allowed). Column widths carry over.
  Dataset SelectRows(const std::vector<uint32_t>& row_indices) const;

  /// New dataset with only the listed attributes, schema projected to match.
  Dataset SelectAttributes(const std::vector<AttrIndex>& attrs) const;

  /// Bernoulli row sample: keeps each row independently with probability
  /// `fraction` (clamped to [0,1]).
  Dataset SampleRows(double fraction, Rng& rng) const;

 private:
  Schema schema_;
  WidthPolicy width_policy_ = WidthPolicy::kAdaptive;
  std::vector<NarrowColumn> columns_;  // [attr][row]; empty when mapped
  size_t num_rows_ = 0;
  // Mapped storage (Dataset::FromMapped): the file handle that keeps the
  // mmap alive plus one pre-built view per attribute, clamped to this
  // dataset's row count. Exactly one of (columns_ rows, mapped_) holds data.
  std::shared_ptr<const MappedColumnar> mapped_;
  std::vector<ColumnView> mapped_views_;  // [attr]
};

}  // namespace dpclustx

#endif  // DPCLUSTX_DATA_DATASET_H_
