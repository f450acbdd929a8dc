// Narrow-column data-plane equivalence (DESIGN.md §9).
//
// Codes are exact integers in every storage width, so narrowing a column
// from uint32 to uint16/uint8 must not change ANY downstream result: these
// tests pin histograms, group histograms, clustering labels, and end-to-end
// explanations to be bitwise-identical between the adaptive layout and the
// legacy force-32 layout, across the 8/16/32-bit width boundaries (domain
// sizes 2, 255, 256, 65536, 65537), between the batched AssignBatch kernels
// and the per-row Assign scan, and at 0/1/8 threads.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <chrono>

#include "cluster/clustering.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "common/rng.h"
#include "core/explainer.h"
#include "core/serialization.h"
#include "core/stats_cache.h"
#include "data/column.h"
#include "data/columnar_format.h"
#include "data/dataset.h"
#include "data/kernels/isa.h"

namespace dpclustx {
namespace {

// The five domain sizes straddling the uint8/uint16/uint32 boundaries.
const size_t kBoundaryDomains[] = {2, 255, 256, 65536, 65537};

Schema BoundarySchema() {
  std::vector<Attribute> attrs;
  size_t i = 0;
  for (const size_t domain : kBoundaryDomains) {
    attrs.push_back(Attribute::WithAnonymousDomain(
        "attr" + std::to_string(i++), domain));
  }
  return Schema(std::move(attrs));
}

// Deterministic rows exercising the full code range of every domain,
// including the extreme codes 0 and domain−1.
void FillRows(Dataset* dataset, size_t num_rows, uint64_t seed) {
  Rng rng(seed);
  const Schema& schema = dataset->schema();
  dataset->Reserve(num_rows);
  std::vector<ValueCode> row(schema.num_attributes());
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const size_t domain =
          schema.attribute(static_cast<AttrIndex>(a)).domain_size();
      if (r < 2) {
        row[a] = static_cast<ValueCode>(r == 0 ? 0 : domain - 1);
      } else {
        row[a] = static_cast<ValueCode>(rng.UniformInt(domain));
      }
    }
    dataset->AppendRowUnchecked(row);
  }
}

struct LayoutPair {
  Dataset adaptive;
  Dataset force32;
};

LayoutPair MakeBoundaryPair(size_t num_rows, uint64_t seed = 7) {
  LayoutPair pair{Dataset(BoundarySchema(), WidthPolicy::kAdaptive),
                  Dataset(BoundarySchema(), WidthPolicy::kForce32)};
  FillRows(&pair.adaptive, num_rows, seed);
  FillRows(&pair.force32, num_rows, seed);
  return pair;
}

std::vector<uint32_t> MakeLabels(size_t num_rows, size_t num_groups,
                                 uint64_t seed = 11) {
  Rng rng(seed);
  std::vector<uint32_t> labels(num_rows);
  for (uint32_t& label : labels) {
    label = static_cast<uint32_t>(rng.UniformInt(num_groups));
  }
  return labels;
}

TEST(DatasetLayoutTest, AdaptiveWidthsMatchDomainBoundaries) {
  const Dataset dataset(BoundarySchema(), WidthPolicy::kAdaptive);
  EXPECT_EQ(dataset.column_width(0), ColumnWidth::k8);   // domain 2
  EXPECT_EQ(dataset.column_width(1), ColumnWidth::k8);   // domain 255
  EXPECT_EQ(dataset.column_width(2), ColumnWidth::k8);   // domain 256
  EXPECT_EQ(dataset.column_width(3), ColumnWidth::k16);  // domain 65536
  EXPECT_EQ(dataset.column_width(4), ColumnWidth::k32);  // domain 65537

  const Dataset wide(BoundarySchema(), WidthPolicy::kForce32);
  for (AttrIndex a = 0; a < 5; ++a) {
    EXPECT_EQ(wide.column_width(a), ColumnWidth::k32);
  }
}

TEST(DatasetLayoutTest, CellAccessorsIdenticalAcrossWidths) {
  const LayoutPair pair = MakeBoundaryPair(500);
  ASSERT_EQ(pair.adaptive.num_rows(), pair.force32.num_rows());
  std::vector<ValueCode> scratch;
  for (size_t r = 0; r < pair.adaptive.num_rows(); ++r) {
    ASSERT_EQ(pair.adaptive.Row(r), pair.force32.Row(r)) << "row " << r;
    pair.adaptive.RowInto(r, &scratch);
    ASSERT_EQ(scratch, pair.force32.Row(r)) << "row " << r;
  }
  for (AttrIndex a = 0; a < pair.adaptive.num_attributes(); ++a) {
    ASSERT_EQ(pair.adaptive.ColumnCodes(a), pair.force32.ColumnCodes(a));
    const ColumnView narrow = pair.adaptive.column(a);
    const ColumnView wide = pair.force32.column(a);
    ASSERT_EQ(narrow.size(), wide.size());
    for (size_t r = 0; r < narrow.size(); ++r) {
      ASSERT_EQ(narrow[r], wide[r]) << "attr " << a << " row " << r;
    }
  }
}

TEST(DatasetLayoutTest, HistogramsBitwiseIdenticalAcrossWidths) {
  const LayoutPair pair = MakeBoundaryPair(2000);
  for (AttrIndex a = 0; a < pair.adaptive.num_attributes(); ++a) {
    EXPECT_EQ(pair.adaptive.ComputeHistogram(a).bins(),
              pair.force32.ComputeHistogram(a).bins())
        << "attr " << a;
  }
  // Sub-bag histograms over an arbitrary index list (with duplicates).
  std::vector<uint32_t> rows = {0, 1, 1, 5, 99, 1337, 1999};
  for (AttrIndex a = 0; a < pair.adaptive.num_attributes(); ++a) {
    EXPECT_EQ(pair.adaptive.ComputeHistogram(a, rows).bins(),
              pair.force32.ComputeHistogram(a, rows).bins())
        << "attr " << a;
  }
}

TEST(DatasetLayoutTest, GroupHistogramsBitwiseIdenticalAcrossWidthsAndThreads) {
  constexpr size_t kGroups = 4;
  const LayoutPair pair = MakeBoundaryPair(2000);
  const std::vector<uint32_t> labels = MakeLabels(2000, kGroups);

  for (AttrIndex a = 0; a < pair.adaptive.num_attributes(); ++a) {
    const auto narrow =
        pair.adaptive.ComputeGroupHistograms(a, labels, kGroups);
    const auto wide = pair.force32.ComputeGroupHistograms(a, labels, kGroups);
    for (size_t g = 0; g < kGroups; ++g) {
      EXPECT_EQ(narrow[g].bins(), wide[g].bins())
          << "attr " << a << " group " << g;
    }
  }

  // The fused sweep: every (width, thread-count) combination must agree
  // bin-for-bin. 0 = compute-pool width.
  const auto reference =
      pair.force32.ComputeAllGroupHistograms(labels, kGroups, 1);
  ASSERT_TRUE(reference.ok());
  for (const Dataset* dataset : {&pair.adaptive, &pair.force32}) {
    for (const size_t threads : {size_t{0}, size_t{1}, size_t{8}}) {
      const auto got =
          dataset->ComputeAllGroupHistograms(labels, kGroups, threads);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), reference->size());
      for (size_t a = 0; a < got->size(); ++a) {
        for (size_t g = 0; g < kGroups; ++g) {
          EXPECT_EQ((*got)[a][g].bins(), (*reference)[a][g].bins())
              << "attr " << a << " group " << g << " threads " << threads;
        }
      }
    }
  }
}

TEST(DatasetLayoutTest, SelectAndSamplePreserveEquivalence) {
  const LayoutPair pair = MakeBoundaryPair(800);
  const std::vector<uint32_t> rows = {7, 7, 0, 799, 123, 456};
  const Dataset narrow_sel = pair.adaptive.SelectRows(rows);
  const Dataset wide_sel = pair.force32.SelectRows(rows);
  EXPECT_EQ(narrow_sel.width_policy(), WidthPolicy::kAdaptive);
  EXPECT_EQ(wide_sel.width_policy(), WidthPolicy::kForce32);
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(narrow_sel.Row(r), wide_sel.Row(r));
  }

  const Dataset narrow_proj = pair.adaptive.SelectAttributes({4, 0, 3});
  const Dataset wide_proj = pair.force32.SelectAttributes({4, 0, 3});
  EXPECT_EQ(narrow_proj.column_width(0), ColumnWidth::k32);  // domain 65537
  EXPECT_EQ(narrow_proj.column_width(1), ColumnWidth::k8);   // domain 2
  EXPECT_EQ(narrow_proj.column_width(2), ColumnWidth::k16);  // domain 65536
  for (size_t r = 0; r < narrow_proj.num_rows(); ++r) {
    EXPECT_EQ(narrow_proj.Row(r), wide_proj.Row(r));
  }

  Rng rng_a(3), rng_b(3);
  const Dataset narrow_sample = pair.adaptive.SampleRows(0.4, rng_a);
  const Dataset wide_sample = pair.force32.SampleRows(0.4, rng_b);
  ASSERT_EQ(narrow_sample.num_rows(), wide_sample.num_rows());
  for (size_t r = 0; r < narrow_sample.num_rows(); ++r) {
    EXPECT_EQ(narrow_sample.Row(r), wide_sample.Row(r));
  }
}

TEST(DatasetLayoutTest, EmbeddingBitwiseIdenticalAcrossWidths) {
  const LayoutPair pair = MakeBoundaryPair(1200);
  const std::vector<double> narrow = EmbedDataset(pair.adaptive);
  const std::vector<double> wide = EmbedDataset(pair.force32);
  ASSERT_EQ(narrow.size(), wide.size());
  for (size_t i = 0; i < narrow.size(); ++i) {
    ASSERT_EQ(narrow[i], wide[i]) << "coordinate " << i;  // bitwise, not NEAR
  }
  // And the tile primitive agrees with the per-tuple embedding.
  for (size_t r = 0; r < 50; ++r) {
    const std::vector<double> tuple =
        EmbedTuple(pair.adaptive.schema(), pair.adaptive.Row(r));
    for (size_t a = 0; a < tuple.size(); ++a) {
      ASSERT_EQ(narrow[r * tuple.size() + a], tuple[a]);
    }
  }
}

// Every fitted clustering must produce identical labels on both layouts,
// through AssignAll (batched kernels), per-row Assign, and the default
// scratch-tuple AssignBatch fallback.
void ExpectAssignmentEquivalence(const ClusteringFunction& clustering,
                                 const Dataset& narrow, const Dataset& wide) {
  const std::vector<ClusterId> batched = clustering.AssignAll(narrow);
  EXPECT_EQ(batched, clustering.AssignAll(wide));

  std::vector<ClusterId> direct(narrow.num_rows());
  clustering.AssignBatch(narrow, 0, narrow.num_rows(), direct.data());
  EXPECT_EQ(batched, direct);

  // Unaligned batch windows must see the same labels as full sweeps.
  if (narrow.num_rows() > 70) {
    std::vector<ClusterId> window(63);
    clustering.AssignBatch(narrow, 7, 70, window.data());
    for (size_t i = 0; i < window.size(); ++i) {
      EXPECT_EQ(window[i], batched[7 + i]) << "window row " << (7 + i);
    }
  }

  for (size_t r = 0; r < narrow.num_rows(); ++r) {
    ASSERT_EQ(batched[r], clustering.Assign(narrow.Row(r))) << "row " << r;
  }
}

TEST(DatasetLayoutTest, ClusteringLabelsIdenticalAcrossWidthsAndKernels) {
  constexpr size_t kRows = 600;
  constexpr size_t kClusters = 4;
  const LayoutPair pair = MakeBoundaryPair(kRows);

  KModesOptions kmodes;
  kmodes.num_clusters = kClusters;
  kmodes.seed = 5;
  KMeansOptions kmeans;
  kmeans.num_clusters = kClusters;
  kmeans.seed = 5;
  GmmOptions gmm;
  gmm.num_components = kClusters;
  gmm.seed = 5;
  gmm.max_iterations = 10;

  for (const size_t threads : {size_t{0}, size_t{1}, size_t{8}}) {
    kmodes.num_threads = threads;
    kmeans.num_threads = threads;
    gmm.num_threads = threads;

    const auto modes_narrow = FitKModes(pair.adaptive, kmodes);
    const auto modes_wide = FitKModes(pair.force32, kmodes);
    ASSERT_TRUE(modes_narrow.ok() && modes_wide.ok());
    EXPECT_EQ((*modes_narrow)->AssignAll(pair.adaptive),
              (*modes_wide)->AssignAll(pair.force32))
        << "k-modes fit diverged at threads=" << threads;
    ExpectAssignmentEquivalence(**modes_narrow, pair.adaptive, pair.force32);

    const auto kmeans_narrow = FitKMeans(pair.adaptive, kmeans);
    const auto kmeans_wide = FitKMeans(pair.force32, kmeans);
    ASSERT_TRUE(kmeans_narrow.ok() && kmeans_wide.ok());
    EXPECT_EQ((*kmeans_narrow)->AssignAll(pair.adaptive),
              (*kmeans_wide)->AssignAll(pair.force32))
        << "k-means fit diverged at threads=" << threads;
    ExpectAssignmentEquivalence(**kmeans_narrow, pair.adaptive, pair.force32);

    const auto gmm_narrow = FitGmm(pair.adaptive, gmm);
    const auto gmm_wide = FitGmm(pair.force32, gmm);
    ASSERT_TRUE(gmm_narrow.ok() && gmm_wide.ok());
    EXPECT_EQ((*gmm_narrow)->AssignAll(pair.adaptive),
              (*gmm_wide)->AssignAll(pair.force32))
        << "gmm fit diverged at threads=" << threads;
    ExpectAssignmentEquivalence(**gmm_narrow, pair.adaptive, pair.force32);
  }
}

// ---- Multi-arch kernel dispatch (DESIGN.md §12) ----
//
// The per-ISA kernel TUs compile identical source at different vector
// widths; integer kernels (and the fixed-reduction float kernels) must
// produce bitwise-identical results at every level the host can run. Each
// sweep below pins every supported level against a forced-generic
// reference, across storage widths and thread counts.

TEST(KernelDispatchTest, ForcingSwitchesAndRestoresActiveLevel) {
  const std::vector<kernels::IsaLevel> levels = kernels::SupportedIsaLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), kernels::IsaLevel::kGeneric);
  EXPECT_LE(kernels::ActiveIsaLevel(), kernels::DetectedIsaLevel());
  const kernels::IsaLevel before = kernels::ActiveIsaLevel();
  for (const kernels::IsaLevel level : levels) {
    kernels::ScopedForceIsa force(level);
    EXPECT_EQ(kernels::ActiveIsaLevel(), level);
  }
  EXPECT_EQ(kernels::ActiveIsaLevel(), before);
  {
    // Forcing above the detected level clamps instead of dispatching
    // unsupported instructions.
    kernels::ScopedForceIsa force(kernels::IsaLevel::kAvx512);
    EXPECT_LE(kernels::ActiveIsaLevel(), kernels::DetectedIsaLevel());
  }
}

TEST(KernelDispatchTest, HistogramsBitwiseIdenticalAcrossIsaLevels) {
  constexpr size_t kGroups = 4;
  const LayoutPair pair = MakeBoundaryPair(3000);
  const std::vector<uint32_t> labels = MakeLabels(3000, kGroups);
  std::vector<uint32_t> rows = {0, 1, 1, 5, 99, 1337, 2999};

  struct Reference {
    std::vector<std::vector<double>> hists;
    std::vector<std::vector<double>> row_hists;
    std::vector<std::vector<std::vector<double>>> group_hists;
  };
  const auto compute = [&](const Dataset& dataset, size_t threads) {
    Reference out;
    for (AttrIndex a = 0; a < dataset.num_attributes(); ++a) {
      out.hists.push_back(dataset.ComputeHistogram(a).bins());
      out.row_hists.push_back(dataset.ComputeHistogram(a, rows).bins());
    }
    const auto grouped =
        dataset.ComputeAllGroupHistograms(labels, kGroups, threads);
    EXPECT_TRUE(grouped.ok());
    for (const auto& per_attr : *grouped) {
      auto& slot = out.group_hists.emplace_back();
      for (const Histogram& h : per_attr) slot.push_back(h.bins());
    }
    return out;
  };

  kernels::ScopedForceIsa generic(kernels::IsaLevel::kGeneric);
  const Reference reference = compute(pair.force32, 1);
  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    for (const Dataset* dataset : {&pair.adaptive, &pair.force32}) {
      for (const size_t threads : {size_t{1}, size_t{8}}) {
        const Reference got = compute(*dataset, threads);
        EXPECT_EQ(got.hists, reference.hists)
            << "isa " << kernels::IsaLevelName(level) << " threads "
            << threads;
        EXPECT_EQ(got.row_hists, reference.row_hists)
            << "isa " << kernels::IsaLevelName(level);
        EXPECT_EQ(got.group_hists, reference.group_hists)
            << "isa " << kernels::IsaLevelName(level) << " threads "
            << threads;
      }
    }
  }
}

TEST(KernelDispatchTest, EmbeddingBitwiseIdenticalAcrossIsaLevels) {
  const LayoutPair pair = MakeBoundaryPair(1200);
  std::vector<double> reference;
  {
    kernels::ScopedForceIsa generic(kernels::IsaLevel::kGeneric);
    reference = EmbedDataset(pair.force32);
  }
  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    for (const Dataset* dataset : {&pair.adaptive, &pair.force32}) {
      const std::vector<double> got = EmbedDataset(*dataset);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], reference[i])  // bitwise, not NEAR
            << "isa " << kernels::IsaLevelName(level) << " coordinate " << i;
      }
    }
  }
}

// Clustering fits consume the kernels' float outputs (squared distances,
// quadratic forms, weighted accumulations), so identical fits + labels at
// every level prove the fixed-reduction contract end to end.
TEST(KernelDispatchTest, ClusteringLabelsIdenticalAcrossIsaLevels) {
  constexpr size_t kRows = 600;
  constexpr size_t kClusters = 4;
  const LayoutPair pair = MakeBoundaryPair(kRows);

  KModesOptions kmodes;
  kmodes.num_clusters = kClusters;
  kmodes.seed = 5;
  KMeansOptions kmeans;
  kmeans.num_clusters = kClusters;
  kmeans.seed = 5;
  GmmOptions gmm;
  gmm.num_components = kClusters;
  gmm.seed = 5;
  gmm.max_iterations = 10;

  std::vector<ClusterId> ref_modes, ref_means, ref_gmm;
  std::unique_ptr<ClusteringFunction> generic_gmm;
  {
    kernels::ScopedForceIsa generic(kernels::IsaLevel::kGeneric);
    ref_modes = (*FitKModes(pair.adaptive, kmodes))->AssignAll(pair.adaptive);
    ref_means = (*FitKMeans(pair.adaptive, kmeans))->AssignAll(pair.adaptive);
    auto fitted = FitGmm(pair.adaptive, gmm);
    ASSERT_TRUE(fitted.ok());
    generic_gmm = std::move(fitted).value();
    ref_gmm = generic_gmm->AssignAll(pair.adaptive);
  }

  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      kmodes.num_threads = threads;
      kmeans.num_threads = threads;
      gmm.num_threads = threads;

      const auto modes = FitKModes(pair.adaptive, kmodes);
      ASSERT_TRUE(modes.ok());
      EXPECT_EQ((*modes)->AssignAll(pair.adaptive), ref_modes)
          << "k-modes diverged at isa " << kernels::IsaLevelName(level)
          << " threads " << threads;
      ExpectAssignmentEquivalence(**modes, pair.adaptive, pair.force32);

      const auto means = FitKMeans(pair.adaptive, kmeans);
      ASSERT_TRUE(means.ok());
      EXPECT_EQ((*means)->AssignAll(pair.adaptive), ref_means)
          << "k-means diverged at isa " << kernels::IsaLevelName(level)
          << " threads " << threads;
      ExpectAssignmentEquivalence(**means, pair.adaptive, pair.force32);

      const auto mixture = FitGmm(pair.adaptive, gmm);
      ASSERT_TRUE(mixture.ok());
      EXPECT_EQ((*mixture)->AssignAll(pair.adaptive), ref_gmm)
          << "gmm diverged at isa " << kernels::IsaLevelName(level)
          << " threads " << threads;
      ExpectAssignmentEquivalence(**mixture, pair.adaptive, pair.force32);
    }
    // Cross-level scoring: a model fitted at the generic level must assign
    // the same labels when scored by this level's kernels.
    EXPECT_EQ(generic_gmm->AssignAll(pair.adaptive), ref_gmm)
        << "generic-fitted gmm scored differently at isa "
        << kernels::IsaLevelName(level);
  }
}

TEST(KernelDispatchTest, ExplanationsBitwiseIdenticalAcrossIsaLevels) {
  constexpr size_t kRows = 1500;
  constexpr size_t kClusters = 3;
  const LayoutPair pair = MakeBoundaryPair(kRows);
  const std::vector<uint32_t> labels = MakeLabels(kRows, kClusters);

  DpClustXOptions options;
  options.seed = 21;
  options.num_threads = 1;

  std::string reference;
  {
    kernels::ScopedForceIsa generic(kernels::IsaLevel::kGeneric);
    const auto explanation = ExplainDpClustXWithLabels(pair.adaptive, labels,
                                                       kClusters, options);
    ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
    reference = ExplanationToJson(*explanation, pair.adaptive.schema());
  }
  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    const auto explanation = ExplainDpClustXWithLabels(pair.adaptive, labels,
                                                       kClusters, options);
    ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
    EXPECT_EQ(ExplanationToJson(*explanation, pair.adaptive.schema()),
              reference)
        << "explanation diverged at isa " << kernels::IsaLevelName(level);
  }
}

TEST(DatasetLayoutTest, ExplanationsBitwiseIdenticalAcrossWidthsAndThreads) {
  constexpr size_t kRows = 1500;
  constexpr size_t kClusters = 3;
  const LayoutPair pair = MakeBoundaryPair(kRows);
  const std::vector<uint32_t> labels = MakeLabels(kRows, kClusters);

  DpClustXOptions options;
  options.seed = 21;

  // Reference: the legacy layout, serial. Neither the storage width nor the
  // thread count may change the bytes.
  options.num_threads = 1;
  const auto reference = ExplainDpClustXWithLabels(pair.force32, labels,
                                                   kClusters, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected =
      ExplanationToJson(*reference, pair.force32.schema());
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    options.num_threads = threads;
    const auto narrow = ExplainDpClustXWithLabels(pair.adaptive, labels,
                                                  kClusters, options);
    const auto wide = ExplainDpClustXWithLabels(pair.force32, labels,
                                                kClusters, options);
    ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
    ASSERT_TRUE(wide.ok()) << wide.status().ToString();
    EXPECT_EQ(ExplanationToJson(*narrow, pair.adaptive.schema()), expected)
        << "narrow explanation diverged at threads=" << threads;
    EXPECT_EQ(ExplanationToJson(*wide, pair.force32.schema()), expected)
        << "wide explanation diverged at threads=" << threads;
  }
}

// ---- Memory-mapped DPXCOL equivalence (DESIGN.md §13) ----
//
// A mapped dataset hands the kernels pointers into the page cache instead
// of heap columns; nothing downstream may notice. These sweeps pin the
// mapped layout to the heap layout bitwise — histograms, fits, and
// explanation JSON — across ISA levels and thread counts, and pin the
// append-only delta build (StatsCache::BuildAppended) to a cold rebuild.

std::string MappedTempPath(const std::string& name) {
  return testing::TempDir() + "/dpclustx_layout_" + name;
}

StatusOr<Dataset> WriteAndMap(const Dataset& heap, const std::string& path) {
  DPX_RETURN_IF_ERROR(WriteColumnarFile(heap, path));
  DPX_ASSIGN_OR_RETURN(std::shared_ptr<const MappedColumnar> mapped,
                       MappedColumnar::Open(path));
  return Dataset::FromMapped(std::move(mapped));
}

TEST(MappedLayoutTest, MappedDatasetBitwiseIdenticalToHeap) {
  constexpr size_t kRows = 2000;
  constexpr size_t kGroups = 4;
  Dataset heap(BoundarySchema(), WidthPolicy::kAdaptive);
  FillRows(&heap, kRows, 7);
  const auto mapped = WriteAndMap(heap, MappedTempPath("equiv.dpxcol"));
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(mapped->is_mapped());
  const std::vector<uint32_t> labels = MakeLabels(kRows, kGroups);

  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    for (AttrIndex a = 0; a < heap.num_attributes(); ++a) {
      ASSERT_EQ(mapped->ComputeHistogram(a).bins(),
                heap.ComputeHistogram(a).bins())
          << "attr " << a << " isa " << kernels::IsaLevelName(level);
    }
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      const auto from_heap =
          heap.ComputeAllGroupHistograms(labels, kGroups, threads);
      const auto from_map =
          mapped->ComputeAllGroupHistograms(labels, kGroups, threads);
      ASSERT_TRUE(from_heap.ok() && from_map.ok());
      for (size_t a = 0; a < from_heap->size(); ++a) {
        for (size_t g = 0; g < kGroups; ++g) {
          ASSERT_EQ((*from_map)[a][g].bins(), (*from_heap)[a][g].bins())
              << "attr " << a << " group " << g << " isa "
              << kernels::IsaLevelName(level) << " threads " << threads;
        }
      }
    }
  }

  // Fitted models and end-to-end explanation bytes agree too.
  KModesOptions kmodes;
  kmodes.num_clusters = kGroups;
  kmodes.seed = 5;
  const auto fit_heap = FitKModes(heap, kmodes);
  const auto fit_map = FitKModes(*mapped, kmodes);
  ASSERT_TRUE(fit_heap.ok() && fit_map.ok());
  EXPECT_EQ((*fit_map)->AssignAll(*mapped), (*fit_heap)->AssignAll(heap));

  DpClustXOptions options;
  options.seed = 21;
  options.num_threads = 1;
  const auto heap_explained =
      ExplainDpClustXWithLabels(heap, labels, kGroups, options);
  const auto map_explained =
      ExplainDpClustXWithLabels(*mapped, labels, kGroups, options);
  ASSERT_TRUE(heap_explained.ok()) << heap_explained.status().ToString();
  ASSERT_TRUE(map_explained.ok()) << map_explained.status().ToString();
  EXPECT_EQ(ExplanationToJson(*map_explained, mapped->schema()),
            ExplanationToJson(*heap_explained, heap.schema()));
}

void ExpectSameCache(const StatsCache& a, const StatsCache& b,
                     const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.cluster_sizes(), b.cluster_sizes()) << what;
  for (AttrIndex attr = 0; attr < a.num_attributes(); ++attr) {
    ASSERT_EQ(a.full_histogram(attr).bins(), b.full_histogram(attr).bins())
        << what << " attr " << attr;
    for (ClusterId c = 0; c < a.num_clusters(); ++c) {
      ASSERT_EQ(a.cluster_histogram(c, attr).bins(),
                b.cluster_histogram(c, attr).bins())
          << what << " attr " << attr << " cluster " << c;
    }
  }
}

TEST(MappedLayoutTest, AppendedStatsIdenticalToColdRebuild) {
  constexpr size_t kBaseRows = 1500;
  constexpr size_t kTailRows = 300;
  constexpr size_t kGroups = 4;
  // FillRows is a deterministic stream, so a kBaseRows fill is exactly the
  // prefix of a (kBaseRows + kTailRows) fill with the same seed.
  Dataset full(BoundarySchema(), WidthPolicy::kAdaptive);
  FillRows(&full, kBaseRows + kTailRows, 7);
  Dataset base(BoundarySchema(), WidthPolicy::kAdaptive);
  FillRows(&base, kBaseRows, 7);
  std::vector<uint32_t> tail_rows(kTailRows);
  for (size_t i = 0; i < kTailRows; ++i) {
    tail_rows[i] = static_cast<uint32_t>(kBaseRows + i);
  }
  const Dataset tail = full.SelectRows(tail_rows);

  const std::vector<uint32_t> labels =
      MakeLabels(kBaseRows + kTailRows, kGroups);
  const std::vector<uint32_t> base_labels(labels.begin(),
                                          labels.begin() + kBaseRows);
  const std::vector<uint32_t> tail_labels(labels.begin() + kBaseRows,
                                          labels.end());

  const auto mapped_full = WriteAndMap(full, MappedTempPath("full.dpxcol"));
  const auto mapped_base = WriteAndMap(base, MappedTempPath("base.dpxcol"));
  ASSERT_TRUE(mapped_full.ok() && mapped_base.ok());

  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      const std::string what = std::string("isa ") +
                               kernels::IsaLevelName(level) + " threads " +
                               std::to_string(threads);
      const auto cold = StatsCache::Build(full, labels, kGroups, threads);
      ASSERT_TRUE(cold.ok()) << what;
      for (const Dataset* base_variant :
           {static_cast<const Dataset*>(&base),
            static_cast<const Dataset*>(&*mapped_base)}) {
        const auto warm = StatsCache::Build(*base_variant, base_labels,
                                            kGroups, threads);
        ASSERT_TRUE(warm.ok()) << what;
        const auto delta =
            StatsCache::BuildAppended(*warm, tail, tail_labels, threads);
        ASSERT_TRUE(delta.ok()) << what;
        ExpectSameCache(*delta, *cold,
                        what + (base_variant->is_mapped() ? " mapped"
                                                          : " heap"));
      }
      // Cold-building from the mapped full file agrees as well.
      const auto cold_mapped =
          StatsCache::Build(*mapped_full, labels, kGroups, threads);
      ASSERT_TRUE(cold_mapped.ok()) << what;
      ExpectSameCache(*cold_mapped, *cold, what + " cold-mapped");
    }
  }
}

// The acceptance bar for the format: a Census-scale file (2.46M rows × 68
// attributes) opens in milliseconds because Open is O(header) — mmap plus
// structural checks, never a data scan. Building and writing the file
// dominates this test's runtime; the open itself is timed best-of-3 to
// shrug off scheduler noise.
TEST(MappedLayoutTest, CensusScaleOpenIsHeaderTimeOnly) {
  constexpr size_t kRows = 2460000;
  constexpr size_t kAttrs = 68;
  std::vector<Attribute> attrs;
  attrs.reserve(kAttrs);
  for (size_t a = 0; a < kAttrs; ++a) {
    attrs.push_back(Attribute::WithAnonymousDomain(
        "attr" + std::to_string(a), 2 + (a % 31)));
  }
  Dataset dataset(Schema(std::move(attrs)), WidthPolicy::kAdaptive);
  dataset.Reserve(kRows);
  std::vector<ValueCode> row(kAttrs);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t a = 0; a < kAttrs; ++a) {
      // Deterministic filler touching every code of every domain.
      row[a] = static_cast<ValueCode>((r * (a + 3) + 17) % (2 + (a % 31)));
    }
    dataset.AppendRowUnchecked(row);
  }
  const std::string path = MappedTempPath("census.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(dataset, path).ok());

  double best_ms = 1e9;
  std::shared_ptr<const MappedColumnar> mapped;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    auto opened = MappedColumnar::Open(path);
    const auto elapsed = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(opened.ok()) << opened.status();
    mapped = std::move(*opened);
    best_ms = std::min(best_ms, elapsed.count());
  }
  EXPECT_LT(best_ms, 10.0) << "O(header) open regressed to a data scan?";
  EXPECT_EQ(mapped->num_rows(), kRows);

  // And the mapping is genuinely usable: one histogram over 2.46M mapped
  // rows, checked against exact arithmetic for one of the cyclic fillers.
  const auto ds = Dataset::FromMapped(mapped);
  ASSERT_TRUE(ds.ok()) << ds.status();
  const Histogram hist = ds->ComputeHistogram(0);  // domain 2, filler r*3+17
  double total = 0;
  for (const double bin : hist.bins()) total += bin;
  EXPECT_EQ(total, static_cast<double>(kRows));

  std::remove(path.c_str());  // 167 MB — do not leave it in TempDir
}

}  // namespace
}  // namespace dpclustx
