// Thread-count invariance of the parallel execution layer.
//
// The determinism contract (common/thread_pool.h): ParallelFor's chunk
// structure is a pure function of (n, grain), so chunk-merged results are
// bit-identical at any parallelism. These tests pin the contract for the
// primitives (ParallelFor itself), the fused StatsCache build, the
// clustering kernels (k-means, k-modes, GMM), and Stage-2 (the combination
// search at every thread count and ISA level, its per-ISA Gumbel kernel,
// and the explanation it feeds).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "common/thread_pool.h"
#include "core/explainer.h"
#include "core/serialization.h"
#include "core/stats_cache.h"
#include "data/kernels/isa.h"
#include "data/kernels/kernel_table.h"
#include "data/synthetic.h"

namespace dpclustx {
namespace {

// Force a multi-worker compute pool even on single-core CI hosts so the
// parallel dispatch path actually runs. Must happen before the first
// ParallelFor resolves the pool width; a file-scope initializer runs before
// gtest_main. overwrite=0 keeps an externally exported DPCLUSTX_THREADS
// (e.g. the TSan run in scripts/check.sh).
const bool g_env_ready = [] {
  setenv("DPCLUSTX_THREADS", "8", /*overwrite=*/0);
  return true;
}();

Dataset TestDataset(size_t rows) {
  synth::SyntheticConfig config;
  config.num_rows = rows;
  config.num_attributes = 10;
  config.num_latent_groups = 4;
  config.max_domain = 12;
  config.seed = 42;
  auto dataset = synth::Generate(config);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

std::vector<ClusterId> CyclicLabels(size_t rows, size_t num_clusters) {
  std::vector<ClusterId> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    labels[r] = static_cast<ClusterId>(r % num_clusters);
  }
  return labels;
}

TEST(ParallelForTest, CoversEveryIndexOnceAtAnyWidth) {
  const size_t n = 10000;
  const size_t grain = 128;
  const size_t chunks = ParallelForNumChunks(n, grain);
  ASSERT_GT(chunks, 1u);
  std::vector<size_t> reference_chunk_of;
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}, size_t{0}}) {
    std::vector<int> visits(n, 0);
    std::vector<size_t> chunk_of(n, chunks);
    ParallelFor(
        n, grain,
        [&](size_t chunk, size_t begin, size_t end) {
          ASSERT_LT(chunk, chunks);
          for (size_t i = begin; i < end; ++i) {
            ++visits[i];  // disjoint ranges: no synchronization needed
            chunk_of[i] = chunk;
          }
        },
        threads);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i], 1) << "index " << i << " at threads=" << threads;
    }
    if (reference_chunk_of.empty()) {
      reference_chunk_of = chunk_of;  // the serial run defines the structure
    } else {
      // Chunk boundaries are the same pure function of (n, grain) at every
      // width.
      ASSERT_EQ(chunk_of, reference_chunk_of) << "threads " << threads;
    }
  }
}

TEST(ParallelForTest, ChunkMergedSumsAreBitIdenticalAcrossWidths) {
  const size_t n = 50000;
  const size_t grain = 1000;
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const size_t chunks = ParallelForNumChunks(n, grain);
  auto chunked_sum = [&](size_t threads) {
    std::vector<double> partial(chunks, 0.0);
    ParallelFor(
        n, grain,
        [&](size_t chunk, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) partial[chunk] += values[i];
        },
        threads);
    double total = 0.0;
    for (double p : partial) total += p;  // ascending chunk order
    return total;
  };
  const double serial = chunked_sum(1);
  EXPECT_EQ(serial, chunked_sum(3));
  EXPECT_EQ(serial, chunked_sum(8));
  EXPECT_EQ(serial, chunked_sum(0));
}

TEST(ParallelForTest, NestedCallsRunInlineAndFinish) {
  const size_t n = 64;
  std::vector<int> counts(n, 0);
  ParallelFor(n, 4, [&](size_t /*chunk*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // The inner call must not wait on the pool (it would deadlock when
      // every worker is already inside the outer loop); it runs inline.
      ParallelFor(8, 2, [&](size_t /*c*/, size_t b, size_t e) {
        counts[i] += static_cast<int>(e - b);
      });
    }
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 8);
}

TEST(ParallelForTest, HugeInputsKeepChunkCountBounded) {
  // The internal shard cap bounds per-chunk accumulator arrays; boundaries
  // must still tile [0, n) exactly.
  const size_t n = size_t{1} << 22;
  const size_t chunks = ParallelForNumChunks(n, 1);
  EXPECT_LE(chunks, 256u);
  size_t covered = 0;
  size_t last_end = 0;
  ParallelFor(n, 1, [&](size_t /*chunk*/, size_t begin, size_t end) {
    // Serial check (threads=1): ranges arrive in order and abut.
    EXPECT_EQ(begin, last_end);
    last_end = end;
    covered += end - begin;
  }, 1);
  EXPECT_EQ(covered, n);
  EXPECT_EQ(last_end, n);
}

TEST(HistogramTest, PlusInPlaceMatchesPlus) {
  Histogram a(std::vector<double>{1.0, 2.5, 0.0, 4.0});
  const Histogram b(std::vector<double>{0.5, 0.0, 3.0, 1.0});
  const Histogram sum = a.Plus(b);
  a.PlusInPlace(b);
  EXPECT_EQ(a.bins(), sum.bins());
}

TEST(DatasetTest, ReserveKeepsAppendSemantics) {
  Schema schema({Attribute::WithAnonymousDomain("a", 3),
                 Attribute::WithAnonymousDomain("b", 2)});
  Dataset dataset(schema);
  dataset.Reserve(100);
  EXPECT_EQ(dataset.num_rows(), 0u);
  dataset.AppendRowUnchecked({2, 1});
  dataset.AppendRowUnchecked({0, 0});
  EXPECT_EQ(dataset.num_rows(), 2u);
  EXPECT_EQ(dataset.at(0, 0), 2u);
  EXPECT_EQ(dataset.at(1, 1), 0u);
}

TEST(FusedCountsTest, MatchesPerAttributeReferenceExactly) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 7;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);
  const auto fused =
      dataset.ComputeAllGroupHistograms(labels, num_clusters);
  ASSERT_TRUE(fused.ok());
  for (size_t a = 0; a < dataset.num_attributes(); ++a) {
    const std::vector<Histogram> reference = dataset.ComputeGroupHistograms(
        static_cast<AttrIndex>(a), labels, num_clusters);
    ASSERT_EQ((*fused)[a].size(), reference.size());
    for (size_t c = 0; c < num_clusters; ++c) {
      EXPECT_EQ((*fused)[a][c].bins(), reference[c].bins())
          << "attr " << a << " cluster " << c;
    }
  }
}

TEST(FusedCountsTest, BitwiseIdenticalAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 5;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);
  const auto serial = dataset.ComputeAllGroupHistograms(labels, num_clusters,
                                                        /*max_threads=*/1);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    const auto parallel =
        dataset.ComputeAllGroupHistograms(labels, num_clusters, threads);
    ASSERT_TRUE(parallel.ok());
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      for (size_t c = 0; c < num_clusters; ++c) {
        ASSERT_EQ((*serial)[a][c].bins(), (*parallel)[a][c].bins())
            << "attr " << a << " cluster " << c << " threads " << threads;
      }
    }
  }
}

TEST(FusedCountsTest, RejectsBadLabelsInsteadOfCounting) {
  const Dataset dataset = TestDataset(20000);
  std::vector<ClusterId> labels = CyclicLabels(dataset.num_rows(), 4);
  labels[12345] = 9;  // >= num_clusters, deep inside a shard
  EXPECT_FALSE(dataset.ComputeAllGroupHistograms(labels, 4).ok());
  EXPECT_FALSE(
      dataset.ComputeAllGroupHistograms({0, 1}, 4).ok());  // wrong size
  EXPECT_FALSE(
      dataset
          .ComputeAllGroupHistograms(CyclicLabels(dataset.num_rows(), 4), 0)
          .ok());
}

TEST(StatsCacheParallelTest, BuildBitwiseIdenticalAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 6;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);
  const auto serial =
      StatsCache::Build(dataset, labels, num_clusters, /*num_threads=*/1);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    const auto parallel =
        StatsCache::Build(dataset, labels, num_clusters, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->cluster_sizes(), serial->cluster_sizes());
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      const auto attr = static_cast<AttrIndex>(a);
      ASSERT_EQ(parallel->full_histogram(attr).bins(),
                serial->full_histogram(attr).bins());
      for (size_t c = 0; c < num_clusters; ++c) {
        const auto cluster = static_cast<ClusterId>(c);
        ASSERT_EQ(parallel->cluster_histogram(cluster, attr).bins(),
                  serial->cluster_histogram(cluster, attr).bins());
      }
    }
  }
}

TEST(ClusteringParallelTest, KMeansLabelsInvariantAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  KMeansOptions options;
  options.num_clusters = 4;
  options.max_iterations = 10;
  options.seed = 7;
  options.num_threads = 1;
  const auto serial = FitKMeans(dataset, options);
  ASSERT_TRUE(serial.ok());
  const std::vector<ClusterId> serial_labels = (*serial)->AssignAll(dataset);
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    options.num_threads = threads;
    const auto parallel = FitKMeans(dataset, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*parallel)->AssignAll(dataset), serial_labels)
        << "threads " << threads;
  }
}

TEST(ClusteringParallelTest, KModesLabelsInvariantAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  KModesOptions options;
  options.num_clusters = 4;
  options.max_iterations = 6;
  options.seed = 7;
  options.num_threads = 1;
  const auto serial = FitKModes(dataset, options);
  ASSERT_TRUE(serial.ok());
  const std::vector<ClusterId> serial_labels = (*serial)->AssignAll(dataset);
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    options.num_threads = threads;
    const auto parallel = FitKModes(dataset, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*parallel)->AssignAll(dataset), serial_labels)
        << "threads " << threads;
  }
}

TEST(ClusteringParallelTest, GmmLabelsInvariantAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  GmmOptions options;
  options.num_components = 4;
  options.max_iterations = 6;
  options.seed = 7;
  options.num_threads = 1;
  const auto serial = FitGmm(dataset, options);
  ASSERT_TRUE(serial.ok());
  const std::vector<ClusterId> serial_labels = (*serial)->AssignAll(dataset);
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    options.num_threads = threads;
    const auto parallel = FitGmm(dataset, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*parallel)->AssignAll(dataset), serial_labels)
        << "threads " << threads;
  }
}

// The determinism contract is two-dimensional now: the result must be a
// pure function of the input at every (ISA level × thread count) pair, not
// just every thread count at the host's top level (DESIGN.md §12).
TEST(ClusteringParallelTest, FitsInvariantAcrossIsaLevelsAndThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 5;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);

  KMeansOptions kmeans;
  kmeans.num_clusters = 4;
  kmeans.max_iterations = 6;
  kmeans.seed = 7;
  GmmOptions gmm;
  gmm.num_components = 4;
  gmm.max_iterations = 4;
  gmm.seed = 7;

  std::vector<ClusterId> ref_kmeans, ref_gmm;
  std::vector<std::vector<Histogram>> ref_counts;
  {
    kernels::ScopedForceIsa generic(kernels::IsaLevel::kGeneric);
    kmeans.num_threads = 1;
    gmm.num_threads = 1;
    ref_kmeans = (*FitKMeans(dataset, kmeans))->AssignAll(dataset);
    ref_gmm = (*FitGmm(dataset, gmm))->AssignAll(dataset);
    ref_counts = std::move(
        *dataset.ComputeAllGroupHistograms(labels, num_clusters, 1));
  }

  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    for (size_t threads : {size_t{1}, size_t{8}, size_t{0}}) {
      kmeans.num_threads = threads;
      gmm.num_threads = threads;
      EXPECT_EQ((*FitKMeans(dataset, kmeans))->AssignAll(dataset), ref_kmeans)
          << "k-means at isa " << kernels::IsaLevelName(level) << " threads "
          << threads;
      EXPECT_EQ((*FitGmm(dataset, gmm))->AssignAll(dataset), ref_gmm)
          << "gmm at isa " << kernels::IsaLevelName(level) << " threads "
          << threads;
      const auto counts =
          dataset.ComputeAllGroupHistograms(labels, num_clusters, threads);
      ASSERT_TRUE(counts.ok());
      for (size_t a = 0; a < counts->size(); ++a) {
        for (size_t c = 0; c < num_clusters; ++c) {
          ASSERT_EQ((*counts)[a][c].bins(), ref_counts[a][c].bins())
              << "attr " << a << " cluster " << c << " isa "
              << kernels::IsaLevelName(level) << " threads " << threads;
        }
      }
    }
  }
}

// ---- Stage-2 (DESIGN.md §8: serial draw, parallel transform, ascending
// merge) ----

// Random tables over clusters with the given candidate counts; every other
// shape has no pair terms.
core_internal::CombinationScoreTables RandomTables(
    const std::vector<size_t>& sizes, bool pairs, Rng& rng) {
  core_internal::CombinationScoreTables tables;
  for (const size_t k : sizes) {
    tables.unary.emplace_back(k);
    for (double& value : tables.unary.back()) value = rng.UniformDouble();
  }
  if (!pairs) return tables;
  tables.pair.resize(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    tables.pair[c].resize(sizes.size());
    for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
      tables.pair[c][cp].resize(sizes[c] * sizes[cp]);
      for (double& value : tables.pair[c][cp]) value = rng.UniformDouble();
    }
  }
  return tables;
}

// The one-combination-at-a-time Gumbel-max scan the blocked, incremental
// search must reproduce bit for bit: every combination's fixed-point score
// summed from scratch, |C| + C(|C|, 2) rounded terms at a time.
AttributeCombination ReferenceScan(
    const std::vector<std::vector<AttrIndex>>& sets,
    const core_internal::CombinationScoreTables& tables, double epsilon,
    Rng& rng) {
  const size_t clusters = sets.size();
  const bool private_selection = epsilon > 0.0;
  const double scale = std::ldexp(
      epsilon / (2.0 * core_internal::RoundedScoreSensitivity(1.0, clusters)),
      -core_internal::kScoreFractionBits);
  size_t num_combinations = 1;
  for (const auto& set : sets) num_combinations *= set.size();
  std::vector<size_t> choice(clusters, 0), best_choice(clusters, 0);
  double best_value = -std::numeric_limits<double>::infinity();
  int64_t best_score = std::numeric_limits<int64_t>::min();
  for (size_t combo = 0; combo < num_combinations; ++combo) {
    int64_t score = 0;
    for (size_t c = 0; c < clusters; ++c) {
      score += core_internal::QuantizeScore(tables.unary[c][choice[c]]);
    }
    if (!tables.pair.empty()) {
      for (size_t c = 0; c < clusters; ++c) {
        for (size_t cp = c + 1; cp < clusters; ++cp) {
          score += core_internal::QuantizeScore(
              tables.pair[c][cp][choice[c] * sets[cp].size() + choice[cp]]);
        }
      }
    }
    if (private_selection) {
      const double value =
          scale * static_cast<double>(score) + rng.Gumbel(1.0);
      if (value > best_value) {
        best_value = value;
        best_choice = choice;
      }
    } else if (score > best_score) {
      best_score = score;
      best_choice = choice;
    }
    for (size_t c = 0; c < clusters; ++c) {
      if (++choice[c] < sets[c].size()) break;
      choice[c] = 0;
    }
  }
  AttributeCombination combination(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    combination[c] = sets[c][best_choice[c]];
  }
  return combination;
}

TEST(SearchParallelTest, GumbelKernelMatchesScalarTransformAtEveryIsaLevel) {
  // Uniforms as the search draws them, plus both ends of (0, 1); an odd
  // count leaves a tail after every vector width.
  std::vector<double> uniforms = {0x1p-54, 0x1p-53, 0.5,
                                  std::nextafter(1.0, 0.0),
                                  Rng::OpenUnitFromWord(~uint64_t{0})};
  Rng rng(77);
  while (uniforms.size() < 4099) uniforms.push_back(rng.UniformOpenDouble());
  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    for (const double scale : {1.0, 0.37}) {
      std::vector<double> noise = uniforms;
      kernels::TableFor(level).gumbel(noise.data(), noise.size(), scale);
      for (size_t i = 0; i < uniforms.size(); ++i) {
        const double expected = GumbelFromUniform(uniforms[i], scale);
        ASSERT_EQ(std::memcmp(&noise[i], &expected, sizeof(double)), 0)
            << "isa " << kernels::IsaLevelName(level) << " u " << uniforms[i]
            << ": " << noise[i] << " vs " << expected;
      }
    }
  }
}

TEST(SearchParallelTest, NoisyArgmaxPicksTheFirstMaximumAtEveryIsaLevel) {
  // Scores and noise whose sums tie at the maximum, in a count that leaves
  // a tail after every vector width.
  const size_t n = 1003;
  std::vector<int64_t> scores(n);
  std::vector<double> noise(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = static_cast<int64_t>(rng.UniformInt(1000)) - 500;
    noise[i] = -1.0 - rng.UniformDouble();
  }
  for (const size_t at : {size_t{17}, size_t{400}, size_t{1001}}) {
    scores[at] = 0;
    noise[at] = 0.0;
  }
  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    std::vector<double> values = noise;
    const size_t first = kernels::TableFor(level).noisy_argmax(
        scores.data(), 0x1p-12, values.data(), n);
    EXPECT_EQ(first, 17u) << "isa " << kernels::IsaLevelName(level);
    for (size_t i = 0; i < n; ++i) {
      const double expected =
          0x1p-12 * static_cast<double>(scores[i]) + noise[i];
      ASSERT_EQ(std::memcmp(&values[i], &expected, sizeof(double)), 0)
          << "isa " << kernels::IsaLevelName(level) << " i " << i;
    }
  }
}

TEST(SearchParallelTest, ResultAndNextDrawIdenticalAtAnyThreadCount) {
  Rng shape_rng(2024);
  std::vector<std::vector<size_t>> shapes;
  for (size_t i = 0; i < 12; ++i) {
    std::vector<size_t> sizes(1 + shape_rng.UniformInt(6));
    for (size_t& k : sizes) k = 1 + shape_rng.UniformInt(5);
    shapes.push_back(std::move(sizes));
  }
  // 3^11 = 177,147 combinations: more than two 65,536-combination batches,
  // and a ragged last block.
  shapes.push_back(std::vector<size_t>(11, 3));

  for (size_t s = 0; s < shapes.size(); ++s) {
    std::vector<std::vector<AttrIndex>> sets;
    for (const size_t k : shapes[s]) {
      sets.emplace_back();
      for (size_t j = 0; j < k; ++j) {
        sets.back().push_back(static_cast<AttrIndex>(100 * j + sets.size()));
      }
    }
    const auto tables = RandomTables(shapes[s], /*pairs=*/s % 2 == 0,
                                     shape_rng);
    for (const double epsilon : {0.0, 0.1, 5.0}) {
      Rng reference_rng(s + 1);
      const AttributeCombination reference =
          ReferenceScan(sets, tables, epsilon, reference_rng);
      const uint64_t reference_next = reference_rng.engine()();
      // The search's Gumbel noise runs through the per-ISA kernel table.
      for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
        kernels::ScopedForceIsa force(level);
        for (const size_t threads : {1u, 2u, 3u, 8u, 64u}) {
          Rng rng(s + 1);
          const auto combination = core_internal::SearchCombination(
              sets, tables, epsilon, 1.0, size_t{1} << 30, rng, Deadline(),
              threads);
          ASSERT_TRUE(combination.ok()) << combination.status();
          EXPECT_EQ(*combination, reference)
              << "shape " << s << " eps " << epsilon << " threads "
              << threads << " isa " << kernels::IsaLevelName(level);
          EXPECT_EQ(rng.engine()(), reference_next)
              << "shape " << s << " eps " << epsilon << " threads "
              << threads << " isa " << kernels::IsaLevelName(level);
        }
      }
    }
  }
}

TEST(SearchParallelTest, ExplanationJsonIdenticalAtAnyThreadCount) {
  // 8 clusters x 4 candidates: 65,536 combinations, 16 search blocks.
  constexpr size_t kClusters = 8;
  const Dataset dataset = TestDataset(2000);
  const std::vector<ClusterId> labels = CyclicLabels(2000, kClusters);
  DpClustXOptions options;
  options.num_candidates = 4;
  options.seed = 31;
  std::string reference;
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    options.num_threads = threads;
    const auto explanation =
        ExplainDpClustXWithLabels(dataset, labels, kClusters, options);
    ASSERT_TRUE(explanation.ok()) << explanation.status();
    const std::string json = ExplanationToJson(*explanation, dataset.schema());
    if (threads == 1) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace dpclustx
