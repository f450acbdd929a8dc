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

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "common/gumbel.h"
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

// ---- Stage-2 (DESIGN.md §8: noise keyed by combination, parallel blocks,
// ascending merge) ----

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

// The one-combination-at-a-time Gumbel-max scan the blocked, tiled search
// must reproduce bit for bit: every combination's fixed-point score summed
// from scratch, |C| + C(|C|, 2) rounded terms at a time, and its noise from
// the scalar transform of its keyed word (one key word from `rng`, none in
// exact mode).
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
  const uint64_t key = private_selection ? rng.engine()() : 0;
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
          scale * static_cast<double>(score) +
          GumbelFromUniform(OpenUnitFromWord(KeyedWord(key, combo)), 1.0);
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

TEST(SearchParallelTest, KeyedGumbelMatchesScalarTransformAtEveryIsaLevel) {
  // Index ranges from 0 and from deep inside a space, with counts that
  // leave a ragged tail after every vector width and noise chunk; keys
  // include both extremes.
  const std::vector<std::pair<uint64_t, size_t>> ranges = {
      {0, 4099}, {123457, 1031}, {(uint64_t{1} << 40) - 3, 77}, {5, 1}};
  for (const uint64_t key :
       {uint64_t{0}, ~uint64_t{0}, uint64_t{0x243f6a8885a308d3}}) {
    for (const auto& [first, n] : ranges) {
      for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
        std::vector<double> noise(n);
        kernels::TableFor(level).keyed_gumbel(key, first, n, noise.data());
        for (size_t i = 0; i < n; ++i) {
          const double expected = GumbelFromUniform(
              OpenUnitFromWord(KeyedWord(key, first + i)), 1.0);
          ASSERT_EQ(std::memcmp(&noise[i], &expected, sizeof(double)), 0)
              << "isa " << kernels::IsaLevelName(level) << " key " << key
              << " index " << first + i << ": " << noise[i] << " vs "
              << expected;
        }
      }
    }
  }
}

// SplitMix64Mix's inverse, to choose a key whose keyed word at a given
// index is a given word. An xor-shift is undone by re-applying it until
// every shifted-in bit is known; an odd multiplier by its inverse mod
// 2^64 (odd·odd ≡ 1 mod 8, and each Newton step doubles the correct bits).
uint64_t UndoXorShift(uint64_t y, int shift) {
  uint64_t x = y;
  for (int known = shift; known < 64; known += shift) x = y ^ (x >> shift);
  return x;
}

uint64_t InverseMod2To64(uint64_t odd) {
  uint64_t inverse = odd;
  for (int step = 0; step < 5; ++step) inverse *= 2 - odd * inverse;
  return inverse;
}

uint64_t SplitMix64Unmix(uint64_t z) {
  z = UndoXorShift(z, 31) * InverseMod2To64(0x94d049bb133111ebULL);
  z = UndoXorShift(z, 27) * InverseMod2To64(0xbf58476d1ce4e5b9ULL);
  return UndoXorShift(z, 30);
}

TEST(SearchParallelTest, KeyedKernelsMatchScalarTransformAtExtremeWords) {
  // The words at the ends of the uniform map and on either side of its
  // branch points: m = word >> 11 is 0 (words 0 and 0x7ff, the smallest
  // uniform) or 1; 2^52 - 1 and 2^52 (words 2^63 - 1 and 2^63, either side
  // of the top bit that switches the 2^52 offset); all ones (words ~0 << 11
  // and ~0, clamped to the largest double below 1).
  const std::vector<uint64_t> words = {
      0,
      0x7ff,
      uint64_t{1} << 11,
      (uint64_t{1} << 63) - 1,
      uint64_t{1} << 63,
      ~uint64_t{0} << 11,
      ~uint64_t{0}};
  // Each word is placed, one key at a time, at lanes of the first vector,
  // on both sides of vector boundaries, in the ragged tail and in a second
  // noise chunk, in ranges from 0 and from deep inside a space.
  struct Range {
    uint64_t first;
    size_t n;
    std::vector<size_t> lanes;
  };
  const std::vector<Range> ranges = {
      {0, 13, {0, 1, 3, 7, 8, 12}},
      {123457, 37, {0, 5, 15, 16, 33, 36}},
      {(uint64_t{1} << 40) - 3, 530, {2, 255, 511, 512, 515, 529}}};
  for (const uint64_t word : words) {
    ASSERT_EQ(SplitMix64Mix(SplitMix64Unmix(word)), word);
    const double word_noise = GumbelFromUniform(OpenUnitFromWord(word), 1.0);
    ASSERT_TRUE(std::isfinite(word_noise)) << word;
    for (const Range& range : ranges) {
      for (const size_t lane : range.lanes) {
        const uint64_t key = SplitMix64Unmix(word) -
                             (range.first + lane + 1) * kSplitMix64Gamma;
        ASSERT_EQ(KeyedWord(key, range.first + lane), word);
        // Score 0 at the lane and -1000 elsewhere: with noise in (-4, 38)
        // the lane wins at scale 1, and its value is the scalar combine.
        std::vector<int64_t> scores(range.n, -1000);
        scores[lane] = 0;
        const double expected_best = 1.0 * 0.0 + word_noise;
        for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
          const kernels::KernelTable& table = kernels::TableFor(level);
          std::vector<double> noise(range.n);
          table.keyed_gumbel(key, range.first, range.n, noise.data());
          for (size_t i = 0; i < range.n; ++i) {
            const double expected = GumbelFromUniform(
                OpenUnitFromWord(KeyedWord(key, range.first + i)), 1.0);
            ASSERT_EQ(std::memcmp(&noise[i], &expected, sizeof(double)), 0)
                << "isa " << kernels::IsaLevelName(level) << " word "
                << word << " lane " << lane << " index " << i << ": "
                << noise[i] << " vs " << expected;
          }
          double best = 0.0;
          EXPECT_EQ(table.noisy_argmax(scores.data(), 1.0, key, range.first,
                                       range.n, &best),
                    lane)
              << "isa " << kernels::IsaLevelName(level) << " word " << word;
          EXPECT_EQ(std::memcmp(&best, &expected_best, sizeof(double)), 0)
              << "isa " << kernels::IsaLevelName(level) << " word " << word
              << " lane " << lane << ": " << best << " vs " << expected_best;
        }
      }
    }
  }
}

TEST(SearchParallelTest, NoisyArgmaxPicksTheFirstMaximumAtEveryIsaLevel) {
  // At scale 2^40 a score of 2^20 puts a value at 2^60, where doubles are
  // 256 apart, so the noise (|noise| < 38) rounds away and every such
  // combination ties. They sit in different noise chunks and twice in one;
  // the count leaves a tail after every vector width.
  const size_t n = 1503;
  const uint64_t key = 0x9e3779b97f4a7c15ULL, first = 4096 * 7;
  std::vector<int64_t> scores(n);
  Rng rng(5);
  for (int64_t& score : scores) {
    score = static_cast<int64_t>(rng.UniformInt(1000)) - 500;
  }
  for (const size_t at :
       {size_t{700}, size_t{701}, size_t{1200}, size_t{1502}}) {
    scores[at] = int64_t{1} << 20;
  }
  std::vector<double> noise(n);
  kernels::TableFor(kernels::IsaLevel::kGeneric)
      .keyed_gumbel(key, first, n, noise.data());
  // The reference: a strict-> scan over the scalar combine.
  const auto scan = [&](double scale) {
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (scale * static_cast<double>(scores[i]) + noise[i] >
          scale * static_cast<double>(scores[best]) + noise[best]) {
        best = i;
      }
    }
    return best;
  };
  ASSERT_EQ(scan(0x1p40), 700u);
  for (const double scale : {0x1p40, 0x1p-12, 0.0}) {
    const size_t expected = scan(scale);
    const double expected_value =
        scale * static_cast<double>(scores[expected]) + noise[expected];
    for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
      double best = 0.0;
      const size_t got = kernels::TableFor(level).noisy_argmax(
          scores.data(), scale, key, first, n, &best);
      EXPECT_EQ(got, expected)
          << "isa " << kernels::IsaLevelName(level) << " scale " << scale;
      EXPECT_EQ(std::memcmp(&best, &expected_value, sizeof(double)), 0)
          << "isa " << kernels::IsaLevelName(level) << " scale " << scale;
    }
  }
}

TEST(SearchParallelTest, ScoreArgmaxPicksTheFirstMaximumAtEveryIsaLevel) {
  // Ties at the maximum in different chunks and inside one, tails after
  // every vector width, and the extremes of int64.
  for (const size_t n : {size_t{1}, size_t{7}, size_t{9}, size_t{1503},
                         size_t{4096}}) {
    std::vector<int64_t> scores(n);
    Rng rng(n);
    for (int64_t& score : scores) {
      score = static_cast<int64_t>(rng.UniformInt(1000)) - 500;
    }
    size_t expected = 0;
    for (const size_t at : {n - 1, std::min(n - 1, n / 2 + 1), n / 2, n / 3}) {
      scores[at] = 1000;
      expected = at;
    }
    for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
      EXPECT_EQ(kernels::TableFor(level).score_argmax(scores.data(), n),
                expected)
          << "isa " << kernels::IsaLevelName(level) << " n " << n;
      std::vector<int64_t> lowest(n, std::numeric_limits<int64_t>::min());
      EXPECT_EQ(kernels::TableFor(level).score_argmax(lowest.data(), n), 0u);
      lowest[n - 1] = std::numeric_limits<int64_t>::max();
      EXPECT_EQ(kernels::TableFor(level).score_argmax(lowest.data(), n),
                n - 1);
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
  // 3^11 = 177,147 combinations: 44 blocks and a ragged last one, tiles of
  // 729 that do not divide a block.
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
      // The search's Gumbel noise and maxima run through the per-ISA
      // kernel table.
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
