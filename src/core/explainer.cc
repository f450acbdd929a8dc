#include "core/explainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "core/candidate_selection.h"
#include "data/kernels/kernel_table.h"
#include "obs/trace.h"

namespace dpclustx {

namespace core_internal {

namespace {
// Combinations per search block: the unit of scoring, of the deadline check
// (a few µs of work, so the steady_clock read is amortized to noise) and
// of the winner merge. Blocks depend only on the combination index, never
// on the thread count.
constexpr size_t kSearchBlock = 4096;
// Fewest combinations in a tile: the lowest clusters are added to the tile
// until their choices number at least this many, so the odometer over the
// higher clusters steps once per this many combinations or more.
constexpr size_t kMinTile = 256;
// Bound on the sum of the largest |entry| of every term table, in score
// units: 2^62 fixed-point units. The sum of any subset of a combination's
// rounded terms then stays below 2^63 in magnitude, so no int64 partial
// sum overflows: the margin covers the rounding (T/2 units) and the
// rounding of the bound's own double sum.
constexpr double kMaxScoreMagnitude = 0x1p62 / (1ULL << kScoreFractionBits);

// The score tables rounded once to multiples of 2^-kScoreFractionBits and
// laid out for the tiled walk. Clusters 0..low-1 (the low clusters) form
// the tile: their tile_size choices, cluster 0 fastest, are scored as one
// unit. Their unary terms and the pair terms among them are summed into
// one table per search (`tile`). The higher clusters keep per-cluster
// tables: unary terms, pair terms among themselves (transposed: across(c,
// cp) is k_cp × k_c, so one choice of cp adds a contiguous row across c's
// choices), and, per choice j of a high cluster c, one row of the pair
// terms of every low cluster's choices with j (`low_row`). Tables without
// pair terms get all-zero pair tables, so one walk serves both.
struct SearchTables {
  std::vector<size_t> sizes;  // k_c
  size_t low = 0;             // number of low clusters, L >= 1
  size_t tile_size = 1;       // k_0·...·k_{L-1}
  size_t inner_size = 1;      // tile_size / k_{L-1}
  // A stack level (see TileWalker): the base sum, then one vector per low
  // cluster, vector l at low_at[l].
  size_t level_width = 1;
  std::vector<size_t> low_at;  // [l], l < L
  std::vector<int64_t> tile;   // [tile_size]
  std::vector<int64_t> values;
  std::vector<size_t> unary_at;  // [c], c >= L
  std::vector<size_t> across_at;  // [c·|C| + cp], L <= c < cp
  std::vector<size_t> low_row_at;  // [c], c >= L: k_c rows of level_width

  size_t clusters() const { return sizes.size(); }
  const int64_t* unary(size_t c) const { return values.data() + unary_at[c]; }
  // k_c entries: the pair terms of cluster c's choices with choice j of
  // cluster cp.
  const int64_t* across(size_t c, size_t cp, size_t j) const {
    return values.data() + across_at[c * clusters() + cp] + j * sizes[c];
  }
  // level_width entries: 0, then for each low cluster l the pair terms of
  // l's choices with choice j of high cluster c.
  const int64_t* low_row(size_t c, size_t j) const {
    return values.data() + low_row_at[c] + j * level_width;
  }
};

StatusOr<SearchTables> QuantizeTables(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables) {
  const size_t clusters = candidate_sets.size();
  const bool has_pairs = !tables.pair.empty();
  SearchTables fixed;
  for (const auto& set : candidate_sets) fixed.sizes.push_back(set.size());
  if (has_pairs && tables.pair.size() != clusters) {
    return Status::InvalidArgument("score tables do not match clusters");
  }
  // Shapes and the overflow bound first, so nothing out of range is
  // converted to an integer.
  double magnitude = 0.0;
  auto add_term = [&](const std::vector<double>& term,
                      size_t expected) -> Status {
    if (term.size() != expected) {
      return Status::InvalidArgument("score table does not match its set");
    }
    double largest = 0.0;
    for (const double value : term) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("score table entry is not finite");
      }
      largest = std::max(largest, std::fabs(value));
    }
    magnitude += largest;
    return Status::OK();
  };
  for (size_t c = 0; c < clusters; ++c) {
    DPX_RETURN_IF_ERROR(add_term(tables.unary[c], fixed.sizes[c]));
    if (!has_pairs) continue;
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      if (tables.pair[c].size() <= cp) {
        return Status::InvalidArgument("score tables do not match clusters");
      }
      DPX_RETURN_IF_ERROR(
          add_term(tables.pair[c][cp], fixed.sizes[c] * fixed.sizes[cp]));
    }
  }
  if (!(magnitude < kMaxScoreMagnitude)) {
    return Status::InvalidArgument(
        "score tables exceed the fixed-point range of the stage2 search");
  }
  // The pair term of choice p of cluster c and choice j of cluster cp > c.
  auto pair = [&](size_t c, size_t cp, size_t p, size_t j) -> int64_t {
    return has_pairs
               ? QuantizeScore(tables.pair[c][cp][p * fixed.sizes[cp] + j])
               : 0;
  };

  // The tile: the fewest lowest clusters with at least kMinTile choices
  // (all of them when the space is smaller).
  while (fixed.low < clusters && fixed.tile_size < kMinTile) {
    fixed.inner_size = fixed.tile_size;
    fixed.low_at.push_back(fixed.level_width);
    fixed.level_width += fixed.sizes[fixed.low];
    fixed.tile_size *= fixed.sizes[fixed.low++];
  }
  const size_t low = fixed.low;
  // The tile table, one low cluster at a time (cluster 0 fastest): choice
  // p of cluster l adds its unary term and the outer sum, over the
  // clusters before it, of their pair terms with p. Every term is rounded
  // once.
  fixed.tile = {0};
  std::vector<int64_t> grown, cross, wider;
  for (size_t l = 0; l < low; ++l) {
    const size_t size = fixed.tile.size();
    grown.resize(size * fixed.sizes[l]);
    for (size_t p = 0; p < fixed.sizes[l]; ++p) {
      cross.assign(1, QuantizeScore(tables.unary[l][p]));
      for (size_t lp = 0; lp < l; ++lp) {
        wider.resize(cross.size() * fixed.sizes[lp]);
        for (size_t j = 0; j < fixed.sizes[lp]; ++j) {
          const int64_t term = pair(lp, l, j, p);
          for (size_t t = 0; t < cross.size(); ++t) {
            wider[j * cross.size() + t] = cross[t] + term;
          }
        }
        cross.swap(wider);
      }
      for (size_t t = 0; t < size; ++t) {
        grown[p * size + t] = fixed.tile[t] + cross[t];
      }
    }
    fixed.tile.swap(grown);
  }
  fixed.unary_at.resize(clusters);
  fixed.across_at.resize(clusters * clusters);
  fixed.low_row_at.resize(clusters);
  for (size_t c = low; c < clusters; ++c) {
    fixed.unary_at[c] = fixed.values.size();
    for (const double value : tables.unary[c]) {
      fixed.values.push_back(QuantizeScore(value));
    }
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      fixed.across_at[c * clusters + cp] = fixed.values.size();
      for (size_t j = 0; j < fixed.sizes[cp]; ++j) {
        for (size_t p = 0; p < fixed.sizes[c]; ++p) {
          fixed.values.push_back(pair(c, cp, p, j));
        }
      }
    }
    fixed.low_row_at[c] = fixed.values.size();
    for (size_t j = 0; j < fixed.sizes[c]; ++j) {
      fixed.values.push_back(0);
      for (size_t l = 0; l < low; ++l) {
        for (size_t p = 0; p < fixed.sizes[l]; ++p) {
          fixed.values.push_back(pair(l, c, p, j));
        }
      }
    }
  }
  return fixed;
}

// Scores ranges of combinations tile by tile, with scratch reused across
// the ranges one ParallelFor chunk scans.
//
// The high clusters' digits (clusters L.., the odometer over tiles) keep a
// partial-sum stack. Level c (L <= c <= |C|) holds the base — every term
// among clusters c..|C|-1 under the current digits — and, per low cluster
// l, the vector of the pair terms of l's choices with clusters c..|C|-1;
// level |C| is all zero. Level L then scores the current tile: combination
// (t, p), with t an index over clusters 0..L-2 and p cluster L-1's choice,
// scores tile[t + p·inner] + E[t] + (V_{L-1}[p] + base), where E is the
// outer sum of the vectors of clusters 0..L-2. Int64 sums are exact in any
// order, so these are the scores a one-at-a-time sum gives.
class TileWalker {
 public:
  explicit TileWalker(const SearchTables& tables)
      : t_(tables),
        kernel_(kernels::Active()),
        choice_(tables.clusters(), 0),
        terms_(tables.clusters()),
        stack_((tables.clusters() + 1 - tables.low) * tables.level_width, 0),
        outer_{std::vector<int64_t>(tables.inner_size),
               std::vector<int64_t>(tables.inner_size)},
        adds_(tables.sizes[tables.low - 1]) {
    for (size_t c = t_.low; c < t_.clusters(); ++c) {
      terms_[c].resize(t_.sizes[c]);
    }
  }

  // scores[i] = the score of combination begin + i, for i < end - begin.
  void Score(size_t begin, size_t end, int64_t* scores) {
    const size_t clusters = t_.clusters();
    const size_t tile_size = t_.tile_size;
    size_t tile = begin / tile_size;
    for (size_t c = t_.low, rest = tile; c < clusters; ++c) {
      choice_[c] = rest % t_.sizes[c];
      rest /= t_.sizes[c];
    }
    for (size_t c = clusters; c-- > t_.low;) FillTerms(c);
    Restack(clusters);
    for (size_t at = begin;;) {
      const size_t tile_begin = tile * tile_size;
      const size_t tile_end = std::min(end, tile_begin + tile_size);
      EmitTile(at - tile_begin, tile_end - tile_begin, scores + (at - begin));
      if (tile_end == end) return;
      // Advance the odometer over the high digits (one exists: the next
      // tile starts before end <= k_0·...·k_|C|).
      at = tile_end;
      ++tile;
      size_t top = t_.low;
      while (++choice_[top] == t_.sizes[top]) choice_[top++] = 0;
      for (size_t c = top; c-- > t_.low;) FillTerms(c);
      Restack(top + 1);
    }
  }

 private:
  int64_t* level(size_t c) {
    return stack_.data() + (c - t_.low) * t_.level_width;
  }

  // terms_[c][p]: cluster c's unary term for choice p plus its pair terms
  // with the higher clusters under the current digits. It depends on
  // digits c+1.. only, so it changes when those do.
  void FillTerms(size_t c) {
    int64_t* term = terms_[c].data();
    std::copy(t_.unary(c), t_.unary(c) + t_.sizes[c], term);
    for (size_t cp = c + 1; cp < t_.clusters(); ++cp) {
      const int64_t* across = t_.across(c, cp, choice_[cp]);
      for (size_t p = 0; p < t_.sizes[c]; ++p) term[p] += across[p];
    }
  }

  // Recomputes levels L..top-1 after digits L..top-1 changed.
  void Restack(size_t top) {
    const size_t width = t_.level_width;
    for (size_t c = top; c-- > t_.low;) {
      const int64_t* above = level(c + 1);
      const int64_t* row = t_.low_row(c, choice_[c]);
      int64_t* here = level(c);
      for (size_t i = 0; i < width; ++i) here[i] = above[i] + row[i];
      here[0] += terms_[c][choice_[c]];
    }
  }

  // Writes the scores of the current tile's combinations [lo, hi) to
  // out[0, hi - lo). Rows are cluster L-1's choices, each inner_size long,
  // and every row goes through the outer_sum kernel: the whole rows in one
  // call, and a range that starts or ends inside a row (a block's first
  // and last tile) that row's part in a call of its own.
  void EmitTile(size_t lo, size_t hi, int64_t* out) {
    const int64_t* bottom = level(t_.low);
    const size_t last = t_.low - 1;
    const size_t inner = t_.inner_size;
    // E, grown one low cluster at a time (cluster 0 fastest).
    static constexpr int64_t kNoInnerClusters = 0;
    const int64_t* outer = &kNoInnerClusters;
    if (last > 0) {
      outer = bottom + t_.low_at[0];
      for (size_t l = 1, size = t_.sizes[0]; l < last;
           size *= t_.sizes[l++]) {
        int64_t* grown = outer_[l % 2].data();
        kernel_.outer_sum(outer, size, bottom + t_.low_at[l], t_.sizes[l],
                          nullptr, grown);
        outer = grown;
      }
    }
    const int64_t* vector = bottom + t_.low_at[last];
    // `rows` rows of `width` combinations from `at`, which lies in the
    // first of them at column at mod inner.
    const auto emit = [&](size_t at, size_t width, size_t rows) {
      for (size_t p = 0; p < rows; ++p) {
        adds_[p] = vector[at / inner + p] + bottom[0];
      }
      kernel_.outer_sum(outer + at % inner, width, adds_.data(), rows,
                        t_.tile.data() + at, out + (at - lo));
    };
    size_t at = lo;
    if (at % inner != 0) {
      const size_t width = std::min(hi, (at / inner + 1) * inner) - at;
      emit(at, width, 1);
      at += width;
    }
    if (const size_t rows = (hi - at) / inner; rows > 0) {
      emit(at, inner, rows);
      at += rows * inner;
    }
    if (at < hi) emit(at, hi - at, 1);
  }

  const SearchTables& t_;
  const kernels::KernelTable& kernel_;
  std::vector<size_t> choice_;
  std::vector<std::vector<int64_t>> terms_;  // [c], c >= L
  std::vector<int64_t> stack_;
  std::vector<int64_t> outer_[2];  // E as it grows, alternating
  std::vector<int64_t> adds_;      // [p]: V_{L-1}[p] + base
};

struct Winner {
  double value = -std::numeric_limits<double>::infinity();  // private mode
  int64_t score = std::numeric_limits<int64_t>::min();      // exact mode
  size_t combo = 0;
};

// Checks the space size and the tables; returns the number of combinations.
StatusOr<size_t> CountCombinations(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, size_t max_combinations) {
  const size_t clusters = candidate_sets.size();
  if (clusters == 0) {
    return Status::InvalidArgument("need at least one cluster");
  }
  if (tables.unary.size() != clusters) {
    return Status::InvalidArgument("score tables do not match clusters");
  }
  // Search-space size k_1·k_2·...·k_|C| with overflow-safe accumulation.
  size_t num_combinations = 1;
  for (const auto& set : candidate_sets) {
    if (set.empty()) {
      return Status::InvalidArgument("empty candidate set");
    }
    if (num_combinations > max_combinations / set.size()) {
      return Status::InvalidArgument(
          "combination space exceeds max_combinations=" +
          std::to_string(max_combinations) +
          "; reduce the candidate-set size k or the number of clusters");
    }
    num_combinations *= set.size();
  }
  return num_combinations;
}
}  // namespace

CombinationScoreTables BuildSubsetTables(
    const StatsCache& stats,
    const std::vector<std::vector<std::vector<AttrIndex>>>& choices,
    const GlobalWeights& lambda) {
  const size_t clusters = choices.size();
  // n (cluster, attribute) pairs per combination: Int/Suf average over the
  // n pairs, diversity over their C(n, 2) pairs of pairs.
  size_t n = 0;
  for (const auto& options : choices) {
    n += options.empty() ? 0 : options.front().size();
  }
  const double pair_norm = n >= 2 ? lambda.diversity / PairCount(n) : 0.0;
  CombinationScoreTables tables;
  // unary[c][s]: Int/Suf of the choice's attributes plus the diversity of
  // the pairs inside it. Each combination is then scored by lookups only.
  tables.unary.resize(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    const auto cluster = static_cast<ClusterId>(c);
    for (const std::vector<AttrIndex>& attrs : choices[c]) {
      double single = 0.0, within = 0.0;
      for (size_t i = 0; i < attrs.size(); ++i) {
        single +=
            lambda.interestingness * InterestingnessP(stats, cluster,
                                                      attrs[i]) +
            lambda.sufficiency * SufficiencyP(stats, cluster, attrs[i]);
        for (size_t j = i + 1; j < attrs.size(); ++j) {
          within += PairDiversity(stats, cluster, cluster, attrs[i], attrs[j]);
        }
      }
      tables.unary[c].push_back(single / static_cast<double>(n) +
                                pair_norm * within);
    }
  }
  if (pair_norm <= 0.0) return tables;
  // pair[c][cp]: the diversity of the pairs across two clusters' choices.
  tables.pair.resize(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    tables.pair[c].resize(clusters);
    for (size_t cp = c + 1; cp < clusters; ++cp) {
      for (const std::vector<AttrIndex>& attrs : choices[c]) {
        for (const std::vector<AttrIndex>& attrs_p : choices[cp]) {
          double across = 0.0;
          for (const AttrIndex attr : attrs) {
            for (const AttrIndex attr_p : attrs_p) {
              across += PairDiversity(stats, static_cast<ClusterId>(c),
                                      static_cast<ClusterId>(cp), attr,
                                      attr_p);
            }
          }
          tables.pair[c][cp].push_back(pair_norm * across);
        }
      }
    }
  }
  return tables;
}

CombinationScoreTables BuildLowSensitivityTables(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const GlobalWeights& lambda) {
  std::vector<std::vector<std::vector<AttrIndex>>> choices(
      candidate_sets.size());
  for (size_t c = 0; c < candidate_sets.size(); ++c) {
    for (const AttrIndex attr : candidate_sets[c]) choices[c].push_back({attr});
  }
  return BuildSubsetTables(stats, choices, lambda);
}

StatusOr<AttributeCombination> SearchCombination(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, const Deadline& deadline,
    size_t num_threads) {
  DPX_ASSIGN_OR_RETURN(
      const size_t num_combinations,
      CountCombinations(candidate_sets, tables, max_combinations));
  const size_t clusters = candidate_sets.size();

  // The argmax of score·ε/(2Δ') + Gumbel(1) over all combinations (the
  // exponential mechanism via Gumbel-max), or the exact argmax when
  // epsilon <= 0 (non-private limit). The scores are the tables rounded to
  // fixed point, so Δ' = Δ + T·2^-F charges the rounding to the mechanism.
  const bool private_selection = epsilon > 0.0;
  if (private_selection && sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  DPX_ASSIGN_OR_RETURN(const SearchTables fixed,
                       QuantizeTables(candidate_sets, tables));
  // Per fixed-point unit; ldexp rescales exactly.
  const double scale =
      private_selection
          ? std::ldexp(epsilon / (2.0 * RoundedScoreSensitivity(sensitivity,
                                                                clusters)),
                       -kScoreFractionBits)
          : 0.0;
  // Combination i's noise is keyed by i alone (KeyedWord in
  // common/gumbel.h): one word of `rng`, and none in exact mode.
  const uint64_t key = private_selection ? rng.engine()() : 0;

  // Thread-count invariance (DESIGN.md §8): blocks are scored and noised
  // on ParallelFor, each chunk merges its blocks in ascending order with
  // strict >, and the chunks merge the same way, so the first maximum wins
  // whatever runs where.
  const auto beats = [private_selection](const Winner& a, const Winner& b) {
    return private_selection ? a.value > b.value : a.score > b.score;
  };
  const size_t blocks = (num_combinations + kSearchBlock - 1) / kSearchBlock;
  std::vector<Winner> chunk_winners(ParallelForNumChunks(blocks, 1));
  // ParallelFor bodies cannot return a Status: a block that finds the
  // deadline passed raises this flag (relaxed: it gates no data).
  std::atomic<bool> expired{false};
  const kernels::KernelTable& kernel = kernels::Active();
  ParallelFor(
      blocks, /*grain=*/1,
      [&](size_t chunk, size_t first, size_t last) {
        TileWalker walker(fixed);
        std::vector<int64_t> scores(std::min(num_combinations, kSearchBlock));
        Winner best;
        for (size_t b = first; b < last; ++b) {
          if (deadline.Expired()) {
            expired.store(true, std::memory_order_relaxed);
            return;
          }
          const size_t begin = b * kSearchBlock;
          const size_t n = std::min(num_combinations - begin, kSearchBlock);
          walker.Score(begin, begin + n, scores.data());
          Winner block;
          if (private_selection) {
            block.combo = begin + kernel.noisy_argmax(scores.data(), scale,
                                                      key, begin, n,
                                                      &block.value);
          } else {
            block.combo = begin + kernel.score_argmax(scores.data(), n);
            block.score = scores[block.combo - begin];
          }
          if (beats(block, best)) best = block;
        }
        chunk_winners[chunk] = best;
      },
      num_threads);
  if (expired.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("deadline exceeded in stage2 search");
  }
  Winner best;
  for (const Winner& chunk : chunk_winners) {
    if (beats(chunk, best)) best = chunk;
  }

  AttributeCombination combination(clusters);
  size_t remainder = best.combo;
  for (size_t c = 0; c < clusters; ++c) {
    combination[c] = candidate_sets[c][remainder % candidate_sets[c].size()];
    remainder /= candidate_sets[c].size();
  }
  return combination;
}

StatusOr<std::vector<int64_t>> SearchScores(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, size_t begin, size_t end) {
  DPX_ASSIGN_OR_RETURN(const size_t num_combinations,
                       CountCombinations(candidate_sets, tables,
                                         std::numeric_limits<size_t>::max()));
  if (begin > end || end > num_combinations) {
    return Status::InvalidArgument("combination range outside the space");
  }
  DPX_ASSIGN_OR_RETURN(const SearchTables fixed,
                       QuantizeTables(candidate_sets, tables));
  TileWalker walker(fixed);
  std::vector<int64_t> scores(end - begin);
  // Block by block, as the search walks them.
  for (size_t at = begin; at < end;) {
    const size_t stop = std::min(end, (at / kSearchBlock + 1) * kSearchBlock);
    walker.Score(at, stop, scores.data() + (at - begin));
    at = stop;
  }
  return scores;
}

StatusOr<std::vector<std::vector<SingleClusterExplanation>>>
ReleaseExplanationHistograms(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& selected, double epsilon_hist,
    const DpHistogramOptions& histogram, const Deadline& deadline, Rng& rng) {
  // Line 6: distinct selected attributes A'.
  std::set<AttrIndex> distinct;
  for (const auto& attrs : selected) {
    distinct.insert(attrs.begin(), attrs.end());
  }
  // Line 7: budget split between full-dataset and cluster histograms.
  const double eps_hist_all =
      epsilon_hist / (2.0 * static_cast<double>(distinct.size()));

  // Lines 8–10: noisy full-dataset histograms (sequential composition over
  // the |A'| attributes).
  std::vector<Histogram> noisy_full(stats.num_attributes());
  for (AttrIndex attr : distinct) {
    DPX_RETURN_IF_ERROR(deadline.Check("full histograms"));
    DPX_ASSIGN_OR_RETURN(noisy_full[attr],
                         ReleaseDpHistogram(stats.full_histogram(attr),
                                            eps_hist_all, rng, histogram));
  }

  // Lines 11–15: per-cluster noisy histograms (sequential over a cluster's
  // ℓ attributes, parallel composition across the disjoint clusters) and
  // post-processed out-of-cluster histograms.
  std::vector<std::vector<SingleClusterExplanation>> explanations(
      selected.size());
  for (size_t c = 0; c < selected.size(); ++c) {
    DPX_RETURN_IF_ERROR(deadline.Check("cluster histograms"));
    const auto cluster = static_cast<ClusterId>(c);
    const double eps_hist_cluster =
        epsilon_hist / (2.0 * static_cast<double>(selected[c].size()));
    for (AttrIndex attr : selected[c]) {
      SingleClusterExplanation e;
      e.cluster = cluster;
      e.attribute = attr;
      e.epsilon_inside = eps_hist_cluster;
      e.epsilon_full = eps_hist_all;
      e.noise = histogram.noise;
      DPX_ASSIGN_OR_RETURN(
          e.inside, ReleaseDpHistogram(stats.cluster_histogram(cluster, attr),
                                       eps_hist_cluster, rng, histogram));
      e.outside = noisy_full[attr].SubtractClamped(e.inside);
      explanations[c].push_back(std::move(e));
    }
  }
  return explanations;
}

}  // namespace core_internal

Status DpClustXOptions::Validate() const {
  DPX_RETURN_IF_ERROR(lambda.Validate());
  if (epsilon_cand_set <= 0.0 || epsilon_top_comb <= 0.0) {
    return Status::InvalidArgument(
        "epsilon_cand_set and epsilon_top_comb must be positive");
  }
  if (generate_histograms && epsilon_hist <= 0.0) {
    return Status::InvalidArgument(
        "epsilon_hist must be positive when histograms are generated");
  }
  if (num_candidates == 0) {
    return Status::InvalidArgument("num_candidates must be >= 1");
  }
  return Status::OK();
}

Status DpClustXOptions::ValidateShape(size_t num_rows, size_t num_attributes,
                                      size_t num_clusters,
                                      size_t subset_size) const {
  const size_t k = num_candidates;
  if (subset_size == 0 || subset_size > k) {
    return Status::InvalidArgument(
        "attrs_per_cluster must lie in [1, num_candidates]");
  }
  if (k > num_attributes) {
    return Status::InvalidArgument(
        stage1 == Stage1Selector::kSvt
            ? "SVT stage-1: bad max_candidates"
            : "candidate-set size k=" + std::to_string(k) +
                  " must lie in [1, num_attributes=" +
                  std::to_string(num_attributes) + "]");
  }
  // Every GlScore table entry is at most |D| and the largest entries of
  // all the term tables sum to at most |D| (Int_p, Suf_p and the pair
  // diversity are each at most |D_c|, and λ is convex), so this refuses
  // every dataset whose scores could overflow the search's fixed-point sum.
  if (!(static_cast<double>(num_rows) < core_internal::kMaxScoreMagnitude)) {
    return Status::InvalidArgument(
        "dataset of " + std::to_string(num_rows) +
        " rows exceeds the fixed-point range of the stage2 search");
  }
  // SVT sets may hold fewer than k attributes; the search bounds their
  // actual space.
  if (stage1 == Stage1Selector::kSvt) return Status::OK();
  // choices = C(k, ℓ) = C(k, r), r = min(ℓ, k − ℓ). The partial products
  // C(k, i), i <= r, only grow, so stopping once one exceeds the limit is
  // safe (and keeps them from overflowing).
  size_t choices = 1;
  const size_t r = std::min(subset_size, k - subset_size);
  for (size_t i = 0; i < r && choices <= max_combinations; ++i) {
    choices = choices * (k - i) / (i + 1);
  }
  size_t space = 1;
  for (size_t c = 0; c < num_clusters; ++c) {
    if (space > max_combinations / choices) {
      return Status::InvalidArgument(
          std::string(subset_size > 1 ? "multi-explanation " : "") +
          "combination space exceeds max_combinations=" +
          std::to_string(max_combinations) +
          "; reduce the candidate-set size k or the number of clusters");
    }
    space *= choices;
  }
  return Status::OK();
}

StatusOr<GlobalExplanation> ExplainDpClustXWithLabels(
    const Dataset& dataset, const std::vector<ClusterId>& labels,
    size_t num_clusters, const DpClustXOptions& options,
    PrivacyBudget* budget) {
  DPX_RETURN_IF_ERROR(options.Validate());
  DPX_ASSIGN_OR_RETURN(const StatsCache stats,
                       StatsCache::Build(dataset, labels, num_clusters,
                                         options.num_threads));
  return ExplainDpClustXWithStats(stats, options, budget);
}

StatusOr<GlobalExplanation> ExplainDpClustXWithStats(
    const StatsCache& stats, const DpClustXOptions& options,
    PrivacyBudget* budget) {
  DPX_RETURN_IF_ERROR(options.Validate());
  DPX_RETURN_IF_ERROR(
      options.ValidateShape(stats.num_rows(), stats.num_attributes(),
                            stats.num_clusters()));
  // Check the deadline BEFORE reserving budget: a request that expired while
  // queued must charge nothing. Checkpoints past this point do not refund —
  // the accountant may overstate, never understate, the released ε.
  DPX_RETURN_IF_ERROR(options.deadline.Check("explain start"));

  // Reserve the whole run's budget up front so a failure cannot leave a
  // partially-released explanation.
  {
    DPX_SPAN("budget_reserve");
    if (budget != nullptr) {
      DPX_RETURN_IF_ERROR(budget->Spend(options.epsilon_cand_set,
                                        "dpclustx/stage1-candidates"));
      DPX_RETURN_IF_ERROR(budget->Spend(options.epsilon_top_comb,
                                        "dpclustx/stage2-selection"));
      if (options.generate_histograms) {
        DPX_RETURN_IF_ERROR(
            budget->Spend(options.epsilon_hist, "dpclustx/histograms"));
      }
    }
  }

  Rng rng(options.seed);

  // Algorithm 2, lines 1–2: conditional single-cluster weights γ from λ,
  // then the configured Stage-1 mechanism. (Spans time the stages only —
  // they never touch the Rng, so the noise-stream contract is untouched.)
  std::vector<std::vector<AttrIndex>> candidate_sets;
  {
    DPX_SPAN("stage1_candidates");
    const SingleClusterWeights gamma =
        options.lambda.ConditionalSingleClusterWeights();
    switch (options.stage1) {
      case Stage1Selector::kOneShotTopK: {
        CandidateSelectionOptions stage1;
        stage1.epsilon = options.epsilon_cand_set;
        stage1.k = options.num_candidates;
        stage1.gamma = gamma;
        stage1.deadline = options.deadline;
        DPX_ASSIGN_OR_RETURN(candidate_sets,
                             SelectCandidates(stats, stage1, rng));
        break;
      }
      case Stage1Selector::kSvt: {
        SvtCandidateOptions stage1;
        stage1.epsilon = options.epsilon_cand_set;
        stage1.max_candidates = options.num_candidates;
        stage1.threshold_fraction = options.svt_threshold_fraction;
        stage1.gamma = gamma;
        stage1.deadline = options.deadline;
        DPX_ASSIGN_OR_RETURN(candidate_sets,
                             SvtSelectCandidates(stats, stage1, rng));
        break;
      }
    }
  }

  // Lines 4–5: exponential mechanism over candidate combinations.
  AttributeCombination combination;
  {
    DPX_SPAN("stage2_select");
    const core_internal::CombinationScoreTables tables =
        core_internal::BuildLowSensitivityTables(stats, candidate_sets,
                                                 options.lambda);
    DPX_ASSIGN_OR_RETURN(
        combination,
        core_internal::SearchCombination(
            candidate_sets, tables, options.epsilon_top_comb,
            kGlScoreSensitivity, options.max_combinations, rng,
            options.deadline, options.num_threads));
  }

  GlobalExplanation explanation;
  explanation.combination = combination;
  explanation.candidate_sets = std::move(candidate_sets);
  if (!options.generate_histograms) return explanation;

  DPX_SPAN("stage2_histograms");
  std::vector<std::vector<AttrIndex>> selected;
  for (AttrIndex attr : combination) selected.push_back({attr});
  DPX_ASSIGN_OR_RETURN(
      auto released,
      core_internal::ReleaseExplanationHistograms(
          stats, selected, options.epsilon_hist, options.histogram,
          options.deadline, rng));
  for (auto& cluster : released) {
    explanation.per_cluster.push_back(std::move(cluster.front()));
  }
  return explanation;
}

StatusOr<GlobalExplanation> ExplainDpClustX(const Dataset& dataset,
                                            const ClusteringFunction& clustering,
                                            const DpClustXOptions& options,
                                            PrivacyBudget* budget) {
  const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
  return ExplainDpClustXWithLabels(dataset, labels, clustering.num_clusters(),
                                   options, budget);
}

}  // namespace dpclustx
