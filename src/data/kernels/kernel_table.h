// The per-ISA kernel function-pointer table (DESIGN.md §12).
//
// One KernelTable exists per compiled ISA level; kernels::Active() (isa.h)
// returns the one matching the host CPU. Entries are plain function
// pointers so the call sites stay free of templates over the ISA dimension:
// the width dimension is handled by the caller's VisitColumn dispatch, which
// picks the matching _u8/_u16/_u32 entry via the overload helpers below.
//
// Contract for every entry (enforced by tests/dataset_layout_test and, for
// the Stage-2 entries, tests/parallel_equivalence_test):
//   - integer kernels produce bitwise-identical outputs at every level;
//   - float kernels produce bitwise-identical outputs at every level
//     (fixed eight-accumulator reductions, no FMA contraction);
//   - no entry validates its inputs — callers check codes/labels/bounds.

#ifndef DPCLUSTX_DATA_KERNELS_KERNEL_TABLE_H_
#define DPCLUSTX_DATA_KERNELS_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/kernels/isa.h"

namespace dpclustx::kernels {

struct KernelTable {
  IsaLevel level;
  const char* name;

  /// counts[codes[row]] += 1 for row in [begin, end); bins = domain size.
  /// Banked 4-way when bins fits L1 (see kernels_impl.inc).
  void (*hist_u8)(const uint8_t* codes, size_t begin, size_t end, size_t bins,
                  uint64_t* counts);
  void (*hist_u16)(const uint16_t* codes, size_t begin, size_t end,
                   size_t bins, uint64_t* counts);
  void (*hist_u32)(const uint32_t* codes, size_t begin, size_t end,
                   size_t bins, uint64_t* counts);

  /// counts[codes[rows[i]]] += 1 for i in [0, n) — the sub-bag histogram.
  void (*hist_rows_u8)(const uint8_t* codes, const uint32_t* rows, size_t n,
                       size_t bins, uint64_t* counts);
  void (*hist_rows_u16)(const uint16_t* codes, const uint32_t* rows, size_t n,
                        size_t bins, uint64_t* counts);
  void (*hist_rows_u32)(const uint32_t* codes, const uint32_t* rows, size_t n,
                        size_t bins, uint64_t* counts);

  /// base[labels[row]*domain + codes[row]] += 1 for row in [begin, end).
  /// `bank` is caller-owned scratch reused across calls; end - begin must
  /// stay below 2^32 so the banked uint32 partials cannot overflow.
  void (*group_hist_u8)(const uint8_t* codes, const uint32_t* labels,
                        size_t begin, size_t end, size_t domain,
                        size_t num_groups, uint64_t* base,
                        std::vector<uint32_t>* bank);
  void (*group_hist_u16)(const uint16_t* codes, const uint32_t* labels,
                         size_t begin, size_t end, size_t domain,
                         size_t num_groups, uint64_t* base,
                         std::vector<uint32_t>* bank);
  void (*group_hist_u32)(const uint32_t* codes, const uint32_t* labels,
                         size_t begin, size_t end, size_t domain,
                         size_t num_groups, uint64_t* base,
                         std::vector<uint32_t>* bank);

  /// out[(row-begin)*stride] = offset + scale*codes[row] for row in
  /// [begin, end) — one strided embedded coordinate column.
  void (*embed_u8)(const uint8_t* codes, size_t begin, size_t end,
                   double scale, double offset, double* out, size_t stride);
  void (*embed_u16)(const uint16_t* codes, size_t begin, size_t end,
                    double scale, double offset, double* out, size_t stride);
  void (*embed_u32)(const uint32_t* codes, size_t begin, size_t end,
                    double scale, double offset, double* out, size_t stride);

  /// partial[r] += (col[r] != mode) for r in [0, n) — one attribute of the
  /// Hamming tile, accumulating at the codes' own lane width (uint32
  /// accumulates straight into the 32-bit distance block).
  void (*hamming_u8)(const uint8_t* col, size_t n, uint8_t mode,
                     uint8_t* partial);
  void (*hamming_u16)(const uint16_t* col, size_t n, uint16_t mode,
                      uint16_t* partial);
  void (*hamming_u32)(const uint32_t* col, size_t n, uint32_t mode,
                      uint32_t* partial);

  /// Σ (x[i]-y[i])² over [0, n), fixed eight-accumulator reduction.
  double (*squared_distance)(const double* x, const double* y, size_t n);

  /// Σ (x[i]-mean[i])²·inv_var[i] over [0, n), same reduction structure —
  /// the GMM E-step quadratic form (variances pre-inverted by the caller).
  double (*quad_form)(const double* x, const double* mean,
                      const double* inv_var, size_t n);

  /// y[i] += a·x[i] — the E-step responsibility-weighted coordinate
  /// accumulation (elementwise, so lane-exact at any width).
  void (*axpy)(double a, const double* x, double* y, size_t n);

  /// acc[i] += w·(x[i]-mean[i])² — the M-step variance accumulation.
  void (*weighted_sq_acc)(double w, const double* x, const double* mean,
                          double* acc, size_t n);

  /// noise[i] = GumbelFromUniform(OpenUnitFromWord(KeyedWord(key,
  /// first + i)), 1) for i in [0, n) — the Stage-2 search's noise for
  /// combinations first.. (common/gumbel.h). Elementwise, so every level
  /// gives the scalar transform's bits.
  void (*keyed_gumbel)(uint64_t key, uint64_t first, size_t n, double* noise);

  /// The first index of the maximum of scale·scores[i] + noise_i over
  /// [0, n), n >= 1, where noise_i is keyed_gumbel's value for combination
  /// first + i; the maximum goes to *best. The search's Gumbel-max winner
  /// of a block from its int64 fixed-point scores, in one pass that makes
  /// the words, the uniforms, the noise and the combine in L1-sized chunks.
  size_t (*noisy_argmax)(const int64_t* scores, double scale, uint64_t key,
                         uint64_t first, size_t n, double* best);

  /// out[p·m + t] = inner[t] + adds[p] (+ tile[p·m + t] when tile is not
  /// null) for p < rows, t < m — the Stage-2 search's outer sums: a tile's
  /// int64 scores from its summed table and its per-cluster vectors.
  void (*outer_sum)(const int64_t* inner, size_t m, const int64_t* adds,
                    size_t rows, const int64_t* tile, int64_t* out);

  /// The first index of the maximum of scores[0, n), n >= 1 — the exact
  /// (non-private) search's block winner.
  size_t (*score_argmax)(const int64_t* scores, size_t n);
};

/// Per-ISA table accessors, defined one per translation unit. Only levels
/// compiled into the binary are referenced (isa.cc, under the
/// DPCLUSTX_HAVE_ISA_* definitions its CMake rule injects).
namespace generic_impl { const KernelTable* GetKernelTable(); }
namespace sse2_impl { const KernelTable* GetKernelTable(); }
namespace avx2_impl { const KernelTable* GetKernelTable(); }
namespace avx512_impl { const KernelTable* GetKernelTable(); }

/// Overload helpers: pick the table entry matching a typed code pointer, so
/// VisitColumn lambdas stay width-generic:
///   VisitColumn(view, [&](const auto* codes) {
///     HistFn(table, codes)(codes, begin, end, bins, counts);
///   });
inline auto HistFn(const KernelTable& t, const uint8_t*) { return t.hist_u8; }
inline auto HistFn(const KernelTable& t, const uint16_t*) {
  return t.hist_u16;
}
inline auto HistFn(const KernelTable& t, const uint32_t*) {
  return t.hist_u32;
}

inline auto HistRowsFn(const KernelTable& t, const uint8_t*) {
  return t.hist_rows_u8;
}
inline auto HistRowsFn(const KernelTable& t, const uint16_t*) {
  return t.hist_rows_u16;
}
inline auto HistRowsFn(const KernelTable& t, const uint32_t*) {
  return t.hist_rows_u32;
}

inline auto GroupHistFn(const KernelTable& t, const uint8_t*) {
  return t.group_hist_u8;
}
inline auto GroupHistFn(const KernelTable& t, const uint16_t*) {
  return t.group_hist_u16;
}
inline auto GroupHistFn(const KernelTable& t, const uint32_t*) {
  return t.group_hist_u32;
}

inline auto EmbedFn(const KernelTable& t, const uint8_t*) {
  return t.embed_u8;
}
inline auto EmbedFn(const KernelTable& t, const uint16_t*) {
  return t.embed_u16;
}
inline auto EmbedFn(const KernelTable& t, const uint32_t*) {
  return t.embed_u32;
}

inline auto HammingFn(const KernelTable& t, const uint8_t*) {
  return t.hamming_u8;
}
inline auto HammingFn(const KernelTable& t, const uint16_t*) {
  return t.hamming_u16;
}
inline auto HammingFn(const KernelTable& t, const uint32_t*) {
  return t.hamming_u32;
}

}  // namespace dpclustx::kernels

#endif  // DPCLUSTX_DATA_KERNELS_KERNEL_TABLE_H_
