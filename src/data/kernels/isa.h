// Runtime ISA dispatch for the multi-arch data-plane kernels (DESIGN.md §12).
//
// The hot width-monomorphic kernels (histogram counting, embedding, the
// k-modes Hamming tile, the GMM/centroid float primitives, the Stage-2
// search's Gumbel noise and noisy-score argmax) are compiled once
// per ISA level — baseline scalar, SSE2, AVX2, AVX-512 — into separate
// translation units with per-TU target flags (src/data/kernels/CMakeLists).
// At first use the process picks the best level the CPU supports via cpuid
// and publishes one KernelTable of function pointers; the existing
// VisitColumn width dispatch calls through it, so release binaries are fast
// on every machine without a -march=native build.
//
// Level selection can be clamped (never raised) with the DPCLUSTX_ISA
// environment variable: generic|sse2|avx2|avx512. Requesting a level the
// host or build lacks falls back to the best supported one with a warning —
// the variable exists for A/B benchmarking and for the forced-level
// equivalence sweeps in scripts/check.sh.
//
// Determinism contract: every integer kernel is bitwise-identical across
// levels by construction (integer sums reorder freely), and the float
// kernels are too, because (a) all kernel TUs are compiled with
// -ffp-contract=off so no level fuses multiply-add, and (b) every float
// reduction runs the same fixed eight-accumulator structure regardless of
// vector width (kernels_impl.inc). tests/dataset_layout_test enforces this
// per level.

#ifndef DPCLUSTX_DATA_KERNELS_ISA_H_
#define DPCLUSTX_DATA_KERNELS_ISA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dpclustx::kernels {

struct KernelTable;

/// Dispatch levels, ascending. Comparison order is meaningful: a level is
/// usable iff it is <= DetectedIsaLevel().
enum class IsaLevel : uint8_t { kGeneric = 0, kSse2 = 1, kAvx2 = 2,
                                kAvx512 = 3 };

/// "generic", "sse2", "avx2", "avx512".
const char* IsaLevelName(IsaLevel level);

/// Parses an IsaLevel name (the DPCLUSTX_ISA vocabulary). Returns false and
/// leaves `level` untouched on an unknown name.
bool ParseIsaLevel(const std::string& text, IsaLevel* level);

/// Best level that is both compiled into this binary and supported by the
/// CPU (cpuid). Constant for the process lifetime.
IsaLevel DetectedIsaLevel();

/// The level the process dispatches to: DetectedIsaLevel() clamped by
/// DPCLUSTX_ISA, read once at first kernel use.
IsaLevel ActiveIsaLevel();

/// All usable levels, ascending — generic first, DetectedIsaLevel() last.
/// The forced-level equivalence tests and bench sweeps iterate this.
std::vector<IsaLevel> SupportedIsaLevels();

/// Space-separated cpuid feature list of this host (e.g. "sse2 sse4.2 avx
/// avx2 avx512f avx512bw avx512dq avx512vl"), independent of what this
/// build compiled in. Stamped into bench snapshots. Empty on non-x86.
std::string CpuFeatureString();

/// The process-wide kernel table (detected level clamped by DPCLUSTX_ISA).
/// Hot loops should hoist the reference out of per-row code.
const KernelTable& Active();

/// The table for an explicit level, clamped to DetectedIsaLevel() — asking
/// for more than the host supports returns the best usable table.
const KernelTable& TableFor(IsaLevel level);

/// Temporarily forces the process-wide table to `level` (clamped to the
/// detected level); restores the previous table on destruction. Test and
/// benchmark use only — swapping is atomic but not synchronized against
/// kernels already running on other threads.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(IsaLevel level);
  ~ScopedForceIsa();
  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;

 private:
  const KernelTable* saved_;
};

}  // namespace dpclustx::kernels

#endif  // DPCLUSTX_DATA_KERNELS_ISA_H_
