// The Gumbel transform every noisy selection shares: Stage-1 top-k, the
// exponential mechanism and the Stage-2 combination search (DESIGN.md §8),
// and the keyed words the Stage-2 search draws its uniforms from.
//
// GumbelFromUniform(u, σ) = -σ·ln(-ln u) is the inverse CDF of Gumbel(0, σ).
// Its log is BranchFreeLog below rather than libm's, for two reasons:
//   - it is made only of IEEE basic operations (+, -, ·, /) and 64-bit
//     integer bit manipulation, so its result is fixed by IEEE 754 alone —
//     the same bits on every libm, compiler and vector width;
//   - it has no branch and no call, so the per-ISA kernels that apply it
//     to a whole block (KernelTable::keyed_gumbel, noisy_argmax) vectorize,
//     and their lanes give exactly the bits of the scalar form here.
// KeyedWord and OpenUnitFromWord follow the same rules (integer operations,
// and IEEE operations that are exact or correctly rounded), so a block's
// words, uniforms and noise are the same bits at every vector width.
// Callers must not let the compiler fuse multiply-add: the kernel TUs build
// with -ffp-contract=off, and so does the rest of the project (CMakeLists).

#ifndef DPCLUSTX_COMMON_GUMBEL_H_
#define DPCLUSTX_COMMON_GUMBEL_H_

#include <bit>
#include <cstdint>

namespace dpclustx {

/// Natural log of a positive, normal, finite double, within 1 ulp of the
/// exact value (tests/rng_test). Zero, negative, subnormal, infinite and
/// NaN inputs return unspecified values: the Gumbel transform never passes
/// one (its inputs lie in [2^-54, 1) and then in (1.1e-16, 37.5)).
///
/// fdlibm's algorithm, in musl's branch-free arrangement: x = 2^k·(1+f)
/// with √2/2 < 1+f < √2, s = f/(2+f), ln(1+f) = f - hfsq + s·(hfsq + R(s²))
/// with hfsq = f²/2 and R the Lg1..Lg7 minimax polynomial, and k·ln 2 added
/// as ln2_hi (exact in k·ln2_hi for |k| < 2^11) plus ln2_lo.
inline double BranchFreeLog(double x) {
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kLg1 = 0x1.5555555555593p-1;
  constexpr double kLg2 = 0x1.999999997fa04p-2;
  constexpr double kLg3 = 0x1.2492494229359p-2;
  constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
  constexpr double kLg5 = 0x1.7466496cb03dep-3;
  constexpr double kLg6 = 0x1.39a09d078c69fp-3;
  constexpr double kLg7 = 0x1.2f112df3e5244p-3;
  // Adding 1 - √2/2's mantissa offset carries into the exponent field
  // exactly when the mantissa reaches √2, so the field is k + 1023.
  constexpr uint64_t kSqrtHalfOffset = 0x3ff0000000000000ULL -
                                       0x3fe6a09e00000000ULL;
  constexpr uint64_t kMantissa = 0x000fffffffffffffULL;
  const uint64_t bits = std::bit_cast<uint64_t>(x) + kSqrtHalfOffset;
  const uint64_t biased_k = bits >> 52;
  const double f =
      std::bit_cast<double>((bits & kMantissa) + 0x3fe6a09e00000000ULL) - 1.0;
  // k as a double without an int→double conversion instruction (AVX2 has
  // none for 64-bit lanes): 2^52 + biased_k is exact in the mantissa, and
  // subtracting 2^52 + 1023 is exact because the result is a small integer.
  const double k =
      std::bit_cast<double>(std::bit_cast<uint64_t>(0x1p52) + biased_k) -
      (0x1p52 + 1023.0);
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  return s * (hfsq + (t2 + t1)) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

/// SplitMix64's output function (Steele, Lea & Flood, "Fast splittable
/// pseudorandom number generators", OOPSLA 2014): a bijection on 64-bit
/// words built from xor-shifts and two odd multipliers.
inline uint64_t SplitMix64Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64's state increment, the odd 64-bit golden-ratio constant.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// The word the Stage-2 search draws for combination `index` under `key`:
/// word index + 1 of the SplitMix64 stream seeded at `key`, computed
/// directly from the index (a counter-based generator), so any block of
/// combinations gets its words without the ones before it (docs/PRIVACY.md).
inline uint64_t KeyedWord(uint64_t key, uint64_t index) {
  return SplitMix64Mix(key + (index + 1) * kSplitMix64Gamma);
}

/// The uniform in (0, 1) a 64-bit word maps to: its top 53 bits m give
/// (m + 0.5)·2^-53, which lies in [2^-54, 1) — except the all-ones m, where
/// m + 0.5 rounds to 2^53 (it is exact below 2^52 and rounds to even above,
/// where doubles are integers); that one word gives the largest double
/// below 1 instead. Branch-free and without an int→double conversion (AVX2
/// has none for 64-bit lanes): the low 52 bits of m become 2^52 + m mod
/// 2^52 through the exponent field, and 2^52 is taken off again unless m's
/// top bit is set, both exactly.
inline double OpenUnitFromWord(uint64_t word) {
  constexpr uint64_t kTwoTo52Bits = 0x4330000000000000ULL;  // 2^52
  constexpr uint64_t kMantissa = 0x000fffffffffffffULL;
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  const uint64_t m = word >> 11;
  const double low = std::bit_cast<double>(kTwoTo52Bits | (m & kMantissa));
  const double offset =
      std::bit_cast<double>(((m >> 52) - 1) & kTwoTo52Bits);
  const double u = (low - offset + 0.5) * 0x1p-53;
  return u < kBelowOne ? u : kBelowOne;
}

/// Gumbel(0, scale) from a uniform u in (0, 1): -scale·ln(-ln u). The inner
/// log is negative and nonzero for every u < 1, so the outer one sees a
/// positive normal double. Requires 0 < u < 1 (OpenUnitFromWord).
inline double GumbelFromUniform(double u, double scale) {
  return -scale * BranchFreeLog(-BranchFreeLog(u));
}

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_GUMBEL_H_
