// Deterministic random number generation for the whole library.
//
// All randomness — DP noise, clustering initialization, synthetic data —
// flows from an Rng instance so experiments are reproducible from a single
// seed. The engine is xoshiro256++ (public-domain algorithm by Blackman &
// Vigna) seeded through splitmix64, and the DP-relevant samplers (Laplace,
// Gumbel, two-sided geometric) are hand-rolled from their closed forms rather
// than delegated to the standard library, whose distributions are
// implementation-defined.

#ifndef DPCLUSTX_COMMON_RNG_H_
#define DPCLUSTX_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/gumbel.h"

namespace dpclustx {

/// xoshiro256++ engine. Satisfies UniformRandomBitGenerator so it can also be
/// plugged into <random> distributions where determinism across standard
/// library implementations is not required.
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64(seed).
  explicit Xoshiro256(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Next 64 random bits.
  result_type operator()() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// High-level sampler over a Xoshiro256 engine.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in (0, 1) — never returns an endpoint; safe for log().
  /// OpenUnitFromWord (common/gumbel.h) of one engine word.
  double UniformOpenDouble() { return OpenUnitFromWord(engine_()); }

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling so
  /// the distribution is exactly uniform.
  uint64_t UniformInt(uint64_t n);

  /// Uniform double in [lo, hi).
  double UniformRange(double lo, double hi);

  /// Laplace(0, scale): density (1/2b)·exp(-|x|/b). Requires scale > 0.
  double Laplace(double scale);

  /// Gumbel(0, scale): CDF exp(-exp(-x/σ)). Requires scale > 0. This is the
  /// noise of the one-shot top-k mechanism (Durfee & Rogers 2019). It is
  /// GumbelFromUniform (common/gumbel.h) of one UniformOpenDouble() draw.
  double Gumbel(double scale);

  /// Two-sided (discrete) geometric noise with parameter alpha = exp(-eps):
  /// P(Z = z) ∝ alpha^|z|, the distribution of the Ghosh–Roughgarden–
  /// Sundararajan universally-optimal mechanism for sensitivity-1 counts.
  /// Requires eps > 0. Sampled as the difference of two geometric variables.
  int64_t TwoSidedGeometric(double eps);

  /// Standard normal via Box–Muller (spare value cached).
  double Gaussian();
  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Gaussian(double mean, double stddev);

  /// Bernoulli(p).
  bool Bernoulli(double p);

  /// Draws an index in [0, n) with probability proportional to weights[i].
  /// Weights must be non-negative with a positive sum.
  size_t Categorical(const double* weights, size_t n);

  /// Derives an independent child generator; used to give parallel components
  /// decorrelated streams from one master seed.
  Rng Fork();

  Xoshiro256& engine() { return engine_; }

 private:
  Xoshiro256 engine_;
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_RNG_H_
