#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace dpclustx {

namespace {

// splitmix64: expands a single seed into well-mixed 64-bit words.
uint64_t SplitMix64(uint64_t& x) {
  x += kSplitMix64Gamma;
  return SplitMix64Mix(x);
}

}  // namespace

Xoshiro256::Xoshiro256(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

double Rng::UniformDouble() {
  // 53 random bits scaled into [0, 1).
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t n) {
  DPX_CHECK_GT(n, 0u);
  // Rejection sampling: discard the first (2^64 mod n) values so the
  // remaining range is an exact multiple of n. `0 - n` wraps to 2^64 − n,
  // whose remainder mod n equals 2^64 mod n.
  const uint64_t threshold = (0 - n) % n;
  uint64_t draw = engine_();
  while (draw < threshold) draw = engine_();
  return draw % n;
}

double Rng::UniformRange(double lo, double hi) {
  DPX_CHECK_LE(lo, hi);
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Laplace(double scale) {
  DPX_CHECK_GT(scale, 0.0);
  // Inverse CDF: u ~ U(-1/2, 1/2); x = -b·sgn(u)·ln(1 - 2|u|).
  const double u = UniformOpenDouble() - 0.5;
  const double sign = (u < 0.0) ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

double Rng::Gumbel(double scale) {
  DPX_CHECK_GT(scale, 0.0);
  return GumbelFromUniform(UniformOpenDouble(), scale);
}

int64_t Rng::TwoSidedGeometric(double eps) {
  DPX_CHECK_GT(eps, 0.0);
  // If G1, G2 are iid geometric (number of failures before first success)
  // with success probability p = 1 - exp(-eps), then G1 - G2 follows the
  // two-sided geometric distribution P(Z = z) ∝ exp(-eps·|z|).
  const double alpha = std::exp(-eps);
  auto geometric = [&]() -> int64_t {
    // Inverse CDF: floor(ln(u) / ln(alpha)) for u in (0, 1).
    const double u = UniformOpenDouble();
    return static_cast<int64_t>(std::floor(std::log(u) / std::log(alpha)));
  };
  return geometric() - geometric();
}

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  // Box–Muller.
  const double u1 = UniformOpenDouble();
  const double u2 = UniformOpenDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_gaussian_ = radius * std::sin(angle);
  has_spare_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::Gaussian(double mean, double stddev) {
  DPX_CHECK_GE(stddev, 0.0);
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

size_t Rng::Categorical(const double* weights, size_t n) {
  DPX_CHECK_GT(n, 0u);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    DPX_CHECK_GE(weights[i], 0.0);
    total += weights[i];
  }
  DPX_CHECK_GT(total, 0.0);
  double target = UniformDouble() * total;
  for (size_t i = 0; i < n; ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return n - 1;  // floating-point slack: attribute to the last bucket
}

Rng Rng::Fork() { return Rng(engine_()); }

}  // namespace dpclustx
