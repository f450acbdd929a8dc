#include "dp/mechanisms.h"

#include <cmath>
#include <limits>
#include <map>

#include <gtest/gtest.h>

namespace dpclustx {
namespace {

constexpr size_t kSamples = 200000;

TEST(LaplaceMechanismTest, UnbiasedWithCorrectScale) {
  Rng rng(1);
  double sum = 0.0, sq = 0.0;
  const double sensitivity = 2.0, epsilon = 0.5;
  for (size_t i = 0; i < kSamples; ++i) {
    const double x = LaplaceMechanism(10.0, sensitivity, epsilon, rng).value();
    sum += x;
    sq += (x - 10.0) * (x - 10.0);
  }
  EXPECT_NEAR(sum / kSamples, 10.0, 0.15);
  // Var = 2(Δ/ε)² = 2·16 = 32.
  EXPECT_NEAR(sq / kSamples, 32.0, 2.0);
}

TEST(GeometricMechanismTest, UnbiasedIntegerNoise) {
  Rng rng(2);
  double sum = 0.0;
  for (size_t i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(GeometricMechanism(100, 1.0, 1.0, rng).value());
  }
  EXPECT_NEAR(sum / kSamples, 100.0, 0.05);
}

// Empirical ε-DP check: for the geometric mechanism on neighboring counts
// n and n+1, every output's probability ratio must be bounded by e^ε. We
// verify the empirical ratios stay below e^ε·(1 + statistical slack).
TEST(GeometricMechanismTest, EmpiricalPrivacyRatioBounded) {
  const double epsilon = 0.8;
  Rng rng(3);
  std::map<int64_t, double> p_n, p_n1;
  for (size_t i = 0; i < kSamples; ++i) {
    p_n[GeometricMechanism(5, 1.0, epsilon, rng).value()] += 1.0;
    p_n1[GeometricMechanism(6, 1.0, epsilon, rng).value()] += 1.0;
  }
  const double bound = std::exp(epsilon);
  for (const auto& [value, count] : p_n) {
    if (count < 1000.0) continue;  // skip tails with high relative error
    const auto it = p_n1.find(value);
    ASSERT_NE(it, p_n1.end());
    const double ratio = count / it->second;
    EXPECT_LT(ratio, bound * 1.1) << "output " << value;
    EXPECT_GT(ratio, 1.0 / (bound * 1.1)) << "output " << value;
  }
}

// Hostile parameters must refuse (not abort, not sample): NaN passes every
// ordinary comparison, so the mechanisms check finiteness explicitly.
TEST(MechanismParameterTest, NonFiniteOrNonPositiveParamsRefuse) {
  Rng rng(7);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(LaplaceMechanism(1.0, 1.0, nan, rng).ok());
  EXPECT_FALSE(LaplaceMechanism(1.0, nan, 1.0, rng).ok());
  EXPECT_FALSE(LaplaceMechanism(1.0, 1.0, inf, rng).ok());
  EXPECT_FALSE(LaplaceMechanism(1.0, 1.0, 0.0, rng).ok());
  EXPECT_FALSE(LaplaceMechanism(1.0, -1.0, 1.0, rng).ok());
  EXPECT_FALSE(GeometricMechanism(1, 1.0, nan, rng).ok());
  EXPECT_FALSE(GeometricMechanism(1, inf, 1.0, rng).ok());
  EXPECT_FALSE(GeometricMechanism(1, 1.0, -0.5, rng).ok());
  EXPECT_EQ(LaplaceMechanism(1.0, 1.0, nan, rng).status().code(),
            StatusCode::kInvalidArgument);
}

// Below about 2^-54, exp(-ε) rounds to 1 and the geometric sampler's noise
// collapses to exactly 0; the mechanism must refuse rather than release the
// true count. The smallest ε that still samples keeps drawing real noise.
TEST(MechanismParameterTest, GeometricRefusesEpsilonTooSmallToSample) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const StatusOr<int64_t> tiny = GeometricMechanism(100, 1.0, 1e-17, rng);
    ASSERT_FALSE(tiny.ok()) << "seed " << seed << " released " << *tiny;
    EXPECT_EQ(tiny.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(GeometricMechanism(100, 1.0, 1e-300, rng).ok());
    // The ratio is what matters: a large Δ shrinks ε/Δ the same way.
    EXPECT_FALSE(GeometricMechanism(100, 1e17, 1.0, rng).ok());
  }
  Rng rng(1);
  const StatusOr<int64_t> small = GeometricMechanism(100, 1.0, 1e-16, rng);
  ASSERT_TRUE(small.ok());
  EXPECT_NE(*small, 100);
}

// A refused call must not consume randomness: the noise stream a valid
// caller sees is unaffected by interleaved hostile calls.
TEST(MechanismParameterTest, RefusalDrawsNoNoise) {
  Rng clean(11);
  Rng probed(11);
  const double before = LaplaceMechanism(0.0, 1.0, 1.0, clean).value();
  ASSERT_FALSE(LaplaceMechanism(0.0, 1.0, std::nan(""), probed).ok());
  ASSERT_FALSE(GeometricMechanism(0, -1.0, 1.0, probed).ok());
  EXPECT_EQ(LaplaceMechanism(0.0, 1.0, 1.0, probed).value(), before);
}

TEST(LaplaceNoiseQuantileTest, MatchesClosedForm) {
  // P(|Lap(b)| <= t) = 1 − e^{−t/b}; at b = 1 and confidence 1 − e^{−3},
  // t must be 3.
  const double confidence = 1.0 - std::exp(-3.0);
  EXPECT_NEAR(LaplaceNoiseQuantile(1.0, 1.0, confidence), 3.0, 1e-9);
}

TEST(LaplaceNoiseQuantileTest, EmpiricalCoverage) {
  Rng rng(4);
  const double sensitivity = 1.0, epsilon = 0.5, confidence = 0.9;
  const double t = LaplaceNoiseQuantile(sensitivity, epsilon, confidence);
  size_t within = 0;
  for (size_t i = 0; i < kSamples; ++i) {
    if (std::fabs(LaplaceMechanism(0.0, sensitivity, epsilon, rng).value()) <=
        t) {
      ++within;
    }
  }
  EXPECT_NEAR(static_cast<double>(within) / kSamples, confidence, 0.005);
}

TEST(EpsilonForLaplaceErrorTest, InvertsTheQuantile) {
  const double sensitivity = 1.0, max_error = 5.0, confidence = 0.95;
  const double epsilon =
      EpsilonForLaplaceError(sensitivity, max_error, confidence);
  EXPECT_NEAR(LaplaceNoiseQuantile(sensitivity, epsilon, confidence),
              max_error, 1e-9);
}

TEST(EpsilonForLaplaceErrorTest, TighterErrorNeedsMoreBudget) {
  const double loose = EpsilonForLaplaceError(1.0, 10.0, 0.95);
  const double tight = EpsilonForLaplaceError(1.0, 1.0, 0.95);
  EXPECT_GT(tight, loose);
}

}  // namespace
}  // namespace dpclustx
