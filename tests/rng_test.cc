#include "common/rng.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/gumbel.h"

namespace dpclustx {
namespace {

constexpr size_t kSamples = 200000;

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.UniformDouble(), b.UniformDouble());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformDouble() == b.UniformDouble()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (size_t i = 0; i < kSamples; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, UniformOpenDoubleNeverZeroOrOne) {
  Rng rng(9);
  for (size_t i = 0; i < kSamples; ++i) {
    const double u = rng.UniformOpenDouble();
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, OpenUnitFromWordMapsExtremeWordsInsideTheOpenInterval) {
  // Sampling never reaches these words; the map is checked on them directly.
  EXPECT_EQ(OpenUnitFromWord(0), 0x1p-54);
  EXPECT_EQ(OpenUnitFromWord(0x7ff), 0x1p-54);  // low 11 bits unused
  // The all-ones top 53 bits: (2^53 - 1) + 0.5 rounds to 2^53, i.e. u = 1.
  // That one word maps to the largest double below 1 instead.
  EXPECT_EQ(OpenUnitFromWord(~uint64_t{0}), std::nextafter(1.0, 0.0));
  EXPECT_EQ(OpenUnitFromWord(~uint64_t{0} << 11),
            std::nextafter(1.0, 0.0));
  // Every other word keeps (m + 0.5)·2^-53, including its neighbour.
  const auto midpoint = [](uint64_t word) {
    return (static_cast<double>(word >> 11) + 0.5) * 0x1.0p-53;
  };
  const uint64_t neighbour = (~uint64_t{0} >> 11) - 1;
  EXPECT_EQ(OpenUnitFromWord(neighbour << 11),
            midpoint(neighbour << 11));
  EXPECT_LT(OpenUnitFromWord(neighbour << 11), 1.0);
  Xoshiro256 engine(3);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t word = engine();
    if ((word >> 11) == (~uint64_t{0} >> 11)) continue;
    ASSERT_EQ(OpenUnitFromWord(word), midpoint(word)) << word;
  }
}

// |got - ln x| in ulps of the double nearest ln x, against an extended-
// precision reference.
double LogErrorUlps(double x) {
  const long double exact = std::log(static_cast<long double>(x));
  const double nearest = std::fabs(static_cast<double>(exact));
  const double ulp = std::nextafter(nearest, INFINITY) - nearest;
  return static_cast<double>(
      std::fabs(static_cast<long double>(BranchFreeLog(x)) - exact) / ulp);
}

TEST(GumbelTransformTest, BranchFreeLogIsWithinOneUlp) {
  double worst = 0.0, worst_at = 0.0;
  const auto check = [&](double x) {
    const double error = LogErrorUlps(x);
    if (error > worst) {
      worst = error;
      worst_at = x;
    }
  };
  // The inner log's domain: every uniform in [2^-54, 1 - 2^-53], densely
  // (a geometric sweep), plus the last 2^20 doubles below 1.
  for (double x = 0x1p-54; x < 1.0; x *= 1.00002) check(x);
  for (int i = 1; i <= (1 << 20); ++i) check(1.0 - i * 0x1p-53);
  // The outer log's domain: -ln u for those uniforms, (1.1e-16, 37.43].
  for (double x = 1.1e-16; x <= 37.43; x *= 1.00002) check(x);
  // The extremes of both, and of positive normal doubles.
  for (const double x :
       {0x1p-54, 0x1p-53, std::nextafter(1.0, 0.0), 1.1102230246251565e-16,
        37.43, 37.42994775023705, 1.0, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max()}) {
    check(x);
  }
  EXPECT_LE(worst, 1.0) << "at " << worst_at;
  EXPECT_EQ(BranchFreeLog(1.0), 0.0);
}

TEST(GumbelTransformTest, EndpointsOfTheOpenIntervalGiveFiniteNoise) {
  // The largest uniform: -ln u = 2^-53 (to within an ulp), so the noise is
  // 53·ln 2 ≈ 36.74 — finite (u = 1 would give +inf).
  const double top = GumbelFromUniform(OpenUnitFromWord(~uint64_t{0}),
                                       1.0);
  EXPECT_NEAR(top, 53.0 * std::log(2.0), 1e-12);
  // The smallest: -ln u = 54·ln 2, noise -ln(54·ln 2) ≈ -3.62.
  const double bottom = GumbelFromUniform(0x1p-54, 1.0);
  EXPECT_NEAR(bottom, -std::log(54.0 * std::log(2.0)), 1e-12);
}

// ---- The Stage-2 search's keyed words (KeyedWord, common/gumbel.h) ----

TEST(KeyedWordTest, MatchesSplitMix64KnownAnswers) {
  // SplitMix64 seeded with 1234567: its first five outputs, computed from
  // the reference algorithm (Steele, Lea & Flood; Vigna's splitmix64.c)
  // independently of this code.
  const uint64_t expected[] = {6457827717110365317ULL, 3203168211198807973ULL,
                               9817491932198370423ULL, 4593380528125082431ULL,
                               16408922859458223821ULL};
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(KeyedWord(1234567, i), expected[i]) << "index " << i;
  }
  // Key 0 (the mix of the increment alone).
  EXPECT_EQ(KeyedWord(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(KeyedWord(0, 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(KeyedWord(0, 2), 0x06c45d188009454fULL);
}

TEST(KeyedWordTest, IndexesTheSerialStreamAtAnyOffset) {
  // Word i is the serial generator's (i+1)-th output: a block that starts
  // at index 10^6 gets the same words the serial stream reaches there.
  for (const uint64_t key : {uint64_t{0}, ~uint64_t{0}, uint64_t{77}}) {
    uint64_t state = key;
    for (uint64_t i = 0; i < 1000100; ++i) {
      state += kSplitMix64Gamma;
      if (i < 100 || i >= 1000000) {
        ASSERT_EQ(KeyedWord(key, i), SplitMix64Mix(state))
            << "key " << key << " index " << i;
      }
    }
  }
}

// Pearson's statistic of `uniforms` over 256 equal bins, and their lag-1
// autocorrelation.
std::pair<double, double> UniformityStatistics(
    const std::vector<double>& uniforms) {
  std::vector<double> counts(256, 0.0);
  double lag = 0.0, var = 0.0;
  for (size_t i = 0; i < uniforms.size(); ++i) {
    ++counts[static_cast<size_t>(uniforms[i] * 256.0)];
    const double centered = uniforms[i] - 0.5;
    var += centered * centered;
    if (i + 1 < uniforms.size()) lag += centered * (uniforms[i + 1] - 0.5);
  }
  const double expected = static_cast<double>(uniforms.size()) / 256.0;
  double chi_square = 0.0;
  for (const double count : counts) {
    chi_square += (count - expected) * (count - expected) / expected;
  }
  return {chi_square, lag / var};
}

TEST(KeyedWordTest, DerivedUniformsAreUniformAndUncorrelated) {
  // The 1 - 10^-6 quantile of χ² with 255 degrees of freedom (Wilson–
  // Hilferty), and five standard deviations of the lag-1 correlation of
  // n independent uniforms (1/√n).
  constexpr double kChiSquareBound = 377.2;
  constexpr size_t kCount = size_t{1} << 20;
  const double correlation_bound = 5.0 / std::sqrt(double{kCount});
  // One search's uniforms: consecutive indices under one key word.
  std::vector<double> along(kCount);
  const uint64_t key = Rng(42).engine()();
  for (size_t i = 0; i < kCount; ++i) {
    along[i] = OpenUnitFromWord(KeyedWord(key, i));
  }
  // Across searches: the first 1,024 uniforms of 1,024 successive keys
  // from one Rng, interleaved so neighbours come from different keys.
  std::vector<double> across(kCount);
  Rng rng(43);
  for (size_t k = 0; k < 1024; ++k) {
    const uint64_t next = rng.engine()();
    for (size_t i = 0; i < 1024; ++i) {
      across[i * 1024 + k] = OpenUnitFromWord(KeyedWord(next, i));
    }
  }
  for (const auto* uniforms : {&along, &across}) {
    const auto [chi_square, correlation] = UniformityStatistics(*uniforms);
    EXPECT_LT(chi_square, kChiSquareBound);
    EXPECT_LT(std::fabs(correlation), correlation_bound);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  std::vector<size_t> counts(10, 0);
  for (size_t i = 0; i < kSamples; ++i) ++counts[rng.UniformInt(10)];
  for (size_t count : counts) {
    EXPECT_NEAR(static_cast<double>(count), kSamples / 10.0,
                5.0 * std::sqrt(kSamples / 10.0));
  }
}

TEST(RngTest, LaplaceMomentsMatch) {
  Rng rng(13);
  const double scale = 2.5;
  double sum = 0.0, sq = 0.0;
  for (size_t i = 0; i < kSamples; ++i) {
    const double x = rng.Laplace(scale);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  // Var(Lap(b)) = 2b².
  EXPECT_NEAR(var, 2.0 * scale * scale, 0.4);
}

TEST(RngTest, GumbelMomentsMatch) {
  Rng rng(17);
  const double scale = 1.5;
  double sum = 0.0, sq = 0.0;
  for (size_t i = 0; i < kSamples; ++i) {
    const double x = rng.Gumbel(scale);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  constexpr double kEulerGamma = 0.5772156649015329;
  // E[Gumbel(σ)] = σγ, Var = σ²π²/6.
  EXPECT_NEAR(mean, scale * kEulerGamma, 0.03);
  EXPECT_NEAR(var, scale * scale * M_PI * M_PI / 6.0, 0.15);
}

TEST(RngTest, TwoSidedGeometricSymmetricWithCorrectTail) {
  Rng rng(19);
  const double eps = 0.5;
  double sum = 0.0;
  size_t zeros = 0;
  for (size_t i = 0; i < kSamples; ++i) {
    const int64_t z = rng.TwoSidedGeometric(eps);
    sum += static_cast<double>(z);
    if (z == 0) ++zeros;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.1);
  // P(Z = 0) = (1 − α)/(1 + α) with α = e^{−ε}.
  const double alpha = std::exp(-eps);
  EXPECT_NEAR(static_cast<double>(zeros) / kSamples,
              (1.0 - alpha) / (1.0 + alpha), 0.01);
}

TEST(RngTest, TwoSidedGeometricDecaysGeometrically) {
  Rng rng(23);
  const double eps = 1.0;
  std::vector<size_t> counts(5, 0);
  for (size_t i = 0; i < kSamples; ++i) {
    const int64_t z = rng.TwoSidedGeometric(eps);
    if (z >= 0 && z < 5) ++counts[static_cast<size_t>(z)];
  }
  // Successive positive values should have ratio ≈ e^{−ε}.
  for (size_t v = 0; v + 1 < counts.size(); ++v) {
    ASSERT_GT(counts[v], 0u);
    const double ratio =
        static_cast<double>(counts[v + 1]) / static_cast<double>(counts[v]);
    EXPECT_NEAR(ratio, std::exp(-eps), 0.05);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(29);
  double sum = 0.0, sq = 0.0;
  for (size_t i = 0; i < kSamples; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(sq / kSamples - mean * mean, 4.0, 0.1);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(31);
  size_t hits = 0;
  for (size_t i = 0; i < kSamples; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(37);
  const double weights[] = {1.0, 3.0, 6.0};
  std::vector<size_t> counts(3, 0);
  for (size_t i = 0; i < kSamples; ++i) {
    ++counts[rng.Categorical(weights, 3)];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / kSamples, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kSamples, 0.6, 0.01);
}

TEST(RngTest, CategoricalHandlesZeroWeightBuckets) {
  Rng rng(41);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.Categorical(weights, 3), 1u);
  }
}

TEST(RngTest, ForkProducesDecorrelatedStream) {
  Rng parent(43);
  Rng child = parent.Fork();
  // The child stream should not replay the parent stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.UniformDouble() == child.UniformDouble()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Xoshiro256Test, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256::min() == 0);
  static_assert(Xoshiro256::max() == ~0ULL);
  Xoshiro256 engine(5);
  // Smoke: successive outputs differ.
  EXPECT_NE(engine(), engine());
}

}  // namespace
}  // namespace dpclustx
