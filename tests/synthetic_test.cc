#include "data/synthetic.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dpclustx::synth {
namespace {

SyntheticConfig SmallConfig() {
  SyntheticConfig config;
  config.num_rows = 3000;
  config.num_attributes = 8;
  config.num_latent_groups = 3;
  config.min_domain = 2;
  config.max_domain = 6;
  config.informative_fraction = 0.5;
  config.signal_strength = 0.9;
  config.seed = 99;
  return config;
}

TEST(SyntheticTest, GeneratesRequestedShape) {
  const auto dataset = Generate(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->num_rows(), 3000u);
  EXPECT_EQ(dataset->num_attributes(), 8u);
  for (size_t a = 0; a < 8; ++a) {
    const size_t domain = dataset->schema().attribute(a).domain_size();
    EXPECT_GE(domain, 2u);
    EXPECT_LE(domain, 6u);
  }
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  const auto a = Generate(SmallConfig());
  const auto b = Generate(SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (size_t r = 0; r < a->num_rows(); r += 97) {
    EXPECT_EQ(a->Row(r), b->Row(r));
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig config = SmallConfig();
  const auto a = Generate(config);
  config.seed = 100;
  const auto b = Generate(config);
  size_t differing = 0;
  for (size_t r = 0; r < a->num_rows(); ++r) {
    if (a->Row(r) != b->Row(r)) ++differing;
  }
  EXPECT_GT(differing, a->num_rows() / 2);
}

TEST(SyntheticTest, RejectsDegenerateConfigs) {
  SyntheticConfig config = SmallConfig();
  config.num_rows = 0;
  EXPECT_FALSE(Generate(config).ok());
  config = SmallConfig();
  config.min_domain = 1;
  EXPECT_FALSE(Generate(config).ok());
  config = SmallConfig();
  config.signal_strength = 1.5;
  EXPECT_FALSE(Generate(config).ok());
  config = SmallConfig();
  config.num_latent_groups = 0;
  EXPECT_FALSE(Generate(config).ok());
}

TEST(SyntheticTest, PresetsMatchPaperShapes) {
  EXPECT_EQ(DiabetesLike(1000).num_attributes, 47u);
  EXPECT_EQ(DiabetesLike(1000).max_domain, 39u);
  EXPECT_EQ(CensusLike(1000).num_attributes, 68u);
  EXPECT_EQ(StackOverflowLike(1000).num_attributes, 60u);
  EXPECT_EQ(StackOverflowLike(1000).max_domain, 22u);
}

TEST(SyntheticTest, PresetByNameReturnsThePresetsUnchanged) {
  const auto expect_same = [](const std::string& name,
                              const SyntheticConfig& expected) {
    const StatusOr<SyntheticConfig> got = PresetByName(name);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->num_rows, expected.num_rows) << name;
    EXPECT_EQ(got->num_attributes, expected.num_attributes) << name;
    EXPECT_EQ(got->num_latent_groups, expected.num_latent_groups) << name;
    EXPECT_EQ(got->min_domain, expected.min_domain) << name;
    EXPECT_EQ(got->max_domain, expected.max_domain) << name;
    EXPECT_EQ(got->informative_fraction, expected.informative_fraction)
        << name;
    EXPECT_EQ(got->signal_strength, expected.signal_strength) << name;
    EXPECT_EQ(got->group_skew, expected.group_skew) << name;
    EXPECT_EQ(got->name_prefix, expected.name_prefix) << name;
    EXPECT_EQ(got->seed, expected.seed) << name;
  };
  expect_same("diabetes", DiabetesLike());
  expect_same("census", CensusLike());
  expect_same("stackoverflow", StackOverflowLike());
  for (const std::string name : {"", "Diabetes", "census ", "adult"}) {
    const StatusOr<SyntheticConfig> got = PresetByName(name);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(CramersVTest, PerfectAssociationIsOne) {
  Schema schema({Attribute::WithAnonymousDomain("a", 3),
                 Attribute::WithAnonymousDomain("b", 3)});
  Dataset dataset(schema);
  for (int i = 0; i < 300; ++i) {
    const auto code = static_cast<ValueCode>(i % 3);
    dataset.AppendRowUnchecked({code, code});
  }
  EXPECT_NEAR(CramersV(dataset, 0, 1), 1.0, 1e-9);
}

TEST(CramersVTest, IndependentColumnsNearZero) {
  Schema schema({Attribute::WithAnonymousDomain("a", 4),
                 Attribute::WithAnonymousDomain("b", 4)});
  Dataset dataset(schema);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    dataset.AppendRowUnchecked(
        {static_cast<ValueCode>(rng.UniformInt(4)),
         static_cast<ValueCode>(rng.UniformInt(4))});
  }
  EXPECT_LT(CramersV(dataset, 0, 1), 0.05);
}

TEST(CramersVTest, DegenerateColumnScoresZero) {
  Schema schema({Attribute::WithAnonymousDomain("a", 3),
                 Attribute::WithAnonymousDomain("b", 3)});
  Dataset dataset(schema);
  for (int i = 0; i < 100; ++i) {
    dataset.AppendRowUnchecked({0, static_cast<ValueCode>(i % 3)});
  }
  EXPECT_DOUBLE_EQ(CramersV(dataset, 0, 1), 0.0);
}

TEST(CorrelatedTwinsTest, HitsTargetAssociation) {
  const auto base = Generate(SmallConfig());
  ASSERT_TRUE(base.ok());
  const auto extended = AddCorrelatedTwins(*base, 0.85, 7);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->num_attributes(), 16u);
  EXPECT_EQ(extended->num_rows(), base->num_rows());
  // Each twin should associate with its original near the target.
  for (size_t a = 0; a < 8; ++a) {
    const double v = CramersV(*extended, static_cast<AttrIndex>(a),
                              static_cast<AttrIndex>(8 + a));
    EXPECT_NEAR(v, 0.85, 0.08) << "attribute " << a;
  }
}

TEST(CorrelatedTwinsTest, TwinNamesAndDomains) {
  const auto base = Generate(SmallConfig());
  const auto extended = AddCorrelatedTwins(*base, 0.85, 7);
  ASSERT_TRUE(extended.ok());
  for (size_t a = 0; a < 8; ++a) {
    EXPECT_EQ(extended->schema().attribute(8 + a).name(),
              base->schema().attribute(a).name() + "_corr");
    EXPECT_EQ(extended->schema().attribute(8 + a).domain_size(),
              base->schema().attribute(a).domain_size());
  }
}

TEST(NumericSyntheticTest, GeneratesShapeAndGroups) {
  NumericSyntheticConfig config;
  config.num_rows = 5000;
  config.num_columns = 6;
  config.num_latent_groups = 3;
  config.seed = 5;
  const auto data = GenerateNumeric(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->columns.size(), 6u);
  EXPECT_EQ(data->columns[0].size(), 5000u);
  EXPECT_EQ(data->groups.size(), 5000u);
  for (uint32_t g : data->groups) EXPECT_LT(g, 3u);
}

TEST(NumericSyntheticTest, InformativeColumnsSeparateGroups) {
  NumericSyntheticConfig config;
  config.num_rows = 20000;
  config.num_columns = 4;
  config.num_latent_groups = 2;
  config.informative_fraction = 0.5;  // columns 0-1 informative, 2-3 noise
  config.separation = 3.0;
  config.seed = 6;
  const auto data = GenerateNumeric(config);
  ASSERT_TRUE(data.ok());
  auto group_mean_gap = [&](size_t col) {
    double sum[2] = {0, 0};
    size_t count[2] = {0, 0};
    for (size_t r = 0; r < data->groups.size(); ++r) {
      sum[data->groups[r]] += data->columns[col][r];
      ++count[data->groups[r]];
    }
    return std::abs(sum[0] / static_cast<double>(count[0]) -
                    sum[1] / static_cast<double>(count[1]));
  };
  EXPECT_GT(group_mean_gap(0), 20.0);
  EXPECT_LT(group_mean_gap(3), 2.0);
}

TEST(NumericSyntheticTest, RejectsDegenerateConfig) {
  NumericSyntheticConfig config;
  config.num_rows = 0;
  EXPECT_FALSE(GenerateNumeric(config).ok());
  config = NumericSyntheticConfig{};
  config.informative_fraction = 2.0;
  EXPECT_FALSE(GenerateNumeric(config).ok());
}

TEST(CorrelatedTwinsTest, RejectsBadTarget) {
  const auto base = Generate(SmallConfig());
  EXPECT_FALSE(AddCorrelatedTwins(*base, 0.0, 1).ok());
  EXPECT_FALSE(AddCorrelatedTwins(*base, 1.0, 1).ok());
}

}  // namespace
}  // namespace dpclustx::synth
