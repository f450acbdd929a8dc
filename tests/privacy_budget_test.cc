#include "dp/privacy_budget.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace dpclustx {
namespace {

TEST(PrivacyBudgetTest, SpendAccumulates) {
  PrivacyBudget budget(1.0);
  EXPECT_TRUE(budget.Spend(0.3, "a").ok());
  EXPECT_TRUE(budget.Spend(0.4, "b").ok());
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.7);
  EXPECT_NEAR(budget.remaining_epsilon(), 0.3, 1e-12);
  EXPECT_EQ(budget.state().totals.size(), 2u);
}

TEST(PrivacyBudgetTest, OverspendFailsWithoutCharging) {
  PrivacyBudget budget(0.5);
  EXPECT_TRUE(budget.Spend(0.4, "a").ok());
  const Status s = budget.Spend(0.2, "b");
  EXPECT_EQ(s.code(), StatusCode::kOutOfBudget);
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.4);  // unchanged
  EXPECT_EQ(budget.state().totals.size(), 1u);
}

TEST(PrivacyBudgetTest, ExactSpendToleratesFloatingPoint) {
  PrivacyBudget budget(0.3);
  // 3 × 0.1 != 0.3 exactly in binary; the slack must absorb it.
  EXPECT_TRUE(budget.Spend(0.1, "a").ok());
  EXPECT_TRUE(budget.Spend(0.1, "b").ok());
  EXPECT_TRUE(budget.Spend(0.1, "c").ok());
}

TEST(PrivacyBudgetTest, RejectsNonPositiveEpsilon) {
  PrivacyBudget budget(1.0);
  EXPECT_EQ(budget.Spend(0.0, "zero").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(budget.Spend(-0.1, "neg").code(), StatusCode::kInvalidArgument);
}

TEST(PrivacyBudgetTest, ParallelChargesMaximum) {
  PrivacyBudget budget(1.0);
  EXPECT_TRUE(budget.SpendParallel({0.2, 0.5, 0.1}, "hist").ok());
  EXPECT_DOUBLE_EQ(budget.spent_epsilon(), 0.5);
}

TEST(PrivacyBudgetTest, ParallelValidatesInput) {
  PrivacyBudget budget(1.0);
  EXPECT_FALSE(budget.SpendParallel({}, "x").ok());
  EXPECT_FALSE(budget.SpendParallel({0.1, 0.0}, "x").ok());
}

TEST(PrivacyBudgetTest, ReportListsEntries) {
  PrivacyBudget budget(1.0);
  ASSERT_TRUE(budget.Spend(0.25, "clustering").ok());
  const std::string report = budget.Report();
  EXPECT_NE(report.find("clustering"), std::string::npos);
  EXPECT_NE(report.find("0.25"), std::string::npos);
}

TEST(PrivacyBudgetTest, RepeatedLabelsShareOneRow) {
  PrivacyBudget budget(1.0);
  ASSERT_TRUE(budget.Spend(0.1, "a").ok());
  ASSERT_TRUE(budget.Spend(0.2, "b").ok());
  ASSERT_TRUE(budget.Spend(0.3, "a").ok());
  const PrivacyBudget::State state = budget.state();
  EXPECT_EQ(state.spent, 0.1 + 0.2 + 0.3);
  ASSERT_EQ(state.totals.size(), 2u);  // first-charge order
  EXPECT_EQ(state.totals[0].label, "a");
  EXPECT_EQ(state.totals[0].count, 2u);
  EXPECT_EQ(state.totals[0].epsilon, 0.1 + 0.3);
  EXPECT_EQ(state.totals[1].label, "b");
  EXPECT_EQ(state.totals[1].count, 1u);
  EXPECT_EQ(state.totals[1].epsilon, 0.2);
  EXPECT_NE(budget.Report().find("(2 charges)"), std::string::npos)
      << budget.Report();
}

TEST(PrivacyBudgetTest, ToleranceIsSpentOnceNotPerCharge) {
  // Once the total is reached, charges below the 1e-9 slack fit only until
  // they have used the slack up; they must not pass forever.
  PrivacyBudget budget(1.0);
  ASSERT_TRUE(budget.Spend(1.0, "all").ok());
  EXPECT_TRUE(budget.Spend(4e-10, "tiny").ok());
  EXPECT_TRUE(budget.Spend(4e-10, "tiny").ok());
  EXPECT_EQ(budget.Spend(4e-10, "tiny").code(), StatusCode::kOutOfBudget);
  EXPECT_EQ(budget.remaining_epsilon(), 0.0);
}

TEST(PrivacyBudgetTest, RestoreReproducesTheSavedState) {
  PrivacyBudget saved(2.0);
  ASSERT_TRUE(saved.Spend(0.1, "a").ok());
  ASSERT_TRUE(saved.Spend(0.07, "b").ok());
  ASSERT_TRUE(saved.Spend(0.3, "a").ok());
  PrivacyBudget restored(2.0);
  ASSERT_TRUE(restored.Restore(saved.state()).ok());
  EXPECT_EQ(restored.spent_epsilon(), saved.spent_epsilon());
  EXPECT_EQ(restored.Report(), saved.Report());
  // Later charges land on the restored rows.
  ASSERT_TRUE(saved.Spend(0.2, "b").ok());
  ASSERT_TRUE(restored.Spend(0.2, "b").ok());
  EXPECT_EQ(restored.Report(), saved.Report());
  EXPECT_EQ(restored.Restore(saved.state()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PrivacyBudgetTest, RestoreRefusesInconsistentStates) {
  using State = PrivacyBudget::State;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<State> refused = {
      {nan, {}},
      {-0.1, {}},
      {1.5, {{"a", 1, 1.5}}},                  // over the total
      {0.3, {{"a", 1, 0.1}, {"a", 1, 0.2}}},   // label twice
      {0.1, {{"a", 0, 0.1}}},                  // no charges
      {0.1, {{"a", 1, nan}}},
      {0.0, {{"a", 1, -0.1}, {"b", 1, 0.1}}},  // non-positive row
      {0.3, {{"a", 1, 0.1}}},                  // rows miss spent
  };
  for (const State& state : refused) {
    PrivacyBudget budget(1.0);
    EXPECT_EQ(budget.Restore(state).code(), StatusCode::kInvalidArgument)
        << state.spent;
    EXPECT_EQ(budget.spent_epsilon(), 0.0);
    EXPECT_TRUE(budget.state().totals.empty());
  }
}

}  // namespace
}  // namespace dpclustx
