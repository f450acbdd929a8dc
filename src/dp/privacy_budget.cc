#include "dp/privacy_budget.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace dpclustx {

namespace {
// Relative slack for floating-point budget comparisons: summing many small
// charges accumulates rounding error proportional to the total, so an exact
// spend-down (e.g. 10^6 charges of total/10^6) must not spuriously fail. The
// max(1, total) floor keeps tiny budgets (ε ≪ 1) from demanding sub-ulp
// precision.
constexpr double kBudgetRelTolerance = 1e-9;

double BudgetSlack(double total) {
  return kBudgetRelTolerance * std::max(1.0, total);
}
}  // namespace

PrivacyBudget::PrivacyBudget(double total_epsilon) : total_(total_epsilon) {
  DPX_CHECK_GT(total_epsilon, 0.0) << "privacy budget must be positive";
}

double PrivacyBudget::spent_epsilon() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spent_;
}

double PrivacyBudget::remaining_epsilon() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::max(0.0, total_ - spent_);
}

Status PrivacyBudget::Spend(double epsilon, const std::string& label) {
  // The finite check must be explicit: a NaN charge passes every comparison
  // below (all false) and would poison spent_ for the accountant's lifetime.
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "epsilon must be finite and positive (label '" + label + "')");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (spent_ + epsilon > total_ + BudgetSlack(total_)) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "spending %.6g for '%s' exceeds budget (spent %.6g of %.6g)",
                  epsilon, label.c_str(), spent_, total_);
    return Status::OutOfBudget(msg);
  }
  // Never clamped to the total: the slack is spent once, not re-granted to
  // every later charge below it.
  spent_ += epsilon;
  const auto [slot, added] = index_.try_emplace(label, totals_.size());
  if (added) totals_.push_back({label, 0, 0.0});
  LabelTotal& total = totals_[slot->second];
  ++total.count;
  total.epsilon += epsilon;
  return Status::OK();
}

bool PrivacyBudget::CanSpend(double epsilon) const {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return spent_ + epsilon <= total_ + BudgetSlack(total_);
}

Status PrivacyBudget::SpendParallel(
    const std::vector<double>& per_partition_epsilons,
    const std::string& label) {
  if (per_partition_epsilons.empty()) {
    return Status::InvalidArgument("SpendParallel: empty epsilon list");
  }
  for (double eps : per_partition_epsilons) {
    if (!std::isfinite(eps) || eps <= 0.0) {
      return Status::InvalidArgument(
          "SpendParallel: all epsilons must be finite and positive");
    }
  }
  const double max_eps = *std::max_element(per_partition_epsilons.begin(),
                                           per_partition_epsilons.end());
  return Spend(max_eps, label + " [parallel x" +
                            std::to_string(per_partition_epsilons.size()) +
                            "]");
}

PrivacyBudget::State PrivacyBudget::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return State{spent_, totals_};
}

Status PrivacyBudget::Restore(const State& state) {
  const double slack = BudgetSlack(total_);
  if (!std::isfinite(state.spent) || state.spent < 0.0 ||
      state.spent > total_ + slack) {
    return Status::InvalidArgument("saved spend " +
                                   std::to_string(state.spent) +
                                   " does not fit a budget of " +
                                   std::to_string(total_));
  }
  std::unordered_map<std::string, size_t> index;
  double sum = 0.0;
  for (const LabelTotal& total : state.totals) {
    if (total.count == 0 || !std::isfinite(total.epsilon) ||
        total.epsilon <= 0.0) {
      return Status::InvalidArgument("saved total for label '" + total.label +
                                     "' is not a positive charge");
    }
    if (!index.emplace(total.label, index.size()).second) {
      return Status::InvalidArgument("saved totals list label '" +
                                     total.label + "' twice");
    }
    sum += total.epsilon;
  }
  if (std::fabs(sum - state.spent) > slack) {
    return Status::InvalidArgument(
        "saved per-label totals do not add up to the saved spend");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (spent_ != 0.0 || !totals_.empty()) {
    return Status::FailedPrecondition(
        "only an accountant nothing was charged to can be restored");
  }
  spent_ = state.spent;
  totals_ = state.totals;
  index_ = std::move(index);
  return Status::OK();
}

std::string PrivacyBudget::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  char line[192];
  std::string out;
  std::snprintf(line, sizeof(line),
                "privacy budget: spent %.6g / %.6g epsilon\n", spent_, total_);
  out += line;
  for (const LabelTotal& total : totals_) {
    if (total.count == 1) {
      std::snprintf(line, sizeof(line), "  %-40s %.6g\n", total.label.c_str(),
                    total.epsilon);
    } else {
      std::snprintf(line, sizeof(line), "  %-40s %.6g (%" PRIu64 " charges)\n",
                    total.label.c_str(), total.epsilon, total.count);
    }
    out += line;
  }
  return out;
}

}  // namespace dpclustx
