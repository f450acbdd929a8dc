// Privacy-budget accounting.
//
// A PrivacyBudget tracks ε spent by a sequence of mechanism invocations under
// sequential composition (Prop. 2.5 of the paper): total ε is the sum of the
// ε's of the sequential steps. Parallel composition (disjoint inputs cost
// max ε, not the sum) is exposed via SpendParallel, which charges the maximum
// of a group of per-partition costs. Post-processing is free and never
// touches the accountant.
//
// The accountant keeps the running sum that admission reads plus one
// {label, count, ε} total per distinct label, so its memory is bounded by
// its label vocabulary, not by how often it is charged. The per-charge
// history of a served session is the audit log's (obs::AuditLog).
//
// The accountant is thread-safe: Spend is an atomic check-and-charge, so
// concurrent callers (the service layer shares one accountant per dataset
// across sessions) can never jointly overdraw the budget. Accessors take the
// same lock; state() returns a snapshot.

#ifndef DPCLUSTX_DP_PRIVACY_BUDGET_H_
#define DPCLUSTX_DP_PRIVACY_BUDGET_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace dpclustx {

class PrivacyBudget {
 public:
  /// Every charge made under one label: how many, and their ε summed in
  /// charge order.
  struct LabelTotal {
    std::string label;
    uint64_t count = 0;
    double epsilon = 0.0;
  };

  /// The accountant's whole state: the running sum and the per-label
  /// totals in first-charge order. The snapshot layer saves exactly this.
  struct State {
    double spent = 0.0;
    std::vector<LabelTotal> totals;
  };

  /// Accountant with `total_epsilon` to spend. Requires total_epsilon > 0.
  explicit PrivacyBudget(double total_epsilon);

  PrivacyBudget(const PrivacyBudget&) = delete;
  PrivacyBudget& operator=(const PrivacyBudget&) = delete;

  double total_epsilon() const { return total_; }
  double spent_epsilon() const;
  /// Never negative: summing many small charges can overshoot `total` by a
  /// few ulps, which is reported as zero rather than as negative budget.
  double remaining_epsilon() const;

  /// Charges `epsilon` under sequential composition. Returns OutOfBudget
  /// (charging nothing) if it would exceed the total beyond a 1e-9 relative
  /// tolerance (so an exact spend-down of the budget in many small steps
  /// never fails on floating-point drift); InvalidArgument for non-positive
  /// epsilon. Atomic check-and-charge under concurrency.
  Status Spend(double epsilon, const std::string& label);

  /// True when Spend(epsilon, ...) would currently succeed. Advisory under
  /// concurrency unless the caller serializes spenders externally (the
  /// service layer holds a per-session lock across CanSpend + Spend).
  bool CanSpend(double epsilon) const;

  /// Charges max(per_partition_epsilons) — parallel composition over disjoint
  /// data partitions. Requires a non-empty list of positive epsilons.
  Status SpendParallel(const std::vector<double>& per_partition_epsilons,
                       const std::string& label);

  /// Snapshot of the running sum and the per-label totals.
  State state() const;

  /// Sets an accountant nothing has been charged to from a saved state.
  /// InvalidArgument, changing nothing, when `spent` is not finite, is
  /// negative or exceeds the total beyond the Spend tolerance, when a label
  /// repeats, a total has no charges or a non-finite or non-positive ε, or
  /// the totals sum to more than that tolerance away from `spent`.
  /// FailedPrecondition when this accountant was already charged.
  Status Restore(const State& state);

  /// Multi-line, human-readable spend report: one line per label.
  std::string Report() const;

 private:
  const double total_;
  mutable std::mutex mutex_;
  double spent_ = 0.0;                // guarded by mutex_
  std::vector<LabelTotal> totals_;    // guarded by mutex_
  std::unordered_map<std::string, size_t> index_;  // label -> totals_ slot
};

}  // namespace dpclustx

#endif  // DPCLUSTX_DP_PRIVACY_BUDGET_H_
