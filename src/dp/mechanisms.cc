#include "dp/mechanisms.h"

#include <cmath>

#include "common/logging.h"

namespace dpclustx {

namespace {

// Shared parameter gate: refusing (rather than aborting) on a bad Δ or ε
// keeps a hostile request from taking down the process, and drawing no
// noise on refusal keeps the refusal itself free of privacy cost. NaN
// must be caught explicitly — every comparison against it is false.
Status ValidateNoiseParams(const char* mechanism, double sensitivity,
                           double epsilon) {
  if (!std::isfinite(sensitivity) || sensitivity <= 0.0) {
    return Status::InvalidArgument(
        std::string(mechanism) + ": sensitivity must be finite and positive");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        std::string(mechanism) + ": epsilon must be finite and positive");
  }
  return Status::OK();
}

}  // namespace

StatusOr<double> LaplaceMechanism(double true_value, double sensitivity,
                                  double epsilon, Rng& rng) {
  DPX_RETURN_IF_ERROR(ValidateNoiseParams("LaplaceMechanism", sensitivity,
                                          epsilon));
  return true_value + rng.Laplace(sensitivity / epsilon);
}

StatusOr<int64_t> GeometricMechanism(int64_t true_count, double sensitivity,
                                     double epsilon, Rng& rng) {
  DPX_RETURN_IF_ERROR(ValidateNoiseParams("GeometricMechanism", sensitivity,
                                          epsilon));
  // Below about 2^-54, exp(-ε/Δ) rounds to 1: the sampler's log(alpha) is
  // 0 and its two draws cancel to exactly 0 — an exact release.
  if (std::exp(-epsilon / sensitivity) == 1.0) {
    return Status::InvalidArgument(
        "GeometricMechanism: epsilon / sensitivity is too small to sample "
        "(exp(-epsilon / sensitivity) rounds to 1)");
  }
  return true_count + rng.TwoSidedGeometric(epsilon / sensitivity);
}

double LaplaceNoiseQuantile(double sensitivity, double epsilon,
                            double confidence) {
  DPX_CHECK_GT(sensitivity, 0.0);
  DPX_CHECK_GT(epsilon, 0.0);
  DPX_CHECK(confidence > 0.0 && confidence < 1.0);
  // P(|Lap(b)| <= t) = 1 − exp(−t/b)  =>  t = −b·ln(1 − confidence).
  const double scale = sensitivity / epsilon;
  return -scale * std::log(1.0 - confidence);
}

double EpsilonForLaplaceError(double sensitivity, double max_error,
                              double confidence) {
  DPX_CHECK_GT(sensitivity, 0.0);
  DPX_CHECK_GT(max_error, 0.0);
  DPX_CHECK(confidence > 0.0 && confidence < 1.0);
  // Invert LaplaceNoiseQuantile for epsilon.
  return -sensitivity * std::log(1.0 - confidence) / max_error;
}

}  // namespace dpclustx
