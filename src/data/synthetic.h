// Synthetic dataset generators.
//
// The paper evaluates on US Census (PUMS 1990), UCI Diabetes, and the 2018
// Stack Overflow survey — datasets we cannot ship. These generators produce
// structurally equivalent substitutes: categorical tables with the same
// attribute counts and domain-size ranges, a planted latent-group structure
// that clustering algorithms can recover, a mix of strongly informative,
// weakly informative, and pure-noise attributes, and uneven group sizes.
// Every DPClustX code path (count scans, quality scores, DP selection, noisy
// histograms) depends only on per-(cluster, attribute) count histograms, so
// these substitutes exercise the system identically; DESIGN.md §1 documents
// the substitution.

#ifndef DPCLUSTX_DATA_SYNTHETIC_H_
#define DPCLUSTX_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace dpclustx::synth {

struct SyntheticConfig {
  /// Number of tuples to generate.
  size_t num_rows = 100000;
  /// Number of attributes.
  size_t num_attributes = 47;
  /// Number of planted latent groups (the "true" clusters).
  size_t num_latent_groups = 5;
  /// Attribute domain sizes are drawn uniformly from [min_domain,
  /// max_domain].
  size_t min_domain = 2;
  size_t max_domain = 39;
  /// Fraction of attributes whose distribution depends on the latent group.
  double informative_fraction = 0.4;
  /// Mixing weight of the group-specific distribution for informative
  /// attributes (1 = fully determined by group, 0 = pure noise).
  double signal_strength = 0.75;
  /// Zipf-like skew of latent group sizes (0 = equal groups).
  double group_skew = 0.6;
  /// Prefix for generated attribute names ("diab_attr0", ...).
  std::string name_prefix = "attr";
  /// Master seed; the generator is fully deterministic given the config.
  uint64_t seed = 1;
};

/// Generates a dataset under the planted-group model. Returns
/// InvalidArgument for degenerate configs (zero rows/attributes/groups,
/// min_domain < 2, fractions outside [0, 1]).
StatusOr<Dataset> Generate(const SyntheticConfig& config);

/// Diabetes-like preset: 47 attributes, domains 2–39 (paper §6.1), ~100k
/// rows by default.
SyntheticConfig DiabetesLike(size_t num_rows = 100000, uint64_t seed = 11);

/// Census-like preset: 68 attributes, a large table with strong planted
/// structure (the paper's Census runs are the most stable).
SyntheticConfig CensusLike(size_t num_rows = 250000, uint64_t seed = 13);

/// StackOverflow-like preset: 60 attributes, domains 2–22.
SyntheticConfig StackOverflowLike(size_t num_rows = 100000,
                                  uint64_t seed = 17);

/// The preset named "diabetes" | "census" | "stackoverflow", with its
/// default rows and seed (callers override num_rows / seed). Any other name
/// is InvalidArgument listing the three.
StatusOr<SyntheticConfig> PresetByName(const std::string& name);

/// Numeric synthetic data for discretization studies (the paper's
/// future-work item on binning strategies). Columns are real-valued with
/// group-dependent means; they must be binned (data/binning.h) before
/// entering the categorical pipeline.
struct NumericSyntheticConfig {
  size_t num_rows = 20000;
  size_t num_columns = 12;
  size_t num_latent_groups = 4;
  /// Fraction of columns whose mean depends on the latent group.
  double informative_fraction = 0.5;
  /// Gap between group means, in within-group standard deviations.
  double separation = 2.0;
  uint64_t seed = 1;
};

struct NumericSynthetic {
  /// columns[c][r] — real value of column c at row r.
  std::vector<std::vector<double>> columns;
  /// Planted group of each row (usable directly as cluster labels).
  std::vector<uint32_t> groups;
};

/// Generates numeric columns under the planted-group model. Returns
/// InvalidArgument on degenerate configs.
StatusOr<NumericSynthetic> GenerateNumeric(
    const NumericSyntheticConfig& config);

/// Cramér's V association between two attributes of `dataset` (bias-
/// uncorrected, as in standard practice): sqrt(χ² / (n · (min(r,c) − 1))).
/// Returns 0 for degenerate tables (an attribute with one active value).
double CramersV(const Dataset& dataset, AttrIndex a, AttrIndex b);

/// Returns `dataset` extended with one correlated twin per original
/// attribute, produced by copying the column and re-randomizing entries until
/// the empirical Cramér's V to the original is ≈ target_v (±0.02). Twins are
/// named "<orig>_corr". This reproduces the paper's attribute-correlation
/// robustness experiment (§6.2). Requires 0 < target_v < 1.
StatusOr<Dataset> AddCorrelatedTwins(const Dataset& dataset, double target_v,
                                     uint64_t seed);

}  // namespace dpclustx::synth

#endif  // DPCLUSTX_DATA_SYNTHETIC_H_
