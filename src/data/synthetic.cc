#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace dpclustx::synth {

namespace {

// Draws a random probability vector of length `n` by normalizing Exp(1)
// draws (equivalent to Dirichlet(1, ..., 1)), then sharpens it by raising
// each coordinate to `concentration` and renormalizing. Larger concentration
// = peakier distribution.
std::vector<double> RandomDistribution(Rng& rng, size_t n,
                                       double concentration) {
  std::vector<double> probs(n);
  double total = 0.0;
  for (double& p : probs) {
    p = std::pow(-std::log(rng.UniformOpenDouble()), concentration);
    total += p;
  }
  for (double& p : probs) p /= total;
  return probs;
}

}  // namespace

StatusOr<Dataset> Generate(const SyntheticConfig& config) {
  if (config.num_rows == 0) {
    return Status::InvalidArgument("num_rows must be positive");
  }
  if (config.num_attributes == 0) {
    return Status::InvalidArgument("num_attributes must be positive");
  }
  if (config.num_latent_groups == 0) {
    return Status::InvalidArgument("num_latent_groups must be positive");
  }
  if (config.min_domain < 2 || config.max_domain < config.min_domain) {
    return Status::InvalidArgument("need 2 <= min_domain <= max_domain");
  }
  if (config.informative_fraction < 0.0 ||
      config.informative_fraction > 1.0 || config.signal_strength < 0.0 ||
      config.signal_strength > 1.0) {
    return Status::InvalidArgument(
        "informative_fraction and signal_strength must lie in [0, 1]");
  }

  Rng rng(config.seed);

  // Schema: domain sizes drawn from [min_domain, max_domain].
  std::vector<Attribute> attrs;
  attrs.reserve(config.num_attributes);
  std::vector<size_t> domain_sizes(config.num_attributes);
  for (size_t a = 0; a < config.num_attributes; ++a) {
    domain_sizes[a] =
        config.min_domain +
        rng.UniformInt(config.max_domain - config.min_domain + 1);
    attrs.push_back(Attribute::WithAnonymousDomain(
        config.name_prefix + std::to_string(a), domain_sizes[a]));
  }
  Schema schema(std::move(attrs));
  DPX_RETURN_IF_ERROR(schema.Validate());

  // Latent group weights: Zipf-like skew so clusters have uneven sizes, as
  // real clusterings do.
  const size_t groups = config.num_latent_groups;
  std::vector<double> group_weights(groups);
  for (size_t g = 0; g < groups; ++g) {
    group_weights[g] =
        1.0 / std::pow(static_cast<double>(g + 1), config.group_skew);
  }

  // Choose which attributes are informative; give the first few of them
  // extra signal so each dataset has a handful of "headline" attributes
  // (like lab_proc in the Diabetes example).
  const auto num_informative = static_cast<size_t>(
      std::round(config.informative_fraction *
                 static_cast<double>(config.num_attributes)));
  std::vector<bool> informative(config.num_attributes, false);
  std::vector<size_t> order(config.num_attributes);
  for (size_t a = 0; a < order.size(); ++a) order[a] = a;
  // Fisher–Yates to pick a random informative subset.
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  for (size_t i = 0; i < num_informative; ++i) informative[order[i]] = true;

  // Per-attribute distributions: a background distribution shared by all
  // groups, plus per-group distributions for informative attributes.
  std::vector<std::vector<double>> background(config.num_attributes);
  std::vector<std::vector<std::vector<double>>> per_group(
      config.num_attributes);
  size_t informative_rank = 0;
  std::vector<double> attr_signal(config.num_attributes, 0.0);
  for (size_t a = 0; a < config.num_attributes; ++a) {
    background[a] = RandomDistribution(rng, domain_sizes[a], 1.0);
    if (!informative[a]) continue;
    // Headline attributes (the first quarter of the informative set) get
    // sharper group distributions and full signal strength.
    const bool headline = informative_rank < std::max<size_t>(
                                                 1, num_informative / 4);
    ++informative_rank;
    attr_signal[a] =
        headline ? config.signal_strength : 0.6 * config.signal_strength;
    const double concentration = headline ? 3.0 : 1.8;
    per_group[a].reserve(groups);
    for (size_t g = 0; g < groups; ++g) {
      per_group[a].push_back(
          RandomDistribution(rng, domain_sizes[a], concentration));
    }
  }

  Dataset dataset(schema);
  dataset.Reserve(config.num_rows);
  std::vector<ValueCode> row(config.num_attributes);
  for (size_t r = 0; r < config.num_rows; ++r) {
    const size_t g = rng.Categorical(group_weights.data(), groups);
    for (size_t a = 0; a < config.num_attributes; ++a) {
      const bool from_group =
          informative[a] && rng.Bernoulli(attr_signal[a]);
      const std::vector<double>& dist =
          from_group ? per_group[a][g] : background[a];
      row[a] = static_cast<ValueCode>(
          rng.Categorical(dist.data(), dist.size()));
    }
    dataset.AppendRowUnchecked(row);
  }
  return dataset;
}

SyntheticConfig DiabetesLike(size_t num_rows, uint64_t seed) {
  SyntheticConfig config;
  config.num_rows = num_rows;
  config.num_attributes = 47;
  config.num_latent_groups = 5;
  config.min_domain = 2;
  config.max_domain = 39;
  config.informative_fraction = 0.40;
  config.signal_strength = 0.75;
  config.group_skew = 0.6;
  config.name_prefix = "diab_";
  config.seed = seed;
  return config;
}

SyntheticConfig CensusLike(size_t num_rows, uint64_t seed) {
  SyntheticConfig config;
  config.num_rows = num_rows;
  config.num_attributes = 68;
  config.num_latent_groups = 5;
  config.min_domain = 2;
  config.max_domain = 20;
  config.informative_fraction = 0.45;
  config.signal_strength = 0.85;  // Census runs are the paper's most stable
  config.group_skew = 0.5;
  config.name_prefix = "cens_";
  config.seed = seed;
  return config;
}

SyntheticConfig StackOverflowLike(size_t num_rows, uint64_t seed) {
  SyntheticConfig config;
  config.num_rows = num_rows;
  config.num_attributes = 60;
  config.num_latent_groups = 5;
  config.min_domain = 2;
  config.max_domain = 22;
  config.informative_fraction = 0.35;
  config.signal_strength = 0.70;
  config.group_skew = 0.7;
  config.name_prefix = "so_";
  config.seed = seed;
  return config;
}

StatusOr<SyntheticConfig> PresetByName(const std::string& name) {
  if (name == "diabetes") return DiabetesLike();
  if (name == "census") return CensusLike();
  if (name == "stackoverflow") return StackOverflowLike();
  return Status::InvalidArgument(
      "unknown generator '" + name +
      "' (expected diabetes | census | stackoverflow)");
}

StatusOr<NumericSynthetic> GenerateNumeric(
    const NumericSyntheticConfig& config) {
  if (config.num_rows == 0 || config.num_columns == 0 ||
      config.num_latent_groups == 0) {
    return Status::InvalidArgument(
        "num_rows, num_columns, num_latent_groups must be positive");
  }
  if (config.informative_fraction < 0.0 ||
      config.informative_fraction > 1.0) {
    return Status::InvalidArgument(
        "informative_fraction must lie in [0, 1]");
  }
  Rng rng(config.seed);

  // Group means: informative columns separate the groups by
  // `separation`·sigma; noise columns share one mean.
  const double sigma = 10.0;
  const auto num_informative = static_cast<size_t>(std::round(
      config.informative_fraction * static_cast<double>(config.num_columns)));
  std::vector<std::vector<double>> means(
      config.num_columns, std::vector<double>(config.num_latent_groups));
  for (size_t col = 0; col < config.num_columns; ++col) {
    const double base = rng.UniformRange(0.0, 100.0);
    for (size_t g = 0; g < config.num_latent_groups; ++g) {
      means[col][g] = col < num_informative
                          ? base + static_cast<double>(g) *
                                       config.separation * sigma
                          : base;
    }
  }

  NumericSynthetic out;
  out.columns.assign(config.num_columns,
                     std::vector<double>(config.num_rows));
  out.groups.resize(config.num_rows);
  for (size_t r = 0; r < config.num_rows; ++r) {
    const auto g = static_cast<uint32_t>(
        rng.UniformInt(config.num_latent_groups));
    out.groups[r] = g;
    for (size_t col = 0; col < config.num_columns; ++col) {
      out.columns[col][r] = rng.Gaussian(means[col][g], sigma);
    }
  }
  return out;
}

double CramersV(const Dataset& dataset, AttrIndex a, AttrIndex b) {
  const size_t rows = dataset.num_rows();
  if (rows == 0) return 0.0;
  const size_t da = dataset.schema().attribute(a).domain_size();
  const size_t db = dataset.schema().attribute(b).domain_size();
  // Contingency table and marginals.
  std::vector<double> table(da * db, 0.0);
  std::vector<double> row_sum(da, 0.0);
  std::vector<double> col_sum(db, 0.0);
  const ColumnView col_a = dataset.column(a);
  const ColumnView col_b = dataset.column(b);
  for (size_t r = 0; r < rows; ++r) {
    table[col_a[r] * db + col_b[r]] += 1.0;
    row_sum[col_a[r]] += 1.0;
    col_sum[col_b[r]] += 1.0;
  }
  const auto n = static_cast<double>(rows);
  double chi2 = 0.0;
  for (size_t i = 0; i < da; ++i) {
    if (row_sum[i] == 0.0) continue;
    for (size_t j = 0; j < db; ++j) {
      if (col_sum[j] == 0.0) continue;
      const double expected = row_sum[i] * col_sum[j] / n;
      const double diff = table[i * db + j] - expected;
      chi2 += diff * diff / expected;
    }
  }
  const size_t active_a =
      da - static_cast<size_t>(std::count(row_sum.begin(), row_sum.end(), 0.0));
  const size_t active_b =
      db - static_cast<size_t>(std::count(col_sum.begin(), col_sum.end(), 0.0));
  const size_t k = std::min(active_a, active_b);
  if (k < 2) return 0.0;
  return std::sqrt(chi2 / (n * static_cast<double>(k - 1)));
}

StatusOr<Dataset> AddCorrelatedTwins(const Dataset& dataset, double target_v,
                                     uint64_t seed) {
  if (target_v <= 0.0 || target_v >= 1.0) {
    return Status::InvalidArgument("target_v must lie in (0, 1)");
  }
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  Rng rng(seed);
  const Schema& schema = dataset.schema();
  const size_t orig_attrs = schema.num_attributes();

  // Build the extended schema: originals followed by twins.
  std::vector<Attribute> attrs = schema.attributes();
  for (size_t a = 0; a < orig_attrs; ++a) {
    attrs.emplace_back(schema.attribute(static_cast<AttrIndex>(a)).name() +
                           "_corr",
                       schema.attribute(static_cast<AttrIndex>(a))
                           .value_labels());
  }
  Dataset out{Schema(std::move(attrs))};

  // For each original attribute, find (by bisection on the re-randomization
  // fraction) a twin column whose Cramér's V to the original is close to the
  // target. Perturbed entries are redrawn from the column's own marginal so
  // the twin keeps the original's distribution shape.
  std::vector<std::vector<ValueCode>> twins(orig_attrs);
  for (size_t a = 0; a < orig_attrs; ++a) {
    const auto attr = static_cast<AttrIndex>(a);
    const std::vector<ValueCode> col = dataset.ColumnCodes(attr);
    const Histogram marginal = dataset.ComputeHistogram(attr);
    const std::vector<double> probs = marginal.Normalized();

    auto make_twin = [&](double flip_fraction, Rng& twin_rng) {
      std::vector<ValueCode> twin = col;
      for (ValueCode& code : twin) {
        if (twin_rng.Bernoulli(flip_fraction)) {
          code = static_cast<ValueCode>(
              twin_rng.Categorical(probs.data(), probs.size()));
        }
      }
      return twin;
    };
    auto v_of = [&](const std::vector<ValueCode>& twin) {
      // Temporary two-column dataset for the V computation.
      std::vector<Attribute> pair_attrs = {
          schema.attribute(attr),
          Attribute(schema.attribute(attr).name() + "_t",
                    schema.attribute(attr).value_labels())};
      Dataset pair{Schema(std::move(pair_attrs))};
      std::vector<ValueCode> row(2);
      for (size_t r = 0; r < col.size(); ++r) {
        row[0] = col[r];
        row[1] = twin[r];
        pair.AppendRowUnchecked(row);
      }
      return CramersV(pair, 0, 1);
    };

    double lo = 0.0, hi = 1.0;
    std::vector<ValueCode> best = col;
    double best_gap = 1.0 - target_v;  // flip_fraction = 0 gives V = 1
    for (int iter = 0; iter < 12 && best_gap > 0.02; ++iter) {
      const double mid = 0.5 * (lo + hi);
      Rng twin_rng = rng.Fork();
      std::vector<ValueCode> candidate = make_twin(mid, twin_rng);
      const double v = v_of(candidate);
      const double gap = std::fabs(v - target_v);
      if (gap < best_gap) {
        best_gap = gap;
        best = std::move(candidate);
      }
      // More flipping lowers V.
      if (v > target_v) lo = mid;
      else hi = mid;
    }
    twins[a] = std::move(best);
  }

  std::vector<ValueCode> row(2 * orig_attrs);
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    for (size_t a = 0; a < orig_attrs; ++a) {
      row[a] = dataset.at(r, static_cast<AttrIndex>(a));
      row[orig_attrs + a] = twins[a][r];
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

}  // namespace dpclustx::synth
