#include "core/serialization.h"

#include "common/json.h"
#include "common/logging.h"

namespace dpclustx {

namespace {

JsonValue HistogramToJson(const Histogram& histogram) {
  JsonValue bins = JsonValue::Array();
  for (size_t i = 0; i < histogram.domain_size(); ++i) {
    bins.Append(JsonValue::Number(histogram.bin(static_cast<ValueCode>(i))));
  }
  return bins;
}

StatusOr<Histogram> HistogramFromJson(const JsonValue& json,
                                      size_t expected_domain) {
  if (json.type() != JsonValue::Type::kArray) {
    return Status::InvalidArgument("histogram must be an array");
  }
  if (json.size() != expected_domain) {
    return Status::InvalidArgument(
        "histogram has " + std::to_string(json.size()) + " bins, domain has " +
        std::to_string(expected_domain));
  }
  Histogram histogram(expected_domain);
  for (size_t i = 0; i < json.size(); ++i) {
    if (json.at(i).type() != JsonValue::Type::kNumber) {
      return Status::InvalidArgument("histogram bins must be numbers");
    }
    histogram.set_bin(static_cast<ValueCode>(i), json.at(i).AsNumber());
  }
  return histogram;
}

std::string NoiseName(HistogramNoise noise) {
  switch (noise) {
    case HistogramNoise::kGeometric:
      return "geometric";
    case HistogramNoise::kLaplace:
      return "laplace";
    case HistogramNoise::kHierarchical:
      return "hierarchical";
  }
  return "geometric";
}

StatusOr<HistogramNoise> NoiseFromName(const std::string& name) {
  if (name == "geometric") return HistogramNoise::kGeometric;
  if (name == "laplace") return HistogramNoise::kLaplace;
  if (name == "hierarchical") return HistogramNoise::kHierarchical;
  return Status::InvalidArgument("unknown noise family '" + name + "'");
}

}  // namespace

JsonValue SchemaToJsonValue(const Schema& schema) {
  JsonValue attributes = JsonValue::Array();
  for (const Attribute& attr : schema.attributes()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(attr.name()));
    JsonValue labels = JsonValue::Array();
    for (const std::string& label : attr.value_labels()) {
      labels.Append(JsonValue::String(label));
    }
    entry.Set("domain", std::move(labels));
    attributes.Append(std::move(entry));
  }
  JsonValue root = JsonValue::Object();
  root.Set("attributes", std::move(attributes));
  return root;
}

std::string SchemaToJson(const Schema& schema) {
  return SchemaToJsonValue(schema).Dump();
}

StatusOr<Schema> SchemaFromJson(const std::string& json) {
  DPX_ASSIGN_OR_RETURN(const JsonValue root, JsonValue::Parse(json));
  if (root.type() != JsonValue::Type::kObject || !root.Has("attributes")) {
    return Status::InvalidArgument("schema JSON must have 'attributes'");
  }
  const JsonValue& attributes = root.at("attributes");
  if (attributes.type() != JsonValue::Type::kArray) {
    return Status::InvalidArgument("'attributes' must be an array");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(attributes.size());
  for (size_t i = 0; i < attributes.size(); ++i) {
    const JsonValue& entry = attributes.at(i);
    if (entry.type() != JsonValue::Type::kObject) {
      return Status::InvalidArgument("attribute entries must be objects");
    }
    DPX_ASSIGN_OR_RETURN(const std::string name, entry.GetString("name"));
    if (!entry.Has("domain") ||
        entry.at("domain").type() != JsonValue::Type::kArray) {
      return Status::InvalidArgument("attribute '" + name +
                                     "' must have a 'domain' array");
    }
    const JsonValue& domain = entry.at("domain");
    std::vector<std::string> labels;
    labels.reserve(domain.size());
    for (size_t v = 0; v < domain.size(); ++v) {
      if (domain.at(v).type() != JsonValue::Type::kString) {
        return Status::InvalidArgument("domain labels must be strings");
      }
      labels.push_back(domain.at(v).AsString());
    }
    attrs.emplace_back(name, std::move(labels));
  }
  Schema schema(std::move(attrs));
  DPX_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

JsonValue ExplanationToJsonValue(const GlobalExplanation& explanation,
                                 const Schema& schema) {
  JsonValue root = JsonValue::Object();

  JsonValue combination = JsonValue::Array();
  for (AttrIndex attr : explanation.combination) {
    DPX_CHECK_LT(attr, schema.num_attributes());
    combination.Append(JsonValue::String(schema.attribute(attr).name()));
  }
  root.Set("combination", std::move(combination));

  JsonValue candidate_sets = JsonValue::Array();
  for (const auto& set : explanation.candidate_sets) {
    JsonValue entry = JsonValue::Array();
    for (AttrIndex attr : set) {
      DPX_CHECK_LT(attr, schema.num_attributes());
      entry.Append(JsonValue::String(schema.attribute(attr).name()));
    }
    candidate_sets.Append(std::move(entry));
  }
  root.Set("candidate_sets", std::move(candidate_sets));

  JsonValue clusters = JsonValue::Array();
  for (const SingleClusterExplanation& e : explanation.per_cluster) {
    JsonValue entry = JsonValue::Object();
    entry.Set("cluster", JsonValue::Number(static_cast<double>(e.cluster)));
    entry.Set("attribute",
              JsonValue::String(schema.attribute(e.attribute).name()));
    entry.Set("inside", HistogramToJson(e.inside));
    entry.Set("outside", HistogramToJson(e.outside));
    if (e.epsilon_inside > 0.0) {
      entry.Set("epsilon_inside", JsonValue::Number(e.epsilon_inside));
      entry.Set("epsilon_full", JsonValue::Number(e.epsilon_full));
      entry.Set("noise", JsonValue::String(NoiseName(e.noise)));
    }
    clusters.Append(std::move(entry));
  }
  root.Set("clusters", std::move(clusters));
  return root;
}

std::string ExplanationToJson(const GlobalExplanation& explanation,
                              const Schema& schema) {
  return ExplanationToJsonValue(explanation, schema).Dump();
}

StatusOr<GlobalExplanation> ExplanationFromJson(const std::string& json,
                                                const Schema& schema) {
  DPX_ASSIGN_OR_RETURN(const JsonValue root, JsonValue::Parse(json));
  if (root.type() != JsonValue::Type::kObject) {
    return Status::InvalidArgument("explanation JSON must be an object");
  }
  GlobalExplanation explanation;

  if (!root.Has("combination") ||
      root.at("combination").type() != JsonValue::Type::kArray) {
    return Status::InvalidArgument("missing 'combination' array");
  }
  const JsonValue& combination = root.at("combination");
  for (size_t i = 0; i < combination.size(); ++i) {
    if (combination.at(i).type() != JsonValue::Type::kString) {
      return Status::InvalidArgument("combination entries must be strings");
    }
    DPX_ASSIGN_OR_RETURN(const AttrIndex attr,
                         schema.FindAttribute(combination.at(i).AsString()));
    explanation.combination.push_back(attr);
  }

  if (root.Has("candidate_sets")) {
    const JsonValue& sets = root.at("candidate_sets");
    if (sets.type() != JsonValue::Type::kArray) {
      return Status::InvalidArgument("'candidate_sets' must be an array");
    }
    for (size_t c = 0; c < sets.size(); ++c) {
      const JsonValue& entry = sets.at(c);
      if (entry.type() != JsonValue::Type::kArray) {
        return Status::InvalidArgument("candidate sets must be arrays");
      }
      std::vector<AttrIndex> set;
      for (size_t i = 0; i < entry.size(); ++i) {
        DPX_ASSIGN_OR_RETURN(const AttrIndex attr,
                             schema.FindAttribute(entry.at(i).AsString()));
        set.push_back(attr);
      }
      explanation.candidate_sets.push_back(std::move(set));
    }
  }

  if (root.Has("clusters")) {
    const JsonValue& clusters = root.at("clusters");
    if (clusters.type() != JsonValue::Type::kArray) {
      return Status::InvalidArgument("'clusters' must be an array");
    }
    for (size_t i = 0; i < clusters.size(); ++i) {
      const JsonValue& entry = clusters.at(i);
      SingleClusterExplanation e;
      DPX_ASSIGN_OR_RETURN(const double cluster, entry.GetNumber("cluster"));
      e.cluster = static_cast<ClusterId>(cluster);
      DPX_ASSIGN_OR_RETURN(const std::string attr_name,
                           entry.GetString("attribute"));
      DPX_ASSIGN_OR_RETURN(e.attribute, schema.FindAttribute(attr_name));
      const size_t domain = schema.attribute(e.attribute).domain_size();
      if (!entry.Has("inside") || !entry.Has("outside")) {
        return Status::InvalidArgument("cluster entry missing histograms");
      }
      DPX_ASSIGN_OR_RETURN(e.inside,
                           HistogramFromJson(entry.at("inside"), domain));
      DPX_ASSIGN_OR_RETURN(e.outside,
                           HistogramFromJson(entry.at("outside"), domain));
      if (entry.Has("epsilon_inside")) {
        DPX_ASSIGN_OR_RETURN(e.epsilon_inside,
                             entry.GetNumber("epsilon_inside"));
        DPX_ASSIGN_OR_RETURN(e.epsilon_full,
                             entry.GetNumber("epsilon_full"));
        DPX_ASSIGN_OR_RETURN(const std::string noise_name,
                             entry.GetString("noise"));
        DPX_ASSIGN_OR_RETURN(e.noise, NoiseFromName(noise_name));
      }
      explanation.per_cluster.push_back(std::move(e));
    }
  }
  return explanation;
}

}  // namespace dpclustx
