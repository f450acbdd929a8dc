#include "core/pipeline.h"

#include "obs/trace.h"

namespace dpclustx {

StatusOr<PipelineResult> RunPipeline(const Dataset& dataset,
                                     const PipelineOptions& options,
                                     PrivacyBudget* budget) {
  DPX_RETURN_IF_ERROR(options.explain.Validate());
  // Every fit refuses rows < k, so the fitted |C| is the spec's.
  DPX_RETURN_IF_ERROR(options.explain.ValidateShape(
      dataset.num_rows(), dataset.num_attributes(),
      options.clustering.num_clusters));
  StatusOr<std::unique_ptr<ClusteringFunction>> clustering = [&] {
    DPX_SPAN("clustering_fit");
    return FitClustering(dataset, options.clustering, budget);
  }();
  DPX_RETURN_IF_ERROR(clustering.status());

  std::vector<ClusterId> labels;
  {
    DPX_SPAN("assign_all");
    labels = (*clustering)->AssignAll(dataset);
  }
  DPX_ASSIGN_OR_RETURN(
      StatsCache stats,
      StatsCache::Build(dataset, labels, (*clustering)->num_clusters(),
                        options.explain.num_threads));
  DPX_ASSIGN_OR_RETURN(GlobalExplanation explanation,
                       ExplainDpClustXWithStats(stats, options.explain,
                                                budget));
  PipelineResult result{std::move(explanation), std::move(labels),
                        std::move(stats), (*clustering)->name()};
  return result;
}

}  // namespace dpclustx
