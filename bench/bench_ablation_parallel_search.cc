// Ablation: multithreaded Stage-2 search. The k^|C| enumeration dominates
// runtime past ~11 clusters (Fig. 9a). SearchCombination keys each
// combination's Gumbel noise by its index (one key word from the Rng) and
// scores, noises and merges fixed blocks in parallel, so the selection is
// identical at every thread count. This bench times the private-mode
// search at 1/2/4/8 threads on large combination spaces and checks every
// run against the 1-thread selection, which draws the same keyed noise.

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "common/logging.h"
#include "core/candidate_selection.h"
#include "eval/harness.h"

int main() {
  using namespace dpclustx;
  using namespace dpclustx::bench;

  const Dataset dataset = MakeDataset("diabetes");
  std::printf(
      "Ablation: Stage-2 combination search by thread count "
      "(Diabetes, k=3, private mode, eps_TopComb=0.1)\n"
      "(this host reports %u hardware threads; speedups only materialize "
      "with >1 core — the match column checks every run against the "
      "1-thread selection regardless)\n\n",
      std::thread::hardware_concurrency());

  eval::TablePrinter table({"|C|", "combinations", "1thr_ms", "2thr_ms",
                            "4thr_ms", "8thr_ms", "match 1thr"});
  GlobalWeights lambda;
  for (const size_t clusters : {11u, 13u, 14u}) {
    const std::vector<ClusterId> labels =
        FitLabels(dataset, "k-means", clusters, 1);
    const auto stats = StatsCache::Build(dataset, labels, clusters);
    DPX_CHECK_OK(stats.status());
    const auto sets = SelectCandidatesExact(*stats, 3, {0.5, 0.5});
    DPX_CHECK_OK(sets.status());
    const auto tables =
        core_internal::BuildLowSensitivityTables(*stats, *sets, lambda);

    double combos = 1.0;
    for (size_t c = 0; c < clusters; ++c) combos *= 3.0;

    std::vector<std::string> row = {std::to_string(clusters),
                                    eval::TablePrinter::Num(combos, 0)};
    AttributeCombination reference;
    bool all_match = true;
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      Rng rng(1);
      eval::WallTimer timer;
      const auto selected = core_internal::SearchCombination(
          *sets, tables, /*epsilon=*/0.1, kGlScoreSensitivity, 1ull << 40,
          rng, Deadline(), threads);
      const double ms = timer.ElapsedSeconds() * 1e3;
      DPX_CHECK_OK(selected.status());
      if (threads == 1) reference = *selected;
      all_match = all_match && (*selected == reference);
      row.push_back(eval::TablePrinter::Num(ms, 1));
    }
    row.push_back(all_match ? "yes" : "NO");
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}
