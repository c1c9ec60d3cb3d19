// Ablation A — BlackDP vs. the source-side baselines from Related Work (§V).
//
// Runs the same seeded worlds through BlackDP and through the
// sequence-number heuristics (Jaiswal first-RREP comparison, Jhaveri PEAK,
// Tan static thresholds), grading each against ground truth. Supports the
// paper's two criticisms of SN methods: they need multiple RREPs to compare
// (blind when the attacker is the only replier) and a threshold can be
// undercut by an adaptive forger; and they cannot tell the cooperative
// teammate at all. BlackDP examines behaviour through trusted RSUs instead.
#include <iostream>

#include "bench_args.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/experiments.hpp"
#include "sim/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace blackdp;
  using metrics::Table;

  const obs::BenchTimer timer;
  const bench::TrialArgs args = bench::parseTrialArgs(argc, argv, 60);
  sim::ThreadPool pool{sim::resolveJobCount(args.jobs)};
  const std::uint32_t trials = args.trials;
  std::cout << "Ablation A — BlackDP vs. source-side baselines (" << trials
            << " trials per treatment, attacker in cluster 2)\n\n";

  // The PEAK baseline is stateful across a treatment's discoveries, so the
  // comparison parallelises at the attack-treatment level only (two tasks).
  const std::vector<scenario::BaselineCell> cells =
      scenario::runBaselineComparison(trials, /*seedBase=*/424242,
                                      common::ClusterId{2}, &pool);

  obs::MetricsRegistry registry;
  for (const scenario::BaselineCell& cell : cells) {
    const std::string prefix = "baseline." + cell.detector + "." +
                               std::string{scenario::toString(cell.attack)};
    obs::addConfusion(registry, prefix, cell.matrix);
    registry.counter(prefix + ".trials_with_comparison")
        .add(cell.trialsWithComparison);
  }
  obs::writeBenchJson("ablation_baselines", registry.snapshot(),
                      timer.info().recordJobs(pool.workers()));

  Table table({"Attack", "Detector", "Recall (TPR)", "FP count",
               ">=2 RREPs to compare"});
  double blackdpRecall = 0.0;
  double bestBaselineRecall = 0.0;
  std::uint64_t blackdpFp = 0;
  for (const scenario::BaselineCell& cell : cells) {
    table.addRow({std::string(scenario::toString(cell.attack)), cell.detector,
                  Table::percent(cell.matrix.recall()),
                  std::to_string(cell.matrix.fp()),
                  std::to_string(cell.trialsWithComparison)});
    if (cell.detector == "blackdp") {
      blackdpRecall += cell.matrix.recall() / 2.0;
      blackdpFp += cell.matrix.fp();
    } else {
      bestBaselineRecall = std::max(bestBaselineRecall, cell.matrix.recall());
    }
  }
  table.print(std::cout);

  std::cout << "\nBlackDP mean recall  : " << Table::percent(blackdpRecall)
            << " (FP " << blackdpFp << ")\n";
  std::cout << "best baseline recall : " << Table::percent(bestBaselineRecall)
            << '\n';

  const bool ok = blackdpFp == 0 && blackdpRecall >= bestBaselineRecall;
  std::cout << (ok ? "\nshape check: PASS (BlackDP >= every baseline, with "
                     "zero false positives)\n"
                   : "\nshape check: FAIL\n");
  return ok ? 0 : 1;
}
