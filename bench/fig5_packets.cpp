// Figure 5 reproduction: number of detection packets BlackDP needs through
// the RSU(s) per scenario. Paper values: 4-6 with no attacker; 6-9 for a
// single black hole (6 same-cluster, 8 same-cluster-then-flees, 9
// cross-cluster-then-flees); cooperative adds two teammate-probe packets
// (8-11).
#include <algorithm>
#include <iostream>

#include "core/telemetry.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/experiments.hpp"
#include "sim/parallel.hpp"

int main(int argc, char** argv) {
  using namespace blackdp;
  using metrics::Table;

  const obs::BenchTimer timer;
  const sim::ParallelRunner runner{sim::consumeJobsFlag(argc, argv)};
  std::cout << "Figure 5 — detection packets per scenario (" << runner.jobs()
            << " jobs)\n\n";

  // Each placement is an independent scripted world; run them across the
  // pool and fold the results in case order.
  const std::vector<scenario::Fig5Case> cases = scenario::fig5Cases();
  const std::vector<scenario::Fig5Result> results =
      runner.map<scenario::Fig5Result>(cases.size(), [&](std::size_t i) {
        return scenario::runFig5Case(cases[i], /*seed=*/11);
      });

  obs::MetricsRegistry registry;
  Table table({"Scenario", "Detection packets", "Latency", "Verdict"});
  std::uint32_t noneMin = ~0u, noneMax = 0;
  std::uint32_t singleMin = ~0u, singleMax = 0;
  std::uint32_t coopMin = ~0u, coopMax = 0;

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const scenario::Fig5Case& c = cases[i];
    const scenario::Fig5Result& result = results[i];
    core::recordSessionTelemetry(registry, result.record);
    table.addRow({result.label, std::to_string(result.detectionPackets),
                  Table::num(result.latency.toSeconds() * 1000.0, 1) + " ms",
                  std::string(core::toString(result.verdict))});
    auto& minRef = c.attack == scenario::AttackType::kNone     ? noneMin
                   : c.attack == scenario::AttackType::kSingle ? singleMin
                                                               : coopMin;
    auto& maxRef = c.attack == scenario::AttackType::kNone     ? noneMax
                   : c.attack == scenario::AttackType::kSingle ? singleMax
                                                               : coopMax;
    minRef = std::min(minRef, result.detectionPackets);
    maxRef = std::max(maxRef, result.detectionPackets);
  }
  table.print(std::cout);

  std::cout << "\nranges (paper: no attacker 4-6, single 6-9, cooperative "
               "8-11)\n\n";
  Table ranges({"Treatment", "Measured", "Paper"});
  ranges.addRow({"no attacker",
                 std::to_string(noneMin) + "-" + std::to_string(noneMax),
                 "4-6"});
  ranges.addRow({"single black hole",
                 std::to_string(singleMin) + "-" + std::to_string(singleMax),
                 "6-9"});
  ranges.addRow({"cooperative black hole",
                 std::to_string(coopMin) + "-" + std::to_string(coopMax),
                 "8-11"});
  ranges.print(std::cout);

  const auto packetRange = [&](const char* key, std::uint32_t lo,
                               std::uint32_t hi) {
    registry.gauge(std::string{"fig5."} + key + ".packets_min")
        .set(static_cast<double>(lo));
    registry.gauge(std::string{"fig5."} + key + ".packets_max")
        .set(static_cast<double>(hi));
  };
  packetRange("none", noneMin, noneMax);
  packetRange("single", singleMin, singleMax);
  packetRange("cooperative", coopMin, coopMax);
  obs::writeBenchJson("fig5_packets", registry.snapshot(),
                      timer.info().recordJobs(runner.jobs()));

  const bool ok = noneMin >= 4 && noneMax <= 6 && singleMin >= 6 &&
                  singleMax <= 9 && coopMin >= 8 && coopMax <= 11;
  std::cout << (ok ? "\nshape check: PASS (all ranges within the paper's)\n"
                   : "\nshape check: FAIL\n");
  return ok ? 0 : 1;
}
