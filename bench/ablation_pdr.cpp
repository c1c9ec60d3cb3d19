// Ablation C — data-plane impact: packet delivery ratio (PDR) under attack,
// with and without BlackDP, plus the gray hole boundary case.
//
// Treatments (100 data packets per trial, averaged over trials):
//   honest            — no attacker, plain AODV            (upper bound)
//   blackhole/plain   — single black hole, NO defence: the source trusts
//                       the freshest RREP and sends into the sinkhole
//   blackhole/blackdp — same attack, BlackDP verification first: data only
//                       flows after the route is authenticated
//   grayhole/blackdp  — selective dropper with an honest control plane:
//                       commits no AODV violation, so BlackDP verifies the
//                       route and the gray hole degrades PDR anyway — the
//                       documented protocol boundary (future-work material:
//                       forwarding-observation schemes).
#include <iostream>

#include "bench_args.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;
using scenario::AttackType;
using scenario::HighwayScenario;
using scenario::ScenarioConfig;

constexpr std::uint32_t kPacketsPerTrial = 100;

ScenarioConfig baseConfig(std::uint64_t seed, AttackType attack) {
  ScenarioConfig config;
  config.seed = seed;
  config.attack = attack;
  config.attackerCluster = common::ClusterId{2};
  config.evasion.firstEvasiveCluster = 99;
  return config;
}

double honestTrial(std::uint64_t seed) {
  HighwayScenario world(baseConfig(seed, AttackType::kNone));
  (void)world.runVerification();
  return world.sendDataBurst(kPacketsPerTrial).pdr();
}

double blackholeNoDefenceTrial(std::uint64_t seed) {
  HighwayScenario world(baseConfig(seed, AttackType::kSingle));
  world.runFor(sim::Duration::milliseconds(500));
  // No verification: plain AODV route establishment, exactly what the
  // attack exploits.
  bool done = false;
  world.source().agent->findRoute(world.destination().address(),
                                  [&done](bool) { done = true; });
  world.runUntil([&] { return done; }, sim::Duration::seconds(10));
  return world.sendDataBurst(kPacketsPerTrial).pdr();
}

double blackholeBlackdpTrial(std::uint64_t seed) {
  HighwayScenario world(baseConfig(seed, AttackType::kSingle));
  (void)world.runVerification();  // detect + isolate first
  return world.sendDataBurst(kPacketsPerTrial).pdr();
}

double grayholeBlackdpTrial(std::uint64_t seed, double dropProbability) {
  HighwayScenario world(baseConfig(seed, AttackType::kNone));
  // A gray hole in every cluster along the path: some will sit on the
  // chosen route.
  attack::GrayHoleConfig gray;
  gray.dropProbability = dropProbability;
  gray.advertiseBoost = 5;  // mild attraction, under every threshold
  for (std::uint32_t c = 1; c <= 6; ++c) {
    world.spawnGrayHole(common::ClusterId{c}, gray);
  }
  (void)world.runVerification();
  return world.sendDataBurst(kPacketsPerTrial).pdr();
}

}  // namespace

int main(int argc, char** argv) {
  using metrics::Table;
  const obs::BenchTimer timer;
  const bench::TrialArgs args = bench::parseTrialArgs(argc, argv, 15);
  sim::ThreadPool pool{sim::resolveJobCount(args.jobs)};
  const std::uint32_t trials = args.trials;

  std::cout << "Ablation C — packet delivery ratio (" << trials
            << " trials x " << kPacketsPerTrial << " packets, "
            << pool.workers() << " jobs)\n\n";

  // Flatten (trial × 4 treatments); every task owns one world, so the four
  // PDR streams fold back in the same order the serial loop produced.
  struct TrialPdr {
    double honest{0.0};
    double plain{0.0};
    double defended{0.0};
    double gray{0.0};
  };
  const std::vector<TrialPdr> pdrs =
      pool.map<TrialPdr>(trials, [](std::size_t i) {
        const std::uint64_t seed = 9000 + i;
        return TrialPdr{honestTrial(seed), blackholeNoDefenceTrial(seed),
                        blackholeBlackdpTrial(seed),
                        grayholeBlackdpTrial(seed, 0.5)};
      });

  metrics::RunningStat honest;
  metrics::RunningStat plain;
  metrics::RunningStat defended;
  metrics::RunningStat gray;
  for (const TrialPdr& pdr : pdrs) {
    honest.add(pdr.honest);
    plain.add(pdr.plain);
    defended.add(pdr.defended);
    gray.add(pdr.gray);
  }

  Table table({"Treatment", "Mean PDR", "Min", "Max"});
  const auto row = [&](const char* label, const metrics::RunningStat& s) {
    table.addRow({label, Table::percent(s.mean()), Table::percent(s.min()),
                  Table::percent(s.max())});
  };
  row("honest network, plain AODV", honest);
  row("black hole, plain AODV (no defence)", plain);
  row("black hole, BlackDP", defended);
  row("gray hole x6 (50% drop), BlackDP", gray);
  table.print(std::cout);

  obs::MetricsRegistry registry;
  obs::addRunningStat(registry, "pdr.honest", honest);
  obs::addRunningStat(registry, "pdr.blackhole_plain", plain);
  obs::addRunningStat(registry, "pdr.blackhole_blackdp", defended);
  obs::addRunningStat(registry, "pdr.grayhole_blackdp", gray);
  registry.gauge("pdr.blackdp_recovery")
      .set(defended.mean() - plain.mean());
  registry.gauge("pdr.grayhole_cost").set(honest.mean() - gray.mean());
  obs::writeBenchJson("ablation_pdr", registry.snapshot(),
                      timer.info().recordJobs(pool.workers()));

  std::cout << "\nBlackDP recovers the black hole's damage ("
            << Table::percent(plain.mean()) << " -> "
            << Table::percent(defended.mean())
            << "); the gray hole's honest control plane slips below the "
               "protocol's\ndetection premise and costs "
            << Table::percent(honest.mean() - gray.mean())
            << " of PDR — the documented boundary.\n";

  const bool ok = plain.mean() < 0.35 && defended.mean() > 0.85 &&
                  defended.mean() > plain.mean() + 0.4 &&
                  gray.mean() < defended.mean();
  std::cout << (ok ? "\nshape check: PASS\n" : "\nshape check: FAIL\n");
  return ok ? 0 : 1;
}
