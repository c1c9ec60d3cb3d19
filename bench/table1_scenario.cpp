// Table I reproduction: builds the paper's simulation configuration and
// prints the realised parameters plus derived properties that prove the
// configuration is honoured (cluster coverage, membership, connectivity).
#include <iostream>

#include "bench_args.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/highway_scenario.hpp"
#include "scenario/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace blackdp;
  using metrics::Table;

  bench::Args args{argc, argv, ""};
  if (args.next()) args.reject();  // Table I takes no arguments

  const obs::BenchTimer timer;
  scenario::ScenarioConfig config;
  config.seed = 7;
  config.attack = scenario::AttackType::kNone;

  scenario::HighwayScenario world(config);
  world.runFor(sim::Duration::seconds(1));  // let the fleet join

  std::cout << "Table I — simulation parameters (paper vs. realised)\n\n";
  Table table({"Parameter", "Paper", "Realised"});
  table.addRow({"Vehicle speed", "50-90 km/h",
                Table::num(config.minSpeedKmh, 0) + "-" +
                    Table::num(config.maxSpeedKmh, 0) + " km/h"});
  table.addRow({"#Vehicles", "100", std::to_string(world.vehicles().size())});
  table.addRow({"#RSUs (CHs)", "10", std::to_string(world.rsus().size())});
  table.addRow({"Transmission range", "1000 m",
                Table::num(world.medium().config().transmissionRangeM, 0) +
                    " m"});
  table.addRow({"Highway length", "10 km",
                Table::num(world.highway().length() / 1000.0, 0) + " km"});
  table.addRow({"Highway width", "200 m",
                Table::num(world.highway().width(), 0) + " m"});
  table.addRow({"Cluster length", "1000 m",
                Table::num(world.highway().clusterLength(), 0) + " m"});
  table.print(std::cout);

  // Derived properties.
  std::size_t joined = 0;
  for (const auto& vehicle : world.vehicles()) {
    if (vehicle->membership->currentCluster()) ++joined;
  }
  std::size_t memberTotal = 0;
  std::cout << "\nDerived properties after 1 s of simulated time\n\n";
  Table derived({"Cluster", "RSU position", "Members"});
  for (const auto& rsu : world.rsus()) {
    const auto centre = world.highway().clusterCenter(rsu->cluster);
    memberTotal += rsu->head->memberCount();
    derived.addRow({std::to_string(rsu->cluster.value()),
                    Table::num(centre.x, 0) + " m",
                    std::to_string(rsu->head->memberCount())});
  }
  derived.print(std::cout);

  std::cout << "\nvehicles joined a cluster : " << joined << " / "
            << world.vehicles().size() << '\n';
  std::cout << "total CH member entries   : " << memberTotal << '\n';
  std::cout << "frames on the air so far  : "
            << world.medium().stats().framesSent << '\n';

  obs::MetricsRegistry registry;
  scenario::collectWorldMetrics(registry, world);
  registry.gauge("table1.vehicles_joined").set(static_cast<double>(joined));
  registry.gauge("table1.member_entries")
      .set(static_cast<double>(memberTotal));
  obs::writeBenchJson("table1_scenario", registry.snapshot(), timer.info());

  // The paper's coverage requirement: p = l / r RSUs cover the highway.
  const bool covered =
      world.rsus().size() ==
      static_cast<std::size_t>(world.highway().clusterCount());
  std::cout << "\ncoverage p = l/r          : "
            << (covered ? "satisfied" : "VIOLATED") << '\n';
  return covered && joined == world.vehicles().size() ? 0 : 1;
}
