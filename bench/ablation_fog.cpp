// Ablation E — the §III-C bottleneck: cluster-head authentication under a
// reporting storm, with and without fog offloading.
//
// A congested cluster (the paper: up to ~250k vehicles/day on I-95 segments)
// can flood an RSU with secure packets to verify. Each verification costs a
// deterministic ECDSA-class service time; the RSU is one server, fog nodes
// add more. The sweep reports the mean queueing delay per verification as
// the arrival rate crosses the single-server saturation point — the knee
// moves right proportionally to the fog pool, exactly the paper's argument.
#include <iostream>

#include "bench_args.hpp"
#include "core/ch_load_model.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace blackdp;
  using metrics::Table;

  const obs::BenchTimer timer;
  sim::ThreadPool pool{
      sim::resolveJobCount(bench::parseTrialArgs(argc, argv, 0).jobs)};

  // 2 ms per verification → a lone RSU saturates at 500 verifications/s.
  const std::vector<double> arrivalRates{100, 300, 450, 600, 1000, 2000};
  const std::vector<std::uint32_t> fogPools{0, 1, 3, 7};
  constexpr int kJobs = 4'000;

  std::cout << "Ablation E — CH authentication queueing (2 ms/verification, "
               "Poisson arrivals,\n"
            << kJobs << " verifications per cell; mean queueing wait in "
                        "ms; " << pool.workers() << " jobs)\n\n";

  std::vector<std::string> headers{"Arrivals/s"};
  for (const std::uint32_t fog : fogPools) {
    // append() instead of operator+ sidesteps a GCC 12 -Wrestrict false
    // positive (PR 105329) in the inlined string-concat chain.
    if (fog == 0) {
      headers.emplace_back("RSU alone");
    } else {
      std::string label{"+"};
      label.append(std::to_string(fog));
      label.append(" fog");
      headers.push_back(std::move(label));
    }
  }
  Table table(headers);

  // Every (rate × fog pool) cell owns its simulator and RNG — fan the 24
  // cells across the pool and fold the waits back in grid order.
  const std::vector<double> waits = pool.map<double>(
      arrivalRates.size() * fogPools.size(), [&](std::size_t i) {
        const double rate = arrivalRates[i / fogPools.size()];
        const std::uint32_t fog = fogPools[i % fogPools.size()];
        sim::Simulator simulator;
        core::ChLoadConfig config;
        config.fogNodes = fog;
        core::ChLoadModel model{simulator, config};
        sim::Rng rng{42};

        // Poisson arrivals: exponential gaps.
        sim::TimePoint at;
        for (int j = 0; j < kJobs; ++j) {
          const double gap = -std::log(rng.uniformReal(1e-12, 1.0)) / rate;
          at = at + sim::Duration::fromSeconds(gap);
          simulator.scheduleAt(at, [&model] { model.submit([] {}); });
        }
        simulator.run();
        return model.stats().meanWaitMs();
      });

  obs::MetricsRegistry registry;
  double aloneAt600 = 0.0;
  double fog3At600 = 0.0;
  for (std::size_t r = 0; r < arrivalRates.size(); ++r) {
    const double rate = arrivalRates[r];
    std::vector<std::string> row{Table::num(rate, 0)};
    for (std::size_t f = 0; f < fogPools.size(); ++f) {
      const std::uint32_t fog = fogPools[f];
      const double wait = waits[r * fogPools.size() + f];
      registry
          .gauge("fog.wait_ms.rate" +
                 std::to_string(static_cast<int>(rate)) + ".fog" +
                 std::to_string(fog))
          .set(wait);
      row.push_back(Table::num(wait, 2));
      if (rate == 600 && fog == 0) aloneAt600 = wait;
      if (rate == 600 && fog == 3) fog3At600 = wait;
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nat 600 verifications/s the lone RSU is past saturation "
               "(mean wait "
            << Table::num(aloneAt600, 1) << " ms and growing with the "
            << "backlog); three fog nodes bring it to "
            << Table::num(fog3At600, 2) << " ms.\n";
  obs::writeBenchJson("ablation_fog", registry.snapshot(),
                      timer.info().recordJobs(pool.workers()));

  const bool ok = aloneAt600 > 50.0 && fog3At600 < 5.0;
  std::cout << (ok ? "\nshape check: PASS (fog offloading moves the "
                     "saturation knee, §III-C)\n"
                   : "\nshape check: FAIL\n");
  return ok ? 0 : 1;
}
