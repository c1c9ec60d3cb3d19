// End-to-end throughput gate: BM_E2eHighway + BM_E2eStream.
//
// BM_E2eHighway is the headline: a benign, stationary highway fleet where
// the source streams data packets to the destination over an established
// AODV route. After a warmup burst (queue growth, table rehashes, route
// discovery all amortise out) it brackets a measured burst with the
// common/alloc_hook counters and the medium's frames_delivered counter —
// `allocations_per_frame` in the emitted JSON is allocations / delivered
// frame over that steady-state span, and the zero-allocation goal is gated
// on it by scripts/bench_compare.py.
//
// BM_E2eStream runs StreamWorld epochs the same way (warmup, then measured)
// as the control-plane/service-mode companion; its allocation gauge is
// informational (crypto signing on the d_req path is allowed to allocate).
//
// Emits BENCH_e2e_throughput.json (schema v2 + throughput.allocations_per_
// frame). Trials fan out over --jobs via sim::ThreadPool; the metrics
// subtree is submission-order merged and identical for any --jobs value.
//
// Flags: --trials N         highway trials (default 2)
//        --packets N        measured data packets per trial (default 10000)
//        --warmup N         warmup data packets per trial (default 2000)
//        --stream-epochs N  measured stream epochs (default 20)
//        --jobs N           worker threads (also BLACKDP_JOBS)
// Every count is at least 1; a bad value or an unknown argument exits 2.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "common/alloc_hook.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "obs/registry.hpp"
#include "scenario/highway_scenario.hpp"
#include "scenario/stream_world.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;

struct SpanMeasure {
  std::uint64_t framesDelivered{0};  ///< medium deliveries in the span
  std::uint64_t allocations{0};      ///< heap allocs in the span (this thread)
  std::uint64_t packetsSent{0};
  std::uint64_t packetsDelivered{0};  ///< application packets at destination
  double seconds{0.0};                ///< wall clock of the measured span
};

/// Self-rescheduling sender: one pending event at a time, so the event
/// queue stays at its steady-state size instead of growing by the burst
/// length up front (which would charge queue growth to the measured span).
struct BurstDriver {
  sim::Simulator& simulator;
  aodv::AodvAgent& source;
  common::Address destination;
  sim::Duration gap;
  std::uint32_t remaining{0};
  std::uint32_t sent{0};

  void run(std::uint32_t count) {
    remaining = count;
    tick();
    simulator.run(simulator.now() + gap * static_cast<std::int64_t>(count) +
                  sim::Duration::milliseconds(50));
  }

  void tick() {
    if (remaining == 0) return;
    --remaining;
    ++sent;
    source.sendData(destination);
    simulator.schedule(gap, [this] { tick(); });
  }
};

/// One highway trial: build a benign stationary world, establish the route,
/// warm up, then measure a steady-state burst.
SpanMeasure highwayTrial(std::uint64_t seed, std::uint32_t warmupPackets,
                         std::uint32_t measuredPackets) {
  scenario::ScenarioConfig config;
  config.seed = seed;
  config.attack = scenario::AttackType::kNone;
  // Stationary fleet: no cluster re-joins or route breaks land inside the
  // measured span — this bench times the per-frame data plane, not churn.
  config.minSpeedKmh = 0.0;
  config.maxSpeedKmh = 0.0;

  scenario::HighwayScenario world(config);
  world.runFor(sim::Duration::milliseconds(500));  // cluster joins

  const common::Address dest = world.destination().address();
  bool routed = false;
  world.source().agent->findRoute(dest, [&](bool ok) { routed = ok; });
  world.runFor(sim::Duration::seconds(2));
  if (!routed) {
    std::cerr << "e2e_throughput: highway route discovery failed (seed "
              << seed << ")\n";
    return {};
  }

  BurstDriver driver{world.simulator(), *world.source().agent, dest,
                     sim::Duration::microseconds(100)};
  driver.run(warmupPackets);

  const auto allocsBefore = common::threadAllocCounters();
  const std::uint64_t framesBefore = world.medium().stats().framesDelivered;
  const std::uint64_t deliveredBefore =
      world.destination().agent->stats().dataDelivered;
  const std::uint32_t sentBefore = driver.sent;
  const obs::BenchTimer span;

  driver.run(measuredPackets);

  SpanMeasure m;
  m.seconds = span.elapsedSeconds();
  m.allocations =
      common::threadAllocCounters().allocations - allocsBefore.allocations;
  m.framesDelivered = world.medium().stats().framesDelivered - framesBefore;
  m.packetsSent = driver.sent - sentBefore;
  m.packetsDelivered =
      world.destination().agent->stats().dataDelivered - deliveredBefore;
  return m;
}

/// The stream companion: StreamWorld epochs, warmup then measured.
SpanMeasure streamTrial(std::uint64_t seed, std::uint32_t warmupEpochs,
                        std::uint32_t measuredEpochs) {
  scenario::StreamConfig config;
  config.seed = seed;
  scenario::StreamWorld world(config);
  for (std::uint32_t i = 0; i < warmupEpochs; ++i) world.runEpoch();

  const auto allocsBefore = common::threadAllocCounters();
  const std::uint64_t framesBefore = world.medium().stats().framesDelivered;
  const obs::BenchTimer span;
  for (std::uint32_t i = 0; i < measuredEpochs; ++i) world.runEpoch();

  SpanMeasure m;
  m.seconds = span.elapsedSeconds();
  m.allocations =
      common::threadAllocCounters().allocations - allocsBefore.allocations;
  m.framesDelivered = world.medium().stats().framesDelivered - framesBefore;
  m.packetsSent = measuredEpochs;  // epochs, for the per-epoch gauge
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using metrics::Table;

  const obs::BenchTimer timer;
  std::uint32_t trials = 2;
  std::uint32_t packets = 10'000;
  std::uint32_t warmup = 2'000;
  std::uint32_t streamEpochs = 20;
  unsigned requestedJobs = 0;
  bench::Args args{argc, argv,
                   "[--trials N] [--packets N] [--warmup N] "
                   "[--stream-epochs N] [--jobs N]"};
  while (args.next()) {
    const auto count = [&args] {
      return static_cast<std::uint32_t>(args.number(1, bench::kMaxU32));
    };
    if (args.is("--trials")) {
      trials = count();
    } else if (args.is("--packets")) {
      packets = count();
    } else if (args.is("--warmup")) {
      warmup = count();
    } else if (args.is("--stream-epochs")) {
      streamEpochs = count();
    } else if (args.is("--jobs")) {
      requestedJobs = static_cast<unsigned>(args.number(0, sim::kMaxJobs));
    } else {
      args.reject();
    }
  }
  const std::uint32_t streamWarmup = 5;

  if (!common::allocHookActive()) {
    std::cerr << "e2e_throughput: alloc hook not linked — allocation "
                 "figures will read 0 without meaning\n";
  }

  sim::ThreadPool pool{sim::resolveJobCount(requestedJobs)};
  // Trial 0 is the stream phase; 1..trials are highway trials. One map call
  // so --jobs overlaps both phases.
  const std::vector<SpanMeasure> spans = pool.map<SpanMeasure>(
      static_cast<std::size_t>(trials) + 1, [&](std::size_t i) {
        if (i == 0) return streamTrial(2024, streamWarmup, streamEpochs);
        return highwayTrial(100 + static_cast<std::uint64_t>(i), warmup,
                            packets);
      });

  const SpanMeasure& stream = spans[0];
  SpanMeasure highway;  // summed over trials (submission order)
  for (std::size_t i = 1; i < spans.size(); ++i) {
    highway.framesDelivered += spans[i].framesDelivered;
    highway.allocations += spans[i].allocations;
    highway.packetsSent += spans[i].packetsSent;
    highway.packetsDelivered += spans[i].packetsDelivered;
    highway.seconds += spans[i].seconds;
  }

  // Headline throughput: per-thread steady-state rate (frames over summed
  // span seconds). Concurrent trials share cores and memory bandwidth, so
  // the rate falls as --jobs grows; it is comparable only at equal --jobs,
  // which throughput.jobs records.
  const double highwayFps =
      highway.seconds > 0.0
          ? static_cast<double>(highway.framesDelivered) / highway.seconds
          : 0.0;
  const double streamFps =
      stream.seconds > 0.0
          ? static_cast<double>(stream.framesDelivered) / stream.seconds
          : 0.0;
  const double allocsPerFrame =
      highway.framesDelivered > 0
          ? static_cast<double>(highway.allocations) /
                static_cast<double>(highway.framesDelivered)
          : -1.0;

  std::cout << "E2E throughput (steady state)\n\n";
  Table table({"Bench", "Frames", "Wall s", "Frames/s", "Allocs/frame"});
  table.addRow({"BM_E2eHighway", std::to_string(highway.framesDelivered),
                Table::num(highway.seconds, 3), Table::num(highwayFps, 0),
                highway.framesDelivered
                    ? Table::num(allocsPerFrame, 4)
                    : "n/a"});
  table.addRow(
      {"BM_E2eStream", std::to_string(stream.framesDelivered),
       Table::num(stream.seconds, 3), Table::num(streamFps, 0),
       stream.framesDelivered
           ? Table::num(static_cast<double>(stream.allocations) /
                            static_cast<double>(stream.framesDelivered),
                        4)
           : "n/a"});
  table.print(std::cout);
  std::cout << "\nhighway packets delivered : " << highway.packetsDelivered
            << " / " << highway.packetsSent << '\n'
            << "alloc hook                : "
            << (common::allocHookActive() ? "active" : "INACTIVE") << '\n';

  obs::MetricsRegistry registry;
  // Deterministic subtree: identical for any --jobs value.
  registry.counter("highway.frames_delivered").add(highway.framesDelivered);
  registry.counter("highway.packets_sent").add(highway.packetsSent);
  registry.counter("highway.packets_delivered").add(highway.packetsDelivered);
  registry.counter("highway.allocations").add(highway.allocations);
  registry.counter("stream.frames_delivered").add(stream.framesDelivered);
  registry.counter("stream.epochs").add(stream.packetsSent);
  registry.counter("stream.allocations").add(stream.allocations);
  registry.gauge("stream.allocations_per_frame")
      .set(stream.framesDelivered
               ? static_cast<double>(stream.allocations) /
                     static_cast<double>(stream.framesDelivered)
               : 0.0);
  registry.gauge("e2e.trials").set(static_cast<double>(trials));

  obs::BenchRunInfo info =
      timer.info(highway.framesDelivered).recordJobs(pool.workers());
  info.allocationsPerFrame = allocsPerFrame >= 0.0 ? allocsPerFrame : -1.0;
  // Headline fps is the steady-state rate, not frames over process wall
  // clock (which would charge world construction to the data plane).
  info.wallClockSeconds =
      highwayFps > 0.0
          ? static_cast<double>(highway.framesDelivered) / highwayFps
          : timer.elapsedSeconds();
  obs::writeBenchJson("e2e_throughput", registry.snapshot(), info);

  const bool healthy =
      highway.framesDelivered > 0 && stream.framesDelivered > 0 &&
      highway.packetsDelivered >= highway.packetsSent / 2;
  return healthy ? 0 : 1;
}
