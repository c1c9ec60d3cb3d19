// The megacity gate: a national corridor (default 100 km, 10k vehicles,
// join/leave churn, ~1% black holes) run twice — once monolithic
// (--shards-a, default 1) and once partitioned (--shards-b, default 4) —
// on the same thread pool.
//
// The bench asserts the tentpole guarantee end to end: both runs must be
// BYTE-IDENTICAL on the deterministic surfaces (merged metrics JSON and the
// canonical per-segment log); a mismatch is an exit-1 failure, not a
// statistic. A third leg re-runs the partitioned configuration while
// checkpointing every other epoch in memory, drops the whole world at a
// crash epoch between two checkpoints, restores a freshly built world from
// the last one and runs on — it must converge to the same surfaces, with
// the checkpoint time reported as overhead. BENCH_megacity.json (schema v2)
// carries two machine-dependent sidecars: "sharding" (per-configuration
// fps, speedup, per-shard busy seconds and balance, envelope volume) and
// "fault_tolerance" (checkpoint seconds/bytes, crash epoch, restores and
// re-run epochs, identity verdict); throughput.jobs records --jobs.
// scripts/bench_compare.py gates frames_per_second against the committed
// baseline and the checkpoint overhead against 5% of the leg's wall clock;
// CI additionally checks the baseline's speedup stays > 1.
//
// Flags: --segments N       corridor length in km (default 100)
//        --vehicles N       fleet size (default 10000)
//        --epochs N         1 s epochs to run (default 12: full churn window;
//                           at least 4, so the crash leg has a checkpoint)
//        --shards-a N       first partitioning (default 1, at most segments)
//        --shards-b N       second partitioning (default 4, at most segments)
//        --seed N           corridor seed (default 42)
//        --jobs N           worker threads (also BLACKDP_JOBS)
//        --surfaces-out-a F dump run A's metrics+log to file F (CI cmp)
//        --surfaces-out-b F dump run B's metrics+log to file F (CI cmp)
//        --no-json          skip writing BENCH_megacity.json
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "common/bytes.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/corridor_world.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;

struct RunResult {
  std::string metricsJson;
  std::string canonicalLog;
  std::uint64_t framesDelivered{0};
  double runSeconds{0.0};
  double fps{0.0};
  shard::ShardStats stats;
  obs::Snapshot snapshot;
};

RunResult runCorridor(const scenario::CorridorConfig& config,
                      std::uint32_t shards, std::uint32_t epochs,
                      sim::ThreadPool& pool) {
  scenario::CorridorWorld world{config, shards, pool};
  const auto begin = std::chrono::steady_clock::now();
  world.run(epochs);
  RunResult out;
  out.runSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  out.metricsJson = world.metricsJson();
  out.canonicalLog = world.canonicalLog();
  out.framesDelivered = world.framesDelivered();
  out.fps = out.runSeconds > 0.0
                ? static_cast<double>(out.framesDelivered) / out.runSeconds
                : 0.0;
  out.stats = world.shardStats();
  out.snapshot = world.metricsSnapshot();
  return out;
}

/// The fault-tolerance leg: the partitioned corridor re-run while writing
/// an in-memory checkpoint every other epoch boundary. At `crashEpoch`,
/// between two checkpoints, the whole world is dropped; a freshly built world
/// restores the last checkpoint and re-runs the epochs the crash lost. Its
/// surfaces must still equal the healthy partitioned run's, and the
/// checkpoint time is the overhead bench_compare.py gates (<= 5% of the
/// leg's wall clock).
struct FaultToleranceResult {
  std::string metricsJson;
  std::string canonicalLog;
  double runSeconds{0.0};
  double checkpointSeconds{0.0};
  std::uint64_t checkpointsWritten{0};
  std::uint64_t checkpointBytes{0};  ///< last checkpoint's size
  std::uint32_t crashEpoch{0};
  std::uint64_t restores{0};
  std::uint32_t rerunEpochs{0};  ///< epochs re-run after the restore
  std::uint64_t crcRejects{0};
};

FaultToleranceResult runFaultTolerance(const scenario::CorridorConfig& config,
                                       std::uint32_t shards,
                                       std::uint32_t epochs,
                                       sim::ThreadPool& pool) {
  constexpr std::uint32_t kCheckpointEvery = 2;
  FaultToleranceResult out;
  // Odd, so it lies between two checkpoints: the restore has epochs to re-run.
  out.crashEpoch = (epochs / 2) | 1;

  auto world = std::make_unique<scenario::CorridorWorld>(config, shards, pool);
  common::Bytes last;
  const auto begin = std::chrono::steady_clock::now();
  while (world->nextEpoch() < epochs) {
    world->step();
    if (world->nextEpoch() == out.crashEpoch && out.restores == 0) {
      // The crash: everything in memory is lost but the last checkpoint.
      world = std::make_unique<scenario::CorridorWorld>(config, shards, pool);
      if (!world->restoreCheckpoint(last).ok()) break;
      ++out.restores;
      out.rerunEpochs = out.crashEpoch - world->nextEpoch();
      continue;
    }
    if (world->nextEpoch() % kCheckpointEvery != 0) continue;
    const auto ckptBegin = std::chrono::steady_clock::now();
    last = world->saveCheckpoint();
    out.checkpointSeconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - ckptBegin)
                                 .count();
    ++out.checkpointsWritten;
    out.checkpointBytes = last.size();
  }
  world->finish();
  out.runSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  out.metricsJson = world->metricsJson();
  out.canonicalLog = world->canonicalLog();
  out.crcRejects = world->shardStats().crcRejects;
  return out;
}

bool dumpSurfaces(const std::string& path, const RunResult& run) {
  if (path.empty()) return true;
  std::ofstream os{path};
  if (!os) {
    std::cerr << "megacity: cannot write " << path << '\n';
    return false;
  }
  os << run.metricsJson << '\n' << run.canonicalLog;
  return true;
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using metrics::Table;

  const obs::BenchTimer timer;
  scenario::CorridorConfig config;  // 100 segments, 10k vehicles, seed 42
  std::uint32_t epochs = 12;
  std::uint32_t shardsA = 1;
  std::uint32_t shardsB = 4;
  unsigned requestedJobs = 0;
  std::string outA;
  std::string outB;
  bool noJson = false;
  bench::Args args{argc, argv,
                   "[--segments N] [--vehicles N] [--epochs N] "
                   "[--shards-a N] [--shards-b N] [--seed N] [--jobs N]\n"
                   "       [--surfaces-out-a FILE] [--surfaces-out-b FILE] "
                   "[--no-json]"};
  while (args.next()) {
    const auto count = [&args](std::uint64_t min) {
      return static_cast<std::uint32_t>(args.number(min, bench::kMaxU32));
    };
    if (args.is("--segments")) {
      config.segments = count(1);
    } else if (args.is("--vehicles")) {
      config.vehicles = count(1);
    } else if (args.is("--epochs")) {
      // The crash leg drops the world at epoch (epochs / 2) | 1 and restores
      // the last even-epoch checkpoint, the first of which is epoch 2's.
      epochs = count(4);
    } else if (args.is("--shards-a")) {
      shardsA = count(1);
    } else if (args.is("--shards-b")) {
      shardsB = count(1);
    } else if (args.is("--seed")) {
      config.seed = args.number(0, std::numeric_limits<std::uint64_t>::max());
    } else if (args.is("--jobs")) {
      requestedJobs = static_cast<unsigned>(args.number(0, sim::kMaxJobs));
    } else if (args.is("--surfaces-out-a")) {
      outA = args.value();
    } else if (args.is("--surfaces-out-b")) {
      outB = args.value();
    } else if (args.is("--no-json")) {
      noJson = true;
    } else {
      args.reject();
    }
  }
  if (shardsA > config.segments || shardsB > config.segments) {
    args.fail("--shards-a " + std::to_string(shardsA) + " and --shards-b " +
              std::to_string(shardsB) + " must not exceed --segments " +
              std::to_string(config.segments));
  }
  sim::ThreadPool pool{sim::resolveJobCount(requestedJobs)};
  const unsigned jobs = pool.workers();

  std::cout << "Megacity corridor: " << config.segments << " km, "
            << config.vehicles << " vehicles, " << epochs << " epochs, "
            << "shards " << shardsA << " vs " << shardsB << ", jobs " << jobs
            << "\n\n";

  const RunResult a = runCorridor(config, shardsA, epochs, pool);
  const RunResult b = runCorridor(config, shardsB, epochs, pool);
  const FaultToleranceResult ft =
      runFaultTolerance(config, shardsB, epochs, pool);

  const bool identical = a.metricsJson == b.metricsJson &&
                         a.canonicalLog == b.canonicalLog &&
                         a.framesDelivered == b.framesDelivered;
  // The crashed-and-restored run must converge to the same surfaces: the
  // checkpoint holds the whole world, so the recovery is unobservable on the
  // deterministic side.
  const bool ftIdentical = ft.metricsJson == b.metricsJson &&
                           ft.canonicalLog == b.canonicalLog;
  const double speedup = a.fps > 0.0 ? b.fps / a.fps : 0.0;

  double busyMin = 0.0;
  double busyMax = 0.0;
  for (std::size_t s = 0; s < b.stats.busySeconds.size(); ++s) {
    const double busy = b.stats.busySeconds[s];
    if (s == 0 || busy < busyMin) busyMin = busy;
    if (s == 0 || busy > busyMax) busyMax = busy;
  }
  const double balance = busyMax > 0.0 ? busyMin / busyMax : 0.0;

  Table table({"Run", "Shards", "Frames", "Wall s", "Frames/s"});
  table.addRow({"A", std::to_string(shardsA),
                std::to_string(a.framesDelivered), Table::num(a.runSeconds, 3),
                Table::num(a.fps, 0)});
  table.addRow({"B", std::to_string(shardsB),
                std::to_string(b.framesDelivered), Table::num(b.runSeconds, 3),
                Table::num(b.fps, 0)});
  table.print(std::cout);
  std::cout << "\nidentical surfaces : " << (identical ? "yes" : "NO — BUG")
            << "\nspeedup (B/A)      : " << Table::num(speedup, 2)
            << "\nshard balance      : " << Table::num(balance, 3)
            << "\nenvelopes exchanged: " << b.stats.envelopesExchanged << '\n';
  std::cout << "\nFault tolerance (world dropped at epoch " << ft.crashEpoch
            << ", checkpoint every 2):"
            << "\n  recovered identical: " << (ftIdentical ? "yes" : "NO — BUG")
            << "\n  restores/re-run    : " << ft.restores << " / "
            << ft.rerunEpochs << " epochs"
            << "\n  checkpoint overhead: " << Table::num(ft.checkpointSeconds, 3)
            << " s of " << Table::num(ft.runSeconds, 3) << " s ("
            << ft.checkpointsWritten << " checkpoints, last "
            << ft.checkpointBytes << " bytes)\n";

  const bool dumped = dumpSurfaces(outA, a) && dumpSurfaces(outB, b);

  if (!noJson) {
    std::string sidecar = "{\n    \"shards_a\": " + std::to_string(shardsA) +
                          ",\n    \"shards_b\": " + std::to_string(shardsB) +
                          ",\n    \"jobs\": " + std::to_string(jobs) +
                          ",\n    \"segments\": " +
                          std::to_string(config.segments) +
                          ",\n    \"vehicles\": " +
                          std::to_string(config.vehicles) +
                          ",\n    \"epochs\": " + std::to_string(epochs) +
                          ",\n    \"fps_shards_a\": " + num(a.fps) +
                          ",\n    \"fps_shards_b\": " + num(b.fps) +
                          ",\n    \"speedup\": " + num(speedup) +
                          ",\n    \"balance_ratio\": " + num(balance) +
                          ",\n    \"busy_seconds\": [";
    for (std::size_t s = 0; s < b.stats.busySeconds.size(); ++s) {
      if (s > 0) sidecar += ", ";
      sidecar += num(b.stats.busySeconds[s]);
    }
    sidecar += "],\n    \"envelopes_exchanged\": " +
               std::to_string(b.stats.envelopesExchanged) +
               ",\n    \"identical\": " + (identical ? "true" : "false") +
               "\n  }";

    const std::string faultSidecar =
        "{\n    \"checkpoint_seconds\": " + num(ft.checkpointSeconds) +
        ",\n    \"wall_clock_seconds\": " + num(ft.runSeconds) +
        ",\n    \"checkpoints_written\": " +
        std::to_string(ft.checkpointsWritten) +
        ",\n    \"checkpoint_bytes\": " + std::to_string(ft.checkpointBytes) +
        ",\n    \"crash_epoch\": " + std::to_string(ft.crashEpoch) +
        ",\n    \"restores\": " + std::to_string(ft.restores) +
        ",\n    \"recovery_epochs\": " + std::to_string(ft.rerunEpochs) +
        ",\n    \"crc_rejects\": " + std::to_string(ft.crcRejects) +
        ",\n    \"identical\": " + (ftIdentical ? "true" : "false") +
        "\n  }";

    // Headline throughput is the partitioned run: frames over ITS wall
    // clock, so frames_per_second == sharding.fps_shards_b.
    obs::BenchRunInfo info;
    info.wallClockSeconds = b.runSeconds;
    info.framesDelivered = b.framesDelivered;
    info.jobs = jobs;
    info.addExtra("sharding", sidecar);
    info.addExtra("fault_tolerance", faultSidecar);
    obs::writeBenchJson("megacity", b.snapshot, info);
  }

  const bool healthy = identical && ftIdentical && dumped &&
                       a.framesDelivered > 0 && ft.restores == 1 &&
                       ft.rerunEpochs > 0 &&
                       timer.elapsedSeconds() > 0.0;
  return healthy ? 0 : 1;
}
