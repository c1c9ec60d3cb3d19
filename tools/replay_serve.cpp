// Trace replay server: re-drives a recorded d_req trace (JSONL, written by
// `soak_run --stream --trace FILE`) through a detector build and reports
// the verdict timeline it produced.
//
//   replay_serve --trace trace.jsonl                  # hardened build
//   replay_serve --trace trace.jsonl --naive          # hardening disabled
//   replay_serve --trace trace.jsonl --json out.json  # metrics to a file
//   replay_serve --trace trace.jsonl --expect-hash H  # regression gate:
//                                                     # exit 1 on mismatch
//   replay_serve --trace trace.jsonl --diff           # A/B: naive vs
//                                                     # hardened, timeline
//                                                     # diff side by side
//
// The replayed world must be built with the same topology and seed as the
// recorder (--stream-seed / --clusters, defaults match soak_run --stream),
// otherwise enrollment-derived pseudonyms differ and the trace's reporter
// and target indices address different identities. The config hash inside a
// checkpoint guards restore; a trace has no such guard — it is deliberately
// build-independent so it CAN cross builds (that is the point of A/B).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "number_arg.hpp"
#include "scenario/stream_world.hpp"

namespace {

using blackdp::scenario::InjectionSpec;
using blackdp::scenario::StreamConfig;
using blackdp::scenario::StreamWorld;
using blackdp::scenario::VerdictEvent;

constexpr const char* kVerdictNames[4] = {"not-confirmed", "single",
                                          "cooperative", "unreachable"};

int usage(const std::string& problem) {
  std::cerr << problem << "\n"
            << "usage: replay_serve --trace FILE [--stream-seed S] "
               "[--clusters C] [--naive] [--json FILE] "
               "[--expect-hash H] [--diff]\n";
  return 2;
}

/// The trace, grouped per epoch (file order preserved inside an epoch).
struct Trace {
  std::vector<std::vector<InjectionSpec>> epochs;
  std::size_t lines{0};
};

bool loadTrace(const std::string& path, Trace& out) {
  std::ifstream in{path};
  if (!in) {
    std::cerr << "cannot read trace " << path << "\n";
    return false;
  }
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    const auto parsed = blackdp::scenario::parseInjectionJson(line);
    if (!parsed) {
      std::cerr << path << ":" << lineNo << ": malformed trace line\n";
      return false;
    }
    const auto& [epoch, spec] = *parsed;
    if (epoch > 10'000'000) {
      std::cerr << path << ":" << lineNo << ": implausible epoch " << epoch
                << "\n";
      return false;
    }
    if (out.epochs.size() <= epoch) out.epochs.resize(epoch + 1);
    out.epochs[epoch].push_back(spec);
    ++out.lines;
  }
  return true;
}

/// Serves every epoch of the trace through a fresh world (epochs with no
/// recorded injections still run, so timers fire on the same boundaries).
std::unique_ptr<StreamWorld> serve(const StreamConfig& config,
                                   const Trace& trace, bool recordTimeline) {
  auto world = std::make_unique<StreamWorld>(config);
  world->recordVerdicts(recordTimeline);
  for (std::size_t epoch = 0; epoch < trace.epochs.size(); ++epoch) {
    world->runEpochFromSpecs(trace.epochs[epoch]);
  }
  return world;
}

void printTimelineSummary(const char* label, const StreamWorld& world) {
  const blackdp::scenario::StreamMetrics m = world.metrics();
  std::cout << label << ": responses";
  for (int v = 0; v < 4; ++v) {
    std::cout << " " << kVerdictNames[v] << "=" << m.responsesByVerdict[v];
  }
  std::cout << " isolations=" << m.isolations
            << " verdict_hash=" << m.verdictHash << "\n";
}

int diffTimelines(const StreamWorld& naive, const StreamWorld& hardened) {
  const std::vector<VerdictEvent>& a = naive.verdictTimeline();
  const std::vector<VerdictEvent>& b = hardened.verdictTimeline();
  printTimelineSummary("A (naive)   ", naive);
  printTimelineSummary("B (hardened)", hardened);

  std::size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
    ++prefix;
  }
  if (prefix == a.size() && prefix == b.size()) {
    std::cout << "timelines identical (" << a.size() << " verdict(s)).\n";
    return 0;
  }
  std::cout << "timelines diverge after " << prefix
            << " shared verdict(s); A has " << a.size() << ", B has "
            << b.size() << ".\n";
  const auto show = [](const char* side, const std::vector<VerdictEvent>& tl,
                       std::size_t at) {
    if (at >= tl.size()) {
      std::cout << "  " << side << " <end of timeline>\n";
      return;
    }
    const VerdictEvent& e = tl[at];
    std::cout << "  " << side << " t=" << e.timeUs << "us reporter="
              << e.reporter << " suspect=" << e.suspect << " verdict="
              << kVerdictNames[e.verdict % 4]
              << (e.accomplice != 0
                      ? " accomplice=" + std::to_string(e.accomplice)
                      : std::string{})
              << "\n";
  };
  constexpr std::size_t kShow = 5;
  for (std::size_t k = 0; k < kShow; ++k) {
    const std::size_t at = prefix + k;
    if (at >= a.size() && at >= b.size()) break;
    std::cout << "divergence +" << k << ":\n";
    show("A:", a, at);
    show("B:", b, at);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tracePath;
  std::string jsonPath;
  StreamConfig config;
  bool naive = false;
  bool diff = false;
  bool haveExpectHash = false;
  std::uint64_t expectHash = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(arg + " needs a value"));
      return argv[++i];
    };
    const auto number = [&](std::uint64_t min, std::uint64_t max) {
      return blackdp::tools::numberArg(arg, value(), min, max, usage);
    };
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    if (arg == "--trace") {
      tracePath = value();
    } else if (arg == "--json") {
      jsonPath = value();
    } else if (arg == "--stream-seed") {
      config.seed = number(0, kMax);
    } else if (arg == "--clusters") {
      config.clusters = static_cast<std::uint32_t>(
          number(1, std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--naive") {
      naive = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--expect-hash") {
      haveExpectHash = true;
      expectHash = number(0, kMax);
    } else {
      return usage("unknown argument: " + arg);
    }
  }
  if (tracePath.empty()) return usage("--trace is required");

  Trace trace;
  if (!loadTrace(tracePath, trace)) return 2;
  // An empty trace replays to the empty run's hash: a gate on it would
  // pass without checking anything.
  if (trace.lines == 0) {
    return usage(tracePath + " holds no injection lines to replay");
  }
  std::cout << "replaying " << trace.lines << " d_req(s) across "
            << trace.epochs.size() << " epoch(s)\n";

  if (diff) {
    StreamConfig naiveConfig = config;
    naiveConfig.detector.hardening.enabled = false;
    const auto a = serve(naiveConfig, trace, /*recordTimeline=*/true);
    const auto b = serve(config, trace, /*recordTimeline=*/true);
    return diffTimelines(*a, *b);
  }

  StreamConfig serveConfig = config;
  if (naive) serveConfig.detector.hardening.enabled = false;
  const auto world = serve(serveConfig, trace, /*recordTimeline=*/false);
  const blackdp::scenario::StreamMetrics metrics = world->metrics();
  if (!jsonPath.empty()) {
    std::ofstream out{jsonPath, std::ios::trunc};
    if (!out) {
      std::cerr << "cannot write metrics to " << jsonPath << "\n";
      return 2;
    }
    out << metrics.toJson() << "\n";
  } else {
    std::cout << metrics.toJson() << "\n";
  }
  std::cout << "verdict_hash=" << metrics.verdictHash << "\n";
  if (haveExpectHash && metrics.verdictHash != expectHash) {
    std::cout << "REGRESSION: verdict hash " << metrics.verdictHash
              << " != expected " << expectHash << "\n";
    return 1;
  }
  return 0;
}
