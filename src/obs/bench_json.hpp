// The BENCH_<name>.json contract.
//
// Every bench funnels its results into a MetricsRegistry and ends with one
// writeBenchJson call; CI validates the emitted file against
// scripts/validate_bench_json.py and archives it. Schema (version 2):
//
//   {
//     "bench": "<name>",
//     "schema_version": 2,
//     "wall_clock_seconds": <real elapsed time of the bench process>,
//     "throughput": {
//       "frames_delivered": <total medium deliveries across all trials>,
//       "frames_per_second": <frames_delivered / wall_clock_seconds>,
//       "jobs": <worker threads (--jobs); present for every bench that
//                takes --jobs, omitted by pinned campaign sidecars>,
//       "allocations_per_frame": <heap allocs per delivered frame; only
//                                 present when the bench measured it>
//     },
//     "metrics": { "counters": {...}, "gauges": {...}, "histograms": {...} }
//   }
//
// The "metrics" subtree is fully deterministic (seeded trials, merged in
// submission order — identical for any --jobs value); wall clock and
// throughput are the one machine-dependent sidecar, kept top-level so
// determinism checks and bench_compare.py can treat them separately.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

namespace blackdp::obs {

inline constexpr int kBenchJsonSchemaVersion = 2;

/// One pre-rendered machine-dependent top-level section of the document.
struct BenchExtraSection {
  std::string key;   ///< top-level JSON key, e.g. "sharding"
  std::string json;  ///< pre-rendered JSON value
};

/// The non-deterministic sidecar of a bench run: real elapsed time and the
/// simulated work done in it. With framesDelivered == 0 the writer derives
/// the total from the snapshot's "*.frames_delivered" counters, so benches
/// that fold medium stats get throughput for free.
struct BenchRunInfo {
  double wallClockSeconds{0.0};
  std::uint64_t framesDelivered{0};
  /// Heap allocations per delivered frame in the measured steady-state span,
  /// from the common/alloc_hook counters. Negative means "not measured" and
  /// the field is omitted from the JSON.
  double allocationsPerFrame{-1.0};
  unsigned jobs{0};  ///< --jobs workers; 0 = not recorded, field omitted
  /// Optional extra machine-dependent top-level sections, emitted between
  /// "throughput" and "metrics" in order as `"<key>": <json>`. `json` must
  /// be a pre-rendered JSON value (usually an object); bench/megacity emits
  /// its "sharding" and "fault_tolerance" sidecars this way.
  std::vector<BenchExtraSection> extras;

  BenchRunInfo& addExtra(std::string key, std::string json) {
    extras.push_back({std::move(key), std::move(json)});
    return *this;
  }

  BenchRunInfo& recordJobs(unsigned count) {
    jobs = count;
    return *this;
  }
};

/// Steady-clock stopwatch; benches start one at the top of main and hand
/// `timer.info()` (or `timer.info(framesDelivered)`) to writeBenchJson.
class BenchTimer {
 public:
  BenchTimer() : start_{std::chrono::steady_clock::now()} {}

  [[nodiscard]] double elapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  [[nodiscard]] BenchRunInfo info(std::uint64_t framesDelivered = 0) const {
    BenchRunInfo out;
    out.wallClockSeconds = elapsedSeconds();
    out.framesDelivered = framesDelivered;
    return out;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Renders the full document for `snapshot` under bench `name`.
[[nodiscard]] std::string benchJson(std::string_view name,
                                    const Snapshot& snapshot,
                                    const BenchRunInfo& info = {});

/// Writes `BENCH_<name>.json` into `outDir` and returns its path. The
/// directory is taken from the BLACKDP_BENCH_OUT environment variable when
/// `outDir` is empty, falling back to the current directory. Returns an
/// empty string (after logging a warning) when the file cannot be written —
/// benches still print their tables either way.
std::string writeBenchJson(std::string_view name, const Snapshot& snapshot,
                           const BenchRunInfo& info = {},
                           std::string_view outDir = {});

}  // namespace blackdp::obs
