#include "obs/bench_json.hpp"

#include <cstdlib>
#include <fstream>
#include <string_view>

#include "common/logging.hpp"
#include "obs/json.hpp"

namespace blackdp::obs {
namespace {

/// Total medium deliveries recorded in the snapshot: the canonical
/// "medium.frames_delivered" counter plus any prefixed variants a bench
/// folded in per treatment.
std::uint64_t framesDeliveredIn(const Snapshot& snapshot) {
  constexpr std::string_view kSuffix = "frames_delivered";
  std::uint64_t total = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.size() < kSuffix.size()) continue;
    const std::string_view tail =
        std::string_view{name}.substr(name.size() - kSuffix.size());
    if (tail != kSuffix) continue;
    // Accept "frames_delivered" itself or any dotted prefix of it.
    if (name.size() > kSuffix.size() &&
        name[name.size() - kSuffix.size() - 1] != '.') {
      continue;
    }
    total += value;
  }
  return total;
}

}  // namespace

std::string benchJson(std::string_view name, const Snapshot& snapshot,
                      const BenchRunInfo& info) {
  const std::uint64_t frames = info.framesDelivered != 0
                                   ? info.framesDelivered
                                   : framesDeliveredIn(snapshot);
  const double fps = info.wallClockSeconds > 0.0
                         ? static_cast<double>(frames) / info.wallClockSeconds
                         : 0.0;

  std::string out;
  out += "{\n  \"bench\": ";
  appendJsonString(out, name);
  out += ",\n  \"schema_version\": ";
  appendJsonNumber(out, static_cast<std::int64_t>(kBenchJsonSchemaVersion));
  out += ",\n  \"wall_clock_seconds\": ";
  appendJsonNumber(out, info.wallClockSeconds);
  out += ",\n  \"throughput\": {\n    \"frames_delivered\": ";
  appendJsonNumber(out, frames);
  out += ",\n    \"frames_per_second\": ";
  appendJsonNumber(out, fps);
  if (info.jobs > 0) {
    out += ",\n    \"jobs\": ";
    appendJsonNumber(out, static_cast<std::uint64_t>(info.jobs));
  }
  if (info.allocationsPerFrame >= 0.0) {
    out += ",\n    \"allocations_per_frame\": ";
    appendJsonNumber(out, info.allocationsPerFrame);
  }
  out += "\n  },\n  ";
  for (const BenchExtraSection& extra : info.extras) {
    if (extra.key.empty() || extra.json.empty()) continue;
    appendJsonString(out, extra.key);
    out += ": ";
    out += extra.json;
    out += ",\n  ";
  }
  out += "\"metrics\": ";

  // Re-indent the snapshot body under the "metrics" key.
  const std::string body = snapshot.toJson();
  for (std::size_t i = 0; i < body.size(); ++i) {
    out.push_back(body[i]);
    if (body[i] == '\n' && i + 1 < body.size()) out += "  ";
  }
  out += "\n}\n";
  return out;
}

std::string writeBenchJson(std::string_view name, const Snapshot& snapshot,
                           const BenchRunInfo& info, std::string_view outDir) {
  std::string dir{outDir};
  if (dir.empty()) {
    // Temporary + move assignment sidesteps a GCC 12 -Wrestrict false
    // positive (PR 105329) on char* assignment after inlining.
    const char* env = std::getenv("BLACKDP_BENCH_OUT");
    dir = std::string{env != nullptr && *env != '\0' ? env : "."};
  }

  std::string path = dir;
  if (path.back() != '/') path += '/';
  path += "BENCH_";
  path += name;
  path += ".json";

  std::ofstream os{path};
  if (!os) {
    BDP_LOG(kWarn, "obs") << "cannot write " << path;
    return {};
  }
  os << benchJson(name, snapshot, info);
  if (!os) {
    BDP_LOG(kWarn, "obs") << "short write to " << path;
    return {};
  }
  BDP_LOG(kInfo, "obs") << "wrote " << path;
  return path;
}

}  // namespace blackdp::obs
