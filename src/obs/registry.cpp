#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"
#include "metrics/confusion.hpp"
#include "metrics/stats.hpp"
#include "obs/json.hpp"

namespace blackdp::obs {
namespace {

void appendIndent(std::string& out, int spaces) {
  out.append(static_cast<std::size_t>(spaces), ' ');
}

}  // namespace

Histogram::Histogram(std::vector<double> upperEdges)
    : edges_{std::move(upperEdges)}, counts_(edges_.size() + 1, 0) {}

void Histogram::observe(double value) {
  std::size_t bucket = edges_.size();  // overflow unless an edge holds it
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (value <= edges_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  sum_ += value;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
}

void Histogram::mergeFrom(const Snapshot::HistogramData& data) {
  BDP_ASSERT_MSG(data.edges == edges_, "merging histograms with different "
                                       "bucket edges");
  if (data.count == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += data.counts[i];
  if (count_ == 0 || data.min < min_) min_ = data.min;
  if (count_ == 0 || data.max > max_) max_ = data.max;
  count_ += data.count;
  sum_ += data.sum;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string{name}, Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string{name}, Gauge{}).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upperEdges) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string{name}, Histogram{std::move(upperEdges)})
             .first;
  }
  return it->second;
}

void MetricsRegistry::merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) counter(name).add(value);
  for (const auto& [name, value] : other.gauges) gauge(name).set(value);
  for (const auto& [name, data] : other.histograms) {
    Histogram& hist = histogram(name, data.edges);
    hist.mergeFrom(data);
  }
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter.value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge.value());
  }
  for (const auto& [name, hist] : histograms_) {
    Snapshot::HistogramData data;
    data.edges = hist.edges();
    data.counts = hist.counts();
    data.count = hist.count();
    data.sum = hist.sum();
    data.min = hist.min();
    data.max = hist.max();
    snap.histograms.emplace(name, std::move(data));
  }
  return snap;
}

std::string Snapshot::toJson(int indent) const {
  std::string out;
  const int l1 = indent;
  const int l2 = indent * 2;
  const int l3 = indent * 3;

  out += "{\n";
  appendIndent(out, l1);
  out += "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    appendIndent(out, l2);
    appendJsonString(out, name);
    out += ": ";
    appendJsonNumber(out, value);
  }
  if (!first) {
    out += "\n";
    appendIndent(out, l1);
  }
  out += "},\n";

  appendIndent(out, l1);
  out += "\"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    appendIndent(out, l2);
    appendJsonString(out, name);
    out += ": ";
    appendJsonNumber(out, value);
  }
  if (!first) {
    out += "\n";
    appendIndent(out, l1);
  }
  out += "},\n";

  appendIndent(out, l1);
  out += "\"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    appendIndent(out, l2);
    appendJsonString(out, name);
    out += ": {\n";

    appendIndent(out, l3);
    out += "\"edges\": [";
    for (std::size_t i = 0; i < hist.edges.size(); ++i) {
      if (i != 0) out += ", ";
      appendJsonNumber(out, hist.edges[i]);
    }
    out += "],\n";

    appendIndent(out, l3);
    out += "\"counts\": [";
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      if (i != 0) out += ", ";
      appendJsonNumber(out, hist.counts[i]);
    }
    out += "],\n";

    appendIndent(out, l3);
    out += "\"count\": ";
    appendJsonNumber(out, hist.count);
    out += ",\n";
    appendIndent(out, l3);
    out += "\"sum\": ";
    appendJsonNumber(out, hist.sum);
    out += ",\n";
    appendIndent(out, l3);
    out += "\"min\": ";
    appendJsonNumber(out, hist.min);
    out += ",\n";
    appendIndent(out, l3);
    out += "\"max\": ";
    appendJsonNumber(out, hist.max);
    out += "\n";

    appendIndent(out, l2);
    out += "}";
  }
  if (!first) {
    out += "\n";
    appendIndent(out, l1);
  }
  out += "}\n";
  out += "}";
  return out;
}

namespace {

// Doubles travel as IEEE-754 bit patterns: a snapshot restored from bytes
// must merge into an empty registry byte-for-byte, and a decimal detour
// would round histogram sums.
void writeF64(common::ByteWriter& w, double v) {
  w.writeU64(std::bit_cast<std::uint64_t>(v));
}

double readF64(common::ByteReader& r) {
  return std::bit_cast<double>(r.readU64());
}

}  // namespace

void serializeSnapshot(const Snapshot& snapshot, common::ByteWriter& writer) {
  writer.writeU32(static_cast<std::uint32_t>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    writer.writeString(name);
    writer.writeU64(value);
  }
  writer.writeU32(static_cast<std::uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    writer.writeString(name);
    writeF64(writer, value);
  }
  writer.writeU32(static_cast<std::uint32_t>(snapshot.histograms.size()));
  for (const auto& [name, hist] : snapshot.histograms) {
    writer.writeString(name);
    writer.writeU32(static_cast<std::uint32_t>(hist.edges.size()));
    for (double edge : hist.edges) writeF64(writer, edge);
    writer.writeU32(static_cast<std::uint32_t>(hist.counts.size()));
    for (std::uint64_t count : hist.counts) writer.writeU64(count);
    writer.writeU64(hist.count);
    writeF64(writer, hist.sum);
    writeF64(writer, hist.min);
    writeF64(writer, hist.max);
  }
}

Snapshot deserializeSnapshot(common::ByteReader& reader) {
  Snapshot snapshot;
  const std::uint32_t counters = reader.readU32();
  for (std::uint32_t i = 0; i < counters; ++i) {
    const std::string name = reader.readString();
    snapshot.counters.emplace(name, reader.readU64());
  }
  const std::uint32_t gauges = reader.readU32();
  for (std::uint32_t i = 0; i < gauges; ++i) {
    const std::string name = reader.readString();
    snapshot.gauges.emplace(name, readF64(reader));
  }
  const std::uint32_t histograms = reader.readU32();
  for (std::uint32_t i = 0; i < histograms; ++i) {
    const std::string name = reader.readString();
    Snapshot::HistogramData data;
    // Reserves capped by the bytes left: a hostile count fails on its first
    // underrun instead of allocating first.
    const std::uint32_t edges = reader.readU32();
    data.edges.reserve(std::min<std::size_t>(edges, reader.remaining()));
    for (std::uint32_t j = 0; j < edges; ++j) {
      data.edges.push_back(readF64(reader));
    }
    const std::uint32_t counts = reader.readU32();
    data.counts.reserve(std::min<std::size_t>(counts, reader.remaining()));
    for (std::uint32_t j = 0; j < counts; ++j) {
      data.counts.push_back(reader.readU64());
    }
    data.count = reader.readU64();
    data.sum = readF64(reader);
    data.min = readF64(reader);
    data.max = readF64(reader);
    snapshot.histograms.emplace(name, std::move(data));
  }
  return snapshot;
}

void addConfusion(MetricsRegistry& registry, std::string_view prefix,
                  const metrics::ConfusionMatrix& matrix) {
  const std::string base{prefix};
  registry.counter(base + ".tp").add(matrix.tp());
  registry.counter(base + ".fp").add(matrix.fp());
  registry.counter(base + ".tn").add(matrix.tn());
  registry.counter(base + ".fn").add(matrix.fn());
  registry.gauge(base + ".accuracy").set(matrix.accuracy());
  registry.gauge(base + ".precision").set(matrix.precision());
  registry.gauge(base + ".recall").set(matrix.recall());
  registry.gauge(base + ".false_positive_rate")
      .set(matrix.falsePositiveRate());
  registry.gauge(base + ".false_negative_rate")
      .set(matrix.falseNegativeRate());
}

void addRunningStat(MetricsRegistry& registry, std::string_view prefix,
                    const metrics::RunningStat& stat) {
  const std::string base{prefix};
  registry.counter(base + ".count").add(stat.count());
  registry.gauge(base + ".mean").set(stat.mean());
  registry.gauge(base + ".min").set(stat.min());
  registry.gauge(base + ".max").set(stat.max());
  registry.gauge(base + ".stddev").set(stat.stddev());
  registry.gauge(base + ".ci95").set(stat.ci95());
}

const std::vector<double>& latencyBucketsMs() {
  static const std::vector<double> kEdges{1.0,   2.0,   5.0,    10.0,   20.0,
                                          50.0,  100.0, 200.0,  500.0,  1000.0,
                                          2000.0, 5000.0, 10000.0};
  return kEdges;
}

}  // namespace blackdp::obs
