// Unit tests for the observability layer: trace recording, the metrics
// registry, the JSON exporters, and the trace_report reconstruction logic.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/confusion.hpp"
#include "metrics/stats.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"

namespace {

using namespace blackdp;
using obs::DetectorOp;
using obs::DropCause;
using obs::EventKind;
using obs::TraceEvent;
using obs::VerifierOp;

// ------------------------------------------------------------------- trace

TEST(TraceTest, NoRecorderByDefault) {
  EXPECT_EQ(obs::Trace::active(), nullptr);
}

TEST(TraceTest, ScopedRecorderInstallsAndRestores) {
  obs::MemoryRecorder outer;
  obs::ScopedTraceRecorder scopedOuter{&outer};
  EXPECT_EQ(obs::Trace::active(), &outer);
  {
    obs::MemoryRecorder inner;
    obs::ScopedTraceRecorder scopedInner{&inner};
    EXPECT_EQ(obs::Trace::active(), &inner);
  }
  EXPECT_EQ(obs::Trace::active(), &outer);
}

TEST(TraceTest, MemoryRecorderBuffersEvents) {
  obs::MemoryRecorder recorder;
  recorder.record(TraceEvent{1, EventKind::kFrameTx});
  recorder.record(TraceEvent{2, EventKind::kFrameRx});
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.events()[0].atUs, 1);
  EXPECT_EQ(recorder.events()[1].kind, EventKind::kFrameRx);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

// --------------------------------------------------------------- histogram

TEST(HistogramTest, BucketEdgesAreUpperInclusive) {
  obs::Histogram hist{{1.0, 2.0, 5.0}};
  ASSERT_EQ(hist.counts().size(), 4u);  // 3 edges + overflow

  hist.observe(0.5);  // <= 1       -> bucket 0
  hist.observe(1.0);  // == edge 0  -> bucket 0 (upper-inclusive)
  hist.observe(1.5);  // <= 2       -> bucket 1
  hist.observe(5.0);  // == edge 2  -> bucket 2
  hist.observe(7.0);  // > last     -> overflow

  EXPECT_EQ(hist.counts()[0], 2u);
  EXPECT_EQ(hist.counts()[1], 1u);
  EXPECT_EQ(hist.counts()[2], 1u);
  EXPECT_EQ(hist.counts()[3], 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 15.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist.max(), 7.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 3.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  const obs::Histogram hist{{1.0}};
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(HistogramTest, LatencyBucketsSpanMillisecondToTenSeconds) {
  const auto& edges = obs::latencyBucketsMs();
  ASSERT_FALSE(edges.empty());
  EXPECT_DOUBLE_EQ(edges.front(), 1.0);
  EXPECT_DOUBLE_EQ(edges.back(), 10'000.0);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, LookupCreatesOnFirstUseAndPersists) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(2);
  registry.counter("a.count").add(3);
  registry.gauge("a.rate").set(0.5);
  registry.histogram("a.lat", {1.0, 2.0}).observe(1.5);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("a.rate"), 0.5);
  ASSERT_EQ(snap.histograms.at("a.lat").counts.size(), 3u);
  EXPECT_EQ(snap.histograms.at("a.lat").counts[1], 1u);
}

TEST(RegistryTest, AddConfusionExportsCellsAndRates) {
  obs::MetricsRegistry registry;
  obs::addConfusion(registry, "fig4.single",
                    metrics::ConfusionMatrix::fromCounts(9, 0, 10, 1));
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("fig4.single.tp"), 9u);
  EXPECT_EQ(snap.counters.at("fig4.single.fn"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("fig4.single.recall"), 0.9);
  EXPECT_DOUBLE_EQ(snap.gauges.at("fig4.single.false_positive_rate"), 0.0);
}

TEST(RegistryTest, AddRunningStatExportsMoments) {
  metrics::RunningStat stat;
  stat.add(1.0);
  stat.add(3.0);
  obs::MetricsRegistry registry;
  obs::addRunningStat(registry, "pdr.honest", stat);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("pdr.honest.count"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("pdr.honest.mean"), 2.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("pdr.honest.min"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("pdr.honest.max"), 3.0);
}

TEST(RegistryTest, SnapshotJsonHasAllThreeSections) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(1);
  registry.gauge("g").set(2.5);
  registry.histogram("h", {1.0}).observe(0.5);
  const std::string json = registry.snapshot().toJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"g\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"edges\": [1]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [1, 0]"), std::string::npos);
}

TEST(RegistryTest, MergeAddsCountersOverwritesGaugesAndFoldsHistograms) {
  obs::MetricsRegistry a;
  a.counter("c").add(2);
  a.gauge("g").set(1.0);
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  a.histogram("h", {1.0, 2.0}).observe(9.0);

  obs::MetricsRegistry b;
  b.counter("c").add(3);
  b.counter("only_b").add(1);
  b.gauge("g").set(4.0);
  b.histogram("h", {1.0, 2.0}).observe(1.5);

  a.merge(b.snapshot());
  const obs::Snapshot merged = a.snapshot();
  EXPECT_EQ(merged.counters.at("c"), 5u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 4.0);  // last writer wins
  const auto& hist = merged.histograms.at("h");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_EQ(hist.counts[0], 1u);  // 0.5
  EXPECT_EQ(hist.counts[1], 1u);  // 1.5
  EXPECT_EQ(hist.counts[2], 1u);  // 9.0 overflow
  EXPECT_DOUBLE_EQ(hist.sum, 11.0);
  EXPECT_DOUBLE_EQ(hist.min, 0.5);
  EXPECT_DOUBLE_EQ(hist.max, 9.0);
}

TEST(RegistryTest, MergeSequenceMatchesSerialFold) {
  // Folding three per-trial snapshots in submission order must equal one
  // registry fed the same observations serially — the worker pool's
  // merge contract.
  obs::MetricsRegistry serial;
  obs::MetricsRegistry merged;
  for (int trial = 0; trial < 3; ++trial) {
    obs::MetricsRegistry local;
    for (obs::MetricsRegistry* r : {&serial, &local}) {
      r->counter("n").add(static_cast<std::uint64_t>(trial) + 1);
      r->gauge("last").set(trial);
      r->histogram("h", {10.0}).observe(trial * 5.0);
    }
    merged.merge(local.snapshot());
  }
  EXPECT_EQ(serial.snapshot().toJson(), merged.snapshot().toJson());
}

TEST(BenchJsonTest, DocumentCarriesNameAndSchemaVersion) {
  obs::MetricsRegistry registry;
  registry.counter("x").add(7);
  const std::string doc = obs::benchJson("demo", registry.snapshot());
  EXPECT_NE(doc.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"x\": 7"), std::string::npos);
}

TEST(BenchJsonTest, WallClockAndThroughputAreTopLevel) {
  obs::MetricsRegistry registry;
  registry.counter("medium.frames_delivered").add(500);
  obs::BenchRunInfo info;
  info.wallClockSeconds = 2.0;
  info.framesDelivered = 1000;
  const std::string doc = obs::benchJson("demo", registry.snapshot(), info);
  EXPECT_NE(doc.find("\"wall_clock_seconds\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"frames_delivered\": 1000"), std::string::npos);
  EXPECT_NE(doc.find("\"frames_per_second\": 500"), std::string::npos);
  // The sidecar lives OUTSIDE "metrics", which stays deterministic.
  EXPECT_LT(doc.find("\"throughput\""), doc.find("\"metrics\""));
}

TEST(BenchJsonTest, FramesDeliveredDerivedFromCountersWhenUnset) {
  obs::MetricsRegistry registry;
  registry.counter("medium.frames_delivered").add(300);
  registry.counter("treatmentA.medium.frames_delivered").add(200);
  registry.counter("unrelated_frames_delivered").add(999);  // no dot prefix
  registry.counter("medium.frames_sent").add(777);
  obs::BenchRunInfo info;
  info.wallClockSeconds = 1.0;
  const std::string doc = obs::benchJson("demo", registry.snapshot(), info);
  EXPECT_NE(doc.find("\"frames_delivered\": 500"), std::string::npos);
  EXPECT_NE(doc.find("\"frames_per_second\": 500"), std::string::npos);
}

TEST(BenchJsonTest, ZeroWallClockYieldsZeroRate) {
  obs::MetricsRegistry registry;
  const std::string doc = obs::benchJson("demo", registry.snapshot());
  EXPECT_NE(doc.find("\"wall_clock_seconds\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"frames_per_second\": 0"), std::string::npos);
}

// -------------------------------------------------------------------- json

TEST(JsonTest, StringEscaping) {
  std::string out;
  obs::appendJsonString(out, "a\"b\\c\n\t");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\"");
}

TEST(JsonTest, FlatObjectParsesScalars) {
  const auto obj = obs::FlatJsonObject::parse(
      R"({"t":42,"kind":"detector","neg":-7,"pi":3.5})");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->u64("t"), 42u);
  EXPECT_EQ(obj->string("kind"), "detector");
  EXPECT_EQ(obj->i64("neg"), -7);
  EXPECT_EQ(obj->number("pi"), 3.5);
  EXPECT_FALSE(obj->string("missing").has_value());
}

TEST(JsonTest, FlatObjectRejectsNestingAndGarbage) {
  EXPECT_FALSE(obs::FlatJsonObject::parse(R"({"a":{"b":1}})").has_value());
  EXPECT_FALSE(obs::FlatJsonObject::parse(R"({"a":[1]})").has_value());
  EXPECT_FALSE(obs::FlatJsonObject::parse(R"({"a":1} x)").has_value());
  EXPECT_FALSE(obs::FlatJsonObject::parse("not json").has_value());
}

TEST(JsonTest, JsonValueParsesNestedDocuments) {
  const auto doc = obs::JsonValue::parse(
      R"({"name":"x","n":3,"neg":-2.5,"flag":true,"null":null,)"
      R"("list":[1,"two",{"three":3}],"obj":{"a":{"b":[false]}}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->isObject());
  EXPECT_EQ(doc->find("name")->asString(), "x");
  EXPECT_EQ(doc->find("n")->asU64(), 3u);
  EXPECT_EQ(doc->find("neg")->asNumber(), -2.5);
  EXPECT_EQ(doc->find("flag")->asBool(), true);
  EXPECT_TRUE(doc->find("null")->isNull());
  const obs::JsonValue* list = doc->find("list");
  ASSERT_TRUE(list != nullptr && list->isArray());
  ASSERT_EQ(list->items().size(), 3u);
  EXPECT_EQ(list->items()[0].asI64(), 1);
  EXPECT_EQ(list->items()[1].asString(), "two");
  EXPECT_EQ(list->items()[2].find("three")->asU64(), 3u);
  EXPECT_EQ(doc->find("obj")->find("a")->find("b")->items()[0].asBool(),
            false);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonTest, JsonValueRejectsMalformedAndTooDeep) {
  EXPECT_FALSE(obs::JsonValue::parse("").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{").has_value());
  EXPECT_FALSE(obs::JsonValue::parse(R"({"a":1,})").has_value());
  EXPECT_FALSE(obs::JsonValue::parse(R"([1 2])").has_value());
  EXPECT_FALSE(obs::JsonValue::parse(R"({"a":1} x)").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("tru").has_value());
  // Depth cap: 100 nested arrays exceed kMaxJsonDepth.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(obs::JsonValue::parse(deep).has_value());
}

TEST(JsonTest, JsonValueNumbersRoundTripExactly) {
  // Snapshot round-trips through manifest rows rely on to_chars/from_chars
  // shortest-representation exactness.
  const auto doc = obs::JsonValue::parse(R"([0.1, 1e-3, 18446744073709551615])");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->items()[0].asNumber(), 0.1);
  EXPECT_EQ(doc->items()[1].asNumber(), 1e-3);
  EXPECT_EQ(doc->items()[2].asU64(), 18446744073709551615ull);
  EXPECT_FALSE(doc->items()[0].asU64().has_value());
}

// ---------------------------------------------------------------- trace IO

TEST(TraceIoTest, JsonLineGolden) {
  const TraceEvent full{1234,
                        EventKind::kDetector,
                        static_cast<std::uint8_t>(DetectorOp::kProbeSent),
                        100002,
                        2,
                        1001,
                        1002,
                        42,
                        1,
                        "x"};
  EXPECT_EQ(obs::toJsonLine(full),
            R"({"t":1234,"kind":"detector","op":"probe-sent","node":100002,)"
            R"("cluster":2,"a":1001,"b":1002,"session":42,"value":1,)"
            R"("detail":"x"})");

  // Zero-valued generic slots and empty details are omitted.
  EXPECT_EQ(obs::toJsonLine(TraceEvent{0, EventKind::kFrameRx}),
            R"({"t":0,"kind":"frame-rx"})");

  // Drop events name their cause as the op.
  const TraceEvent drop{5, EventKind::kFrameDrop,
                        static_cast<std::uint8_t>(DropCause::kJam), 3};
  EXPECT_EQ(obs::toJsonLine(drop),
            R"({"t":5,"kind":"frame-drop","op":"jam","node":3})");
}

TEST(TraceIoTest, JsonLineRoundTripsExactly) {
  const std::vector<TraceEvent> events{
      TraceEvent{0, EventKind::kFrameTx, 0, 1, 0, 1000, 99, 0, 56, "jreq"},
      TraceEvent{7, EventKind::kFrameDrop,
                 static_cast<std::uint8_t>(DropCause::kBurstLoss), 4},
      TraceEvent{9, EventKind::kVerifier,
                 static_cast<std::uint8_t>(VerifierOp::kSuspected), 1, 0,
                 1001},
      TraceEvent{11, EventKind::kDetector,
                 static_cast<std::uint8_t>(DetectorOp::kVerdict), 100002, 2,
                 1001, 1002, 42, 2, "cooperative-black-hole"},
  };
  for (const TraceEvent& event : events) {
    const auto parsed = obs::parseJsonLine(obs::toJsonLine(event));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, event);
  }
}

TEST(TraceIoTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(obs::parseJsonLine("{}").has_value());  // missing t/kind
  EXPECT_FALSE(obs::parseJsonLine(R"({"t":1,"kind":"nope"})").has_value());
  EXPECT_FALSE(
      obs::parseJsonLine(R"({"t":1,"kind":"detector","op":"nope"})")
          .has_value());
}

TEST(TraceIoTest, JsonlStreamRoundTripAndErrorLineNumber) {
  const std::vector<TraceEvent> events{
      TraceEvent{1, EventKind::kFrameTx, 0, 1},
      TraceEvent{2, EventKind::kFrameRx, 0, 2},
  };
  std::stringstream stream;
  obs::writeJsonl(events, stream);
  EXPECT_EQ(obs::readJsonl(stream), events);

  std::stringstream bad{"{\"t\":1,\"kind\":\"frame-tx\"}\n\ngarbage\n"};
  try {
    (void)obs::readJsonl(bad);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
  }
}

TEST(TraceIoTest, KindAndOpReverseLookups) {
  EXPECT_EQ(obs::kindFromString("detector"), EventKind::kDetector);
  EXPECT_EQ(obs::kindFromString("ch-table"), EventKind::kChTable);
  EXPECT_FALSE(obs::kindFromString("bogus").has_value());
  EXPECT_EQ(obs::opFromName(EventKind::kDetector, "probe-sent"),
            static_cast<std::uint8_t>(DetectorOp::kProbeSent));
  EXPECT_EQ(obs::opFromName(EventKind::kFrameDrop, "jam"),
            static_cast<std::uint8_t>(DropCause::kJam));
  EXPECT_FALSE(obs::opFromName(EventKind::kDetector, "bogus").has_value());
}

TEST(TraceIoTest, ChromeTraceGolden) {
  const std::vector<TraceEvent> events{
      TraceEvent{10, EventKind::kDetector,
                 static_cast<std::uint8_t>(DetectorOp::kProbeSent), 7, 2,
                 1001},
  };
  std::stringstream stream;
  obs::writeChromeTrace(events, stream);
  EXPECT_EQ(stream.str(),
            "[\n"
            R"({"name":"detector/probe-sent","cat":"detector","ph":"i",)"
            R"("s":"t","pid":0,"tid":7,"ts":10,"args":{"cluster":2,)"
            R"("a":1001}})"
            "\n]\n");
}

// ------------------------------------------------------------------ report

std::vector<TraceEvent> syntheticDetectionTrace() {
  const auto op = [](auto o) { return static_cast<std::uint8_t>(o); };
  // Reporter 1000 suspects 1001; CH 100002 probes and confirms.
  return {
      TraceEvent{100, EventKind::kVerifier, op(VerifierOp::kSuspected), 1, 0,
                 1001},
      TraceEvent{100, EventKind::kVerifier, op(VerifierOp::kDreqSent), 1, 0,
                 1001},
      TraceEvent{150, EventKind::kFrameDrop, op(DropCause::kJam), 4},
      TraceEvent{200, EventKind::kDetector, op(DetectorOp::kDreqReceived),
                 100002, 2, 1001, 1000, 42},
      TraceEvent{200, EventKind::kDetector, op(DetectorOp::kSessionOpened),
                 100002, 2, 1001, 1000, 42},
      TraceEvent{300, EventKind::kDetector, op(DetectorOp::kProbeSent),
                 100002, 2, 1001, 1001, 42, 0},
      TraceEvent{400, EventKind::kDetector, op(DetectorOp::kProbeReply),
                 100002, 2, 1001, 1001, 42, 0},
      TraceEvent{500, EventKind::kDetector, op(DetectorOp::kVerdict), 100002,
                 2, 1001, 0, 42, 1, "single-black-hole"},
      TraceEvent{500, EventKind::kDetector, op(DetectorOp::kIsolated), 100002,
                 2, 1001, 0, 42},
  };
}

TEST(ReportTest, ReconstructsFullSessionTimeline) {
  const obs::TraceReport report = obs::buildReport(syntheticDetectionTrace());
  EXPECT_EQ(report.eventCount, 9u);
  EXPECT_EQ(report.firstUs, 100);
  EXPECT_EQ(report.lastUs, 500);
  EXPECT_EQ(report.dropsByCause.at("jam"), 1u);
  EXPECT_EQ(report.eventsByKind.at("detector"), 6u);

  ASSERT_EQ(report.sessions.size(), 1u);
  const obs::SessionTimeline& session = report.sessions[0];
  EXPECT_EQ(session.session, 42u);
  EXPECT_EQ(session.suspect, 1001u);
  EXPECT_EQ(session.reporter, 1000u);
  EXPECT_EQ(session.verdict, "single-black-hole");
  EXPECT_EQ(session.suspectedAtUs, 100);
  EXPECT_EQ(session.dreqAtUs, 100);
  EXPECT_EQ(session.probeAtUs, 300);
  EXPECT_EQ(session.verdictAtUs, 500);
  EXPECT_EQ(session.isolatedAtUs, 500);
  EXPECT_TRUE(session.complete());
  // Verifier prologue + 6 detector events, time-ordered.
  ASSERT_EQ(session.entries.size(), 8u);
  EXPECT_LE(session.entries.front().atUs, session.entries.back().atUs);
}

TEST(ReportTest, IncompleteSessionIsNotComplete) {
  auto events = syntheticDetectionTrace();
  events.resize(5);  // stop after session-opened: no probe, no verdict
  const obs::TraceReport report = obs::buildReport(events);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_FALSE(report.sessions[0].complete());
  EXPECT_EQ(report.sessions[0].probeAtUs, -1);
}

TEST(ReportTest, AccusationDefenseEventsAreTalliedAndPrinted) {
  const auto op = [](auto o) { return static_cast<std::uint8_t>(o); };
  // A forged accusation against honest 1001: rate-limit + replay rejections
  // (pre-session, session id 0), then a session that exonerates the suspect,
  // demerits reporter 1000, and quarantines it as a liar.
  const std::vector<TraceEvent> events{
      TraceEvent{50, EventKind::kDetector, op(DetectorOp::kDreqRateLimited),
                 100002, 2, 1001, 1000, 0},
      TraceEvent{60, EventKind::kDetector, op(DetectorOp::kDreqReplayed),
                 100002, 2, 1001, 1000, 0},
      TraceEvent{100, EventKind::kDetector, op(DetectorOp::kSessionOpened),
                 100002, 2, 1001, 1000, 42},
      TraceEvent{200, EventKind::kDetector, op(DetectorOp::kProbeSent), 100002,
                 2, 1001, 1001, 42, 0},
      TraceEvent{400, EventKind::kDetector, op(DetectorOp::kExonerated),
                 100002, 2, 1001, 1000, 42},
      TraceEvent{400, EventKind::kDetector, op(DetectorOp::kReporterDemerited),
                 100002, 2, 1001, 1000, 42},
      TraceEvent{400, EventKind::kDetector,
                 op(DetectorOp::kReporterQuarantined), 100002, 2, 1001, 1000,
                 42},
  };
  const obs::TraceReport report = obs::buildReport(events);
  EXPECT_TRUE(report.accusationDefense.any());
  EXPECT_EQ(report.accusationDefense.rateLimited, 1u);
  EXPECT_EQ(report.accusationDefense.replayed, 1u);
  EXPECT_EQ(report.accusationDefense.exonerations, 1u);
  EXPECT_EQ(report.accusationDefense.demerits, 1u);
  EXPECT_EQ(report.accusationDefense.reportersQuarantined, 1u);

  ASSERT_EQ(report.sessions.size(), 1u);
  const obs::SessionTimeline& session = report.sessions[0];
  EXPECT_EQ(session.exoneratedAtUs, 400);
  EXPECT_EQ(session.reporterDemerits, 1u);
  ASSERT_EQ(session.quarantinedReporters.size(), 1u);
  EXPECT_EQ(session.quarantinedReporters[0], 1000u);

  std::stringstream out;
  obs::printReport(report, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("accusation defense:"), std::string::npos);
  EXPECT_NE(text.find("d_req rate-limited: 1"), std::string::npos);
  EXPECT_NE(text.find("suspect exonerated at"), std::string::npos);
  EXPECT_NE(text.find("quarantined liar(s): 1000"), std::string::npos);
  EXPECT_NE(text.find("reporter=1000"), std::string::npos);
}

TEST(ReportTest, CleanTraceHasNoAccusationDefenseBlock) {
  const obs::TraceReport report = obs::buildReport(syntheticDetectionTrace());
  EXPECT_FALSE(report.accusationDefense.any());
  std::stringstream out;
  obs::printReport(report, out);
  EXPECT_EQ(out.str().find("accusation defense:"), std::string::npos);
}

TEST(ReportTest, PrintedReportNamesTheStages) {
  std::stringstream out;
  obs::printReport(obs::buildReport(syntheticDetectionTrace()), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("suspicion->d_req"), std::string::npos);
  EXPECT_NE(text.find("d_req->probe"), std::string::npos);
  EXPECT_NE(text.find("probe->verdict"), std::string::npos);
  EXPECT_NE(text.find("single-black-hole"), std::string::npos);
  EXPECT_NE(text.find("[complete]"), std::string::npos);
}

}  // namespace
