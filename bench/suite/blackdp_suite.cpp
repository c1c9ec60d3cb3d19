// blackdp_suite: the repository benchmark binary, driven by
// bench/suite/run.py.
//
//   blackdp_suite --workload NAME --seed S --seconds T [--trace DIR] [--tiny]
//
// Every workload is a closed loop of STEPS — a packet burst, a campaign
// trial or an epoch — each issued only after the previous one returned.
// Steps come in CYCLES of a fixed mix of work (one burst on each highway,
// one rep of every Fig. 4 treatment, one corridor world, one stream
// checkpoint interval), and a run is a whole number of cycles: at least
// minCycles, and until the timed parts of the steps add up to T seconds.
//
// Set-up runs three times before the loop and again every cyclesPerSetup
// cycles inside it, so its samples are spread over the run. Every set-up is
// timed. A CoreProbe samples the speed of the driver thread's core for the
// whole run, and every cycle and set-up records its mean kernel time next
// to its own; run.py reports medians of the times scaled to a quiet core
// (README: "Core-speed normalisation").
//
// The digests of the first minCycles cycles form the run's surface_hash: a
// pure function of (workload, seed), so a change that only makes the
// program faster must leave it identical.
//
// With --trace the loop runs for T/2, then a fresh set-up replays exactly the
// same steps with the benchmark's spans on and a counting obs::TraceRecorder
// installed on this thread. The replay must reproduce every step digest; the
// cycle-by-cycle ratio of core-speed-scaled times is obs.trace_overhead_pct,
// and the spans and counters give the per-layer metrics. Spans go to
// DIR/<workload>.spans.jsonl.
//
// The binary prints one JSON object with the raw measurements; run.py turns
// them into the named metrics. It drives the system only through public
// functions of src/ layers.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "codec/checkpoint.hpp"
#include "common/alloc_hook.hpp"
#include "core/messages.hpp"
#include "core/telemetry.hpp"
#include "crypto/keys.hpp"
#include "harness.hpp"
#include "net/medium.hpp"
#include "net/payload_arena.hpp"
#include "obs/json.hpp"
#include "scenario/corridor_world.hpp"
#include "scenario/highway_scenario.hpp"
#include "scenario/stream_world.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;
using suite::CoreProbe;
using suite::Fnv;
using suite::median;
using suite::ratio;
using suite::Stopwatch;
using suite::Tracer;

/// What one closed-loop step produced.
struct StepOut {
  double seconds{0.0};           ///< the timed part
  std::uint64_t allocations{0};  ///< heap allocations inside the timed part
  std::uint64_t frames{0};       ///< medium deliveries
  std::uint64_t digest{0};       ///< deterministic outputs of the step
  bool ok{true};                 ///< the step's own success criterion
};

/// Named results a workload hands back (checks and per-layer values).
struct Results {
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::string> notes;

  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  void set(std::string name, double value) {
    layer.emplace_back(std::move(name), value);
  }
};

/// How a workload's steps group into cycles.
struct Shape {
  std::uint64_t cycleSteps;      ///< steps in one cycle
  std::uint64_t cyclesPerSetup;  ///< cycles between set-ups
  std::uint64_t minCycles;       ///< cycles every run makes
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual Shape shape() const = 0;
  /// Drops the previous set-up's state (untimed).
  virtual void teardown() = 0;
  /// Builds everything the cycles of set-up `generation` need: cycles
  /// generation × cyclesPerSetup onwards (timed: one setup_s sample). Inputs
  /// that vary between generations are a function of (seed, generation), so
  /// a replay rebuilds the same ones.
  virtual void setup(std::uint64_t generation, Tracer& tr) = 0;
  /// Step `i` of the run; cycle i / cycleSteps.
  virtual StepOut step(std::uint64_t i, Tracer& tr) = 0;
  /// After the untraced loop: write-path legs and correctness checks.
  virtual void verify(const std::vector<StepOut>& steps, Results& out) = 0;
  /// After the traced replay: per-layer metrics.
  virtual void layer(const Tracer& tr, std::uint64_t steps, Results& out) = 0;
};

// ------------------------------------------------------------- side costs

/// crypto.sign_us / crypto.verify_us on d_req-sized messages.
void measureCrypto(std::uint64_t seed, Results& out) {
  crypto::CryptoEngine engine{seed};
  const crypto::KeyPair keys = engine.generateKeyPair();
  constexpr std::size_t kMessages = 2000;
  std::vector<common::Bytes> messages;
  messages.reserve(kMessages);
  for (std::size_t i = 0; i < kMessages; ++i) {
    core::DetectionRequest dreq;
    dreq.reporter = common::Address{0x1000 + i};
    dreq.reporterCluster = common::ClusterId{1};
    dreq.suspect = common::Address{0x2000 + i};
    dreq.suspectCluster = common::ClusterId{2};
    dreq.nonce = seed + i;
    messages.push_back(dreq.canonicalBytes());
  }
  std::vector<crypto::Signature> sigs(kMessages);
  std::vector<double> signUs;
  std::vector<double> verifyUs;
  bool allValid = true;
  for (int round = 0; round < 3; ++round) {
    const Stopwatch sign;
    for (std::size_t i = 0; i < kMessages; ++i) {
      sigs[i] = engine.sign(keys.priv, messages[i]);
    }
    signUs.push_back(sign.seconds() * 1e6 / kMessages);
    const Stopwatch verify;
    for (std::size_t i = 0; i < kMessages; ++i) {
      allValid = engine.verify(keys.pub, messages[i], sigs[i]) && allValid;
    }
    verifyUs.push_back(verify.seconds() * 1e6 / kMessages);
  }
  out.check("crypto_side_signatures_verify", allValid);
  out.set("crypto.sign_us", median(signUs));
  out.set("crypto.verify_us", median(verifyUs));
}

class PlacedRadio final : public net::Radio {
 public:
  explicit PlacedRadio(mobility::Position position) : position_{position} {}
  [[nodiscard]] mobility::Position radioPosition() const override {
    return position_;
  }
  void onFrame(const net::Frame& frame) override { (void)frame; }

 private:
  mobility::Position position_;
};

/// net.deliver_ns and net.grid_rebuild_us (with `suffix` appended) on a
/// benchmark-owned medium whose radios sit where the corridor's vehicles are
/// at epoch 6, restricted to the first `segments` segments (all 100 = one
/// shard's 10k radios, 25 = one of four shards).
void measureMedium(const scenario::CorridorConfig& config,
                   std::uint32_t segments, std::string_view suffix,
                   Results& out) {
  sim::Simulator simulator;
  net::MediumConfig mediumConfig;
  mediumConfig.maxJitter = sim::Duration::microseconds(0);
  net::WirelessMedium medium{simulator, sim::Rng{config.seed}, mediumConfig};

  std::vector<std::unique_ptr<PlacedRadio>> radios;
  const double lengthM = config.segments * scenario::kSegmentLengthM;
  for (std::uint32_t id = 0; id < config.vehicles; ++id) {
    const double x = scenario::vehicleX(scenario::vehicleSpec(config, id),
                                        6 * scenario::kEpochUs);
    if (x < 0.0 || x >= lengthM) continue;
    const auto segment =
        static_cast<std::uint32_t>(x / scenario::kSegmentLengthM);
    if (segment >= segments) continue;
    radios.push_back(std::make_unique<PlacedRadio>(mobility::Position{
        x, static_cast<double>(segment) * scenario::kSegmentYSpacingM}));
  }
  medium.reserve(radios.size(), radios.size());
  const auto nodeId = [](std::size_t k) {
    return common::NodeId{static_cast<std::uint32_t>(k + 1)};
  };
  for (std::size_t k = 0; k < radios.size(); ++k) {
    medium.attach(nodeId(k), *radios[k]);
  }
  const auto send = [&](std::size_t k) {
    net::Frame frame;
    frame.src = common::Address{scenario::kVehicleAddressBase + k};
    frame.dst = common::kBroadcastAddress;
    frame.payload = net::makePayload<scenario::CorridorBeacon>();
    medium.send(nodeId(k), std::move(frame));
  };
  send(0);
  simulator.run();

  std::vector<double> rebuild;
  std::vector<double> plain;
  for (std::size_t r = 0; r < 15; ++r) {
    const std::size_t sender = (r * 7919) % radios.size();
    medium.invalidateGrid();
    const Stopwatch withRebuild;
    send(sender);
    rebuild.push_back(withRebuild.seconds());
    simulator.run();
    const Stopwatch without;
    send(sender);
    plain.push_back(without.seconds());
    simulator.run();
  }

  constexpr std::size_t kSends = 400;
  const std::uint64_t delivered0 = medium.stats().framesDelivered;
  const Stopwatch deliver;
  for (std::size_t s = 0; s < kSends; ++s) {
    send((s * 104729) % radios.size());
    simulator.run();
  }
  const double seconds = deliver.seconds();
  const std::uint64_t delivered = medium.stats().framesDelivered - delivered0;
  out.set(std::string{"net.deliver_ns"}.append(suffix),
          ratio(seconds * 1e9, static_cast<double>(delivered)));
  out.set(std::string{"net.grid_rebuild_us"}.append(suffix),
          (median(rebuild) - median(plain)) * 1e6);
}

/// codec.* from a workload's checkpoint leg: its save and restore times,
/// plus decodeCheckpoint and crc32 timed on its last checkpoint.
void codecMetrics(const std::vector<double>& saveMs,
                  const std::vector<double>& restoreMs,
                  const common::Bytes& blob, Results& out) {
  std::vector<double> decodeMs;
  bool decoded = true;
  for (int k = 0; k < 5; ++k) {
    const Stopwatch sw;
    decoded = codec::decodeCheckpoint(blob).ok() && decoded;
    decodeMs.push_back(sw.seconds() * 1e3);
  }
  out.check("checkpoint_decodes", decoded);

  std::uint32_t crc = 0;
  std::size_t bytes = 0;
  const Stopwatch sw;
  while (!blob.empty() && bytes < (64u << 20)) {
    crc ^= codec::crc32(blob);
    bytes += blob.size();
  }
  const double crcSeconds = sw.seconds();
  (void)crc;

  out.set("codec.checkpoint_save_ms", median(saveMs));
  out.set("codec.checkpoint_restore_ms", median(restoreMs));
  out.set("codec.checkpoint_bytes", static_cast<double>(blob.size()));
  out.set("codec.checkpoint_decode_ms", median(decodeMs));
  out.set("codec.restore_apply_ms", median(restoreMs) - median(decodeMs));
  out.set("codec.crc_mb_per_s",
          ratio(static_cast<double>(bytes) / 1e6, crcSeconds));
}

// -------------------------------------------------------- highway_dataplane

/// Self-rescheduling sender: one pending send event at a time, so the queue
/// stays at its steady-state size during the burst.
struct BurstDriver {
  sim::Simulator& simulator;
  aodv::AodvAgent& source;
  common::Address destination;
  sim::Duration gap;
  std::vector<double>* heapSamples{nullptr};
  std::uint32_t remaining{0};

  std::size_t run(std::uint32_t count) {
    remaining = count;
    tick();
    return simulator.run(simulator.now() +
                         gap * static_cast<std::int64_t>(count) +
                         sim::Duration::milliseconds(50));
  }

  void tick() {
    if (remaining == 0) return;
    --remaining;
    if (heapSamples != nullptr) {
      heapSamples->push_back(static_cast<double>(simulator.pendingEvents()));
    }
    source.sendData(destination);
    simulator.schedule(gap, [this] { tick(); });
  }
};

/// Eight benign, stationary Table-I highways; a cycle is one burst on each,
/// and every 80 cycles (about 2 s) a set-up builds the next eight, each from
/// its own seed. Route lengths, and so frames per burst, differ from highway
/// to highway; a run averages over all of its set-ups' highways rather than
/// resting on the eight of one seed.
class HighwayDataplane final : public Workload {
 public:
  HighwayDataplane(std::uint64_t seed, bool tiny)
      : seed_{seed},
        worlds_{tiny ? 1u : 8u},
        burst_{tiny ? 50u : 250u},
        warmup_{tiny ? 200u : 2000u} {}

  [[nodiscard]] Shape shape() const override { return {worlds_, 80, 2}; }

  void teardown() override { scenarios_.clear(); }

  void setup(std::uint64_t generation, Tracer& tr) override {
    for (std::uint32_t w = 0; w < worlds_; ++w) {
      scenario::ScenarioConfig config;
      config.seed = sim::deriveTrialSeed(seed_, generation * worlds_ + w);
      config.attack = scenario::AttackType::kNone;
      // Stationary: no re-joins or route breaks inside the measured bursts.
      config.minSpeedKmh = 0.0;
      config.maxSpeedKmh = 0.0;
      // Route lifetimes are fixed at discovery and not refreshed by data;
      // without this the route lapses ~10 s of sim time into the loop.
      config.aodv.activeRouteTimeout = sim::Duration::seconds(3600);
      std::unique_ptr<scenario::HighwayScenario> world;
      {
        const auto span = tr.span("scenario.build", w);
        world = std::make_unique<scenario::HighwayScenario>(config);
      }
      {
        const auto span = tr.span("sim.run", w);
        world->runFor(sim::Duration::milliseconds(500));  // cluster joins
      }
      bool routed = false;
      {
        const auto span = tr.span("aodv.findRoute", w);
        world->source().agent->findRoute(world->destination().address(),
                                         [&](bool ok) { routed = ok; });
        world->runFor(sim::Duration::seconds(2));
      }
      if (!routed) {
        throw std::runtime_error("highway route discovery failed for seed " +
                                 std::to_string(config.seed));
      }
      const auto span = tr.span("warmup", w);
      driver(*world, nullptr).run(warmup_);
      scenarios_.push_back(std::move(world));
    }
  }

  StepOut step(std::uint64_t i, Tracer& tr) override {
    scenario::HighwayScenario& world = *scenarios_[i % worlds_];
    const net::MediumStats before = world.medium().stats();
    const std::uint64_t delivered0 =
        world.destination().agent->stats().dataDelivered;
    const std::uint64_t forwards0 = tr.on() ? forwards(world) : 0;

    BurstDriver burst = driver(world, tr.on() ? &traced_.heapSamples : nullptr);
    StepOut out;
    std::size_t events = 0;
    {
      const auto span = tr.span("sim.run", i);
      const Stopwatch sw;
      events = burst.run(burst_);
      out.seconds = sw.seconds();
      out.allocations = sw.allocations();
    }
    const net::MediumStats& after = world.medium().stats();
    const std::uint64_t delivered =
        world.destination().agent->stats().dataDelivered - delivered0;
    out.frames = after.framesDelivered - before.framesDelivered;
    out.ok = delivered == burst_;
    Fnv fnv;
    fnv.u64(delivered);
    fnv.u64(out.frames);
    fnv.u64(after.framesSent - before.framesSent);
    out.digest = fnv.h;

    if (tr.on()) {
      traced_.events += events;
      traced_.runNs += out.seconds * 1e9;
      traced_.frames += out.frames;
      traced_.framesSent += after.framesSent - before.framesSent;
      traced_.gridRebuilds += after.gridRebuilds - before.gridRebuilds;
      traced_.packets += burst_;
      traced_.forwards += forwards(world) - forwards0;
    }
    return out;
  }

  void verify(const std::vector<StepOut>& steps, Results& out) override {
    std::uint64_t allocations = 0;
    bool delivered = true;
    for (const StepOut& s : steps) {
      allocations += s.allocations;
      delivered = delivered && s.ok;
    }
    out.check("every_packet_delivered", delivered);
    out.check("zero_allocations_per_frame",
              common::allocHookActive() && allocations == 0);
  }

  void layer(const Tracer& tr, std::uint64_t steps, Results& out) override {
    out.set("sim.run_ns_per_event",
            ratio(traced_.runNs, static_cast<double>(traced_.events)));
    out.set("sim.heap_depth_p50", median(traced_.heapSamples));
    out.set("sim.events_per_frame", ratio(traced_.events, traced_.frames));
    out.set("net.fanout", ratio(traced_.frames, traced_.framesSent));
    out.set("net.grid_rebuilds_per_step", ratio(traced_.gridRebuilds, steps));
    out.set("aodv.forwards_per_packet",
            ratio(traced_.forwards, traced_.packets));
    out.set("scenario.build_ms", median(tr.durationsMs("scenario.build")));
  }

 private:
  [[nodiscard]] BurstDriver driver(scenario::HighwayScenario& world,
                                   std::vector<double>* heapSamples) {
    return BurstDriver{world.simulator(), *world.source().agent,
                       world.destination().address(),
                       sim::Duration::microseconds(100), heapSamples};
  }

  [[nodiscard]] static std::uint64_t forwards(
      scenario::HighwayScenario& world) {
    std::uint64_t total = 0;
    for (const auto& vehicle : world.vehicles()) {
      total += vehicle->agent->stats().dataForwarded;
    }
    return total;
  }

  struct Traced {
    std::uint64_t events{0};
    double runNs{0.0};
    std::uint64_t frames{0};
    std::uint64_t framesSent{0};
    std::uint64_t gridRebuilds{0};
    std::uint64_t packets{0};
    std::uint64_t forwards{0};
    std::vector<double> heapSamples;
  };

  std::uint64_t seed_;
  std::uint32_t worlds_;
  std::uint32_t burst_;
  std::uint32_t warmup_;
  std::vector<std::unique_ptr<scenario::HighwayScenario>> scenarios_;
  Traced traced_;
};

// --------------------------------------------------------------- paper_fig4

/// The built-in Fig. 4 campaign (attack type x attacker cluster 1-10, 150
/// reps) with the run seed as campaign seed. A cycle is one rep of all 20
/// treatments, so every cycle is the same mix; every 20 cycles the spec is
/// parsed and expanded again (the set-up). Every run makes the whole 150-rep
/// pass, which is what detection accuracy is graded on; longer runs repeat
/// the pass from rep 0.
class PaperFig4 final : public Workload {
 public:
  PaperFig4(std::uint64_t seed, bool tiny)
      : seed_{seed}, reps_{tiny ? 2u : 150u} {}

  [[nodiscard]] Shape shape() const override {
    return {kTreatments, 20, reps_};
  }

  void teardown() override {}

  void setup(std::uint64_t generation, Tracer& tr) override {
    (void)generation;  // trial seeds already differ by rep
    const auto span = tr.span("campaign.expand", 0);
    std::optional<campaign::CampaignSpec> spec =
        campaign::parseCampaignSpec(campaign::findBuiltinSpec("fig4")->json);
    if (!spec) throw std::runtime_error("builtin fig4 spec does not parse");
    spec->seed = seed_;
    spec->trials = reps_;
    std::string error;
    auto treatments = campaign::expandTreatments(*spec, &error);
    if (!treatments) throw std::runtime_error("fig4 expansion: " + error);
    if (treatments->size() != kTreatments) {
      throw std::runtime_error("fig4 expands to " +
                               std::to_string(treatments->size()) +
                               " treatments");
    }
    spec_ = std::move(*spec);
    treatments_ = std::move(*treatments);
    // Warm-up: one trial per treatment fills the payload arena and every
    // lazily grown table before the first timed trial.
    for (const campaign::Treatment& treatment : treatments_) {
      (void)campaign::runTrial(spec_, treatment, 0);
    }
  }

  StepOut step(std::uint64_t i, Tracer& tr) override {
    const campaign::Treatment& treatment = treatments_[i % kTreatments];
    const auto rep = static_cast<std::uint32_t>((i / kTreatments) % reps_);
    const bool firstPass = i < kTreatments * reps_;
    StepOut out;
    campaign::TrialRecord record;
    try {
      if (tr.on()) {
        record = tracedTrial(treatment, rep, tr, i, out);
      } else {
        const Stopwatch sw;
        record = campaign::runTrial(spec_, treatment, rep);
        out.seconds = sw.seconds();
        out.allocations = sw.allocations();
      }
    } catch (const std::exception& e) {
      out.ok = false;
      if (firstPass) {
        grade_.errors.push_back("trial " + std::to_string(i) + ": " +
                                e.what());
      }
      return out;
    }
    out.frames = record.framesDelivered;
    Fnv fnv;
    fnv.u64(record.attackLaunched);
    fnv.u64(record.confirmedOnAttacker);
    fnv.u64(record.falsePositive);
    fnv.u64(record.detectionPackets);
    fnv.str(record.verdict);
    fnv.u64(record.framesDelivered);
    out.digest = fnv.h;
    if (firstPass && !tr.on()) grade(treatment, rep, record);
    return out;
  }

  void verify(const std::vector<StepOut>& steps, Results& out) override {
    (void)steps;
    out.check("no_trial_errors", grade_.errors.empty());
    out.check("false_positive_rate_zero", grade_.falsePositives == 0);
    // The paper's 100% accuracy in clusters 1-7 has one known miss at 150
    // reps under the built-in campaign seed (README: "Known miss"); allow
    // 1% so the miss is reported, not hidden and not fatal.
    out.check("clusters_1_7_detected",
              grade_.misses.size() * 100 <= grade_.paperTrials);
    for (const std::string& miss : grade_.misses) {
      out.notes.push_back("fig4 miss: " + miss);
    }
    for (const std::string& error : grade_.errors) out.notes.push_back(error);
    out.set("core.detection_rate", ratio(grade_.detected, grade_.launched));
    out.set("core.false_positive_rate",
            ratio(grade_.falsePositives, grade_.trials));
  }

  void layer(const Tracer& tr, std::uint64_t steps, Results& out) override {
    out.set("scenario.build_ms", median(tr.durationsMs("scenario.build")));
    out.set("core.verify_ms", median(tr.durationsMs("core.verify")));
    out.set("core.discovery_rounds_per_trial",
            ratio(traced_.discoveryRounds, steps));
    out.set("core.detection_packets_p50", median(traced_.detectionPackets));
    out.set("aodv.rreq_per_trial", ratio(traced_.rreqs, steps));
    out.set("sim.run_ns_per_event",
            ratio(traced_.verifyNs, static_cast<double>(traced_.verifyEvents)));
    out.set("sim.events_per_frame", ratio(traced_.events, traced_.frames));
    out.set("sim.heap_depth_p50", median(traced_.heapSamples));
    out.set("net.fanout", ratio(traced_.frames, traced_.framesSent));
    out.set("net.grid_rebuilds_per_step", ratio(traced_.gridRebuilds, steps));
    measureCrypto(seed_, out);
  }

 private:
  static constexpr std::uint64_t kTreatments = 20;

  /// Accuracy over the first 150-rep pass, from the untraced loop.
  void grade(const campaign::Treatment& treatment, std::uint32_t rep,
             const campaign::TrialRecord& record) {
    ++grade_.trials;
    if (record.attackLaunched) ++grade_.launched;
    if (record.attackLaunched && record.confirmedOnAttacker) ++grade_.detected;
    if (record.falsePositive) ++grade_.falsePositives;
    if (treatment.config.scenario.attackerCluster->value() > 7) return;
    ++grade_.paperTrials;
    if (record.confirmedOnAttacker) return;
    const std::uint64_t id = campaign::trialId(spec_, treatment.index, rep);
    grade_.misses.push_back("trial " + std::to_string(id) + " (" +
                            treatment.label + ", rep " + std::to_string(rep) +
                            ", seed " + std::to_string(record.seed) +
                            ") ended " + record.verdict);
  }

  /// campaign::runTrial's detection path, spelled out through the public
  /// HighwayScenario calls so each layer gets its own span. The timed part
  /// (`out`) covers what runTrial does; reading the layer counters for the
  /// per-layer metrics sits between its two halves, untimed.
  campaign::TrialRecord tracedTrial(const campaign::Treatment& treatment,
                                    std::uint32_t rep, Tracer& tr,
                                    std::uint64_t i, StepOut& out) {
    campaign::TrialRecord record;
    std::unique_ptr<scenario::HighwayScenario> world;
    core::VerificationReport report;
    scenario::DetectionSummary summary;
    std::size_t pendingAfterBuild = 0;
    std::size_t verifyEvents = 0;
    {
      const Stopwatch sw;
      record.seed = campaign::trialSeed(spec_, treatment, rep);
      scenario::ScenarioConfig config = treatment.config.scenario;
      config.seed = record.seed;
      {
        const auto span = tr.span("scenario.build", i);
        world = std::make_unique<scenario::HighwayScenario>(config);
      }
      pendingAfterBuild = world->simulator().pendingEvents();
      const std::size_t events0 = world->simulator().executedEvents();
      {
        const auto span = tr.span("core.verify", i);
        const Stopwatch verify;
        report = world->runVerification(
            static_cast<int>(treatment.config.verifyRounds));
        traced_.verifyNs += verify.seconds() * 1e9;
      }
      verifyEvents = world->simulator().executedEvents() - events0;
      {
        const auto span = tr.span("scenario.grade", i);
        summary = world->detectionSummary();
      }
      const scenario::VehicleEntity* attacker = world->primaryAttacker();
      record.attackLaunched =
          attacker != nullptr && attacker->attacker != nullptr &&
          attacker->attacker->attackStats().rrepsForged > 0;
      record.confirmedOnAttacker = summary.confirmedOnAttacker;
      record.falsePositive = summary.falsePositive;
      record.detectionPackets = summary.packetsUsed;
      record.verdict = std::string{core::toString(summary.verdict)};
      record.framesDelivered = world->medium().stats().framesDelivered;
      {
        const auto span = tr.span("core.telemetry", i);
        obs::MetricsRegistry local;
        core::recordVerifierTelemetry(local, report);
        for (const core::SessionRecord& session : summary.sessions) {
          core::recordSessionTelemetry(local, session);
        }
        record.telemetry = local.snapshot();
      }
      out.seconds = sw.seconds();
      out.allocations = sw.allocations();
    }

    traced_.verifyEvents += verifyEvents;
    traced_.heapSamples.push_back(static_cast<double>(pendingAfterBuild));
    traced_.events += world->simulator().executedEvents();
    traced_.frames += world->medium().stats().framesDelivered;
    traced_.framesSent += world->medium().stats().framesSent;
    traced_.gridRebuilds += world->medium().stats().gridRebuilds;
    traced_.discoveryRounds +=
        static_cast<std::uint64_t>(report.discoveryRounds);
    if (!summary.sessions.empty()) {
      traced_.detectionPackets.push_back(summary.packetsUsed);
    }
    for (const auto& vehicle : world->vehicles()) {
      const aodv::AodvStats& stats = vehicle->agent->stats();
      traced_.rreqs += stats.rreqOriginated + stats.rreqRebroadcast;
    }

    const Stopwatch sw;
    {
      const auto span = tr.span("scenario.teardown", i);
      world.reset();
    }
    out.seconds += sw.seconds();
    out.allocations += sw.allocations();
    return record;
  }

  struct Grade {
    std::uint64_t trials{0};
    std::uint64_t launched{0};
    std::uint64_t detected{0};
    std::uint64_t falsePositives{0};
    std::uint64_t paperTrials{0};  ///< clusters 1-7
    std::vector<std::string> misses;
    std::vector<std::string> errors;
  };
  struct Traced {
    std::uint64_t events{0};
    std::uint64_t verifyEvents{0};
    double verifyNs{0.0};
    std::uint64_t frames{0};
    std::uint64_t framesSent{0};
    std::uint64_t gridRebuilds{0};
    std::uint64_t discoveryRounds{0};
    std::uint64_t rreqs{0};
    std::vector<double> detectionPackets;
    std::vector<double> heapSamples;
  };

  std::uint64_t seed_;
  std::uint32_t reps_;
  campaign::CampaignSpec spec_;
  std::vector<campaign::Treatment> treatments_;
  Grade grade_;
  Traced traced_;
};

// --------------------------------------------------------- corridor_sharded

/// The canonical log line CorridorWorld::canonicalLog() renders, rebuilt
/// from the public per-segment logs of an assembled run.
void appendLogLine(std::string& out, std::uint32_t segment,
                   const scenario::CorridorLogRecord& record) {
  out += "seg=" + std::to_string(segment) +
         " epoch=" + std::to_string(record.epoch) + " ";
  out += scenario::toString(
      static_cast<scenario::CorridorLogKind>(record.kind));
  out += " a=" + std::to_string(record.a) + " b=" + std::to_string(record.b) +
         " v=" + std::to_string(record.value) + "\n";
}

/// Digest of one measured corridor epoch: its index in the world, frames,
/// envelopes and, for the world's last measured epoch, the canonical log
/// (empty otherwise).
std::uint64_t epochDigest(std::uint64_t epoch, std::uint64_t frames,
                          std::uint64_t envelopes, std::string_view log) {
  Fnv fnv;
  fnv.u64(epoch);
  fnv.u64(frames);
  fnv.u64(envelopes);
  fnv.str(log);
  return fnv.h;
}

/// The megacity corridor (100 km, 100 RSUs, 10k vehicles, churn, ~1% black
/// holes) on `shards` shards and a pool of `jobs` workers. A cycle is one
/// world with the run's seed: its set-up builds it and runs the fleet-spawn
/// epoch 0, and its steps are epochs 1-2. Every world repeats the same work.
/// The untraced loop drives the public CorridorWorld; the traced replay
/// assembles the same run from CorridorShard + ShardPlan +
/// ShardedSimulation to read per-shard medium stats, and must reproduce
/// every epoch's frames, envelopes and log. After the loop, the same world
/// on one shard and one worker must give the same epoch digests.
class Corridor final : public Workload {
 public:
  Corridor(std::uint64_t seed, bool tiny, std::uint32_t shards, unsigned jobs)
      : shards_{shards}, jobs_{jobs}, pool_{jobs} {
    config_.seed = seed;
    if (tiny) {
      config_.segments = 8;
      config_.vehicles = 800;
    }
  }

  [[nodiscard]] Shape shape() const override { return {kSteps, 1, 2}; }

  void teardown() override {
    world_.reset();
    assembled_.reset();
  }

  /// Every generation builds the same world: with 10k vehicles, one seed's
  /// world already averages over many draws, and the repeat is checked.
  void setup(std::uint64_t generation, Tracer& tr) override {
    {
      const auto span = tr.span("scenario.build", generation);
      construct(tr.on());
    }
    const auto span = tr.span("corridor.spawnEpoch", generation);
    if (world_) {
      world_->step();
    } else {
      assembled_->sim->runEpoch();
    }
  }

  StepOut step(std::uint64_t i, Tracer& tr) override {
    const std::uint64_t frames0 = framesDelivered();
    const std::uint64_t envelopes0 = stats().envelopesExchanged;
    const std::vector<double> busy0 = stats().busySeconds;
    const std::uint64_t sent0 = tr.on() ? mediumTotals().framesSent : 0;
    const std::uint64_t rebuilds0 = tr.on() ? mediumTotals().gridRebuilds : 0;

    StepOut out;
    {
      const auto span = tr.span("shard.runEpoch", i);
      const Stopwatch sw;
      if (world_) {
        world_->step();
      } else {
        assembled_->sim->runEpoch();
      }
      out.seconds = sw.seconds();
      out.allocations = sw.allocations();
    }
    out.frames = framesDelivered() - frames0;
    const std::uint64_t envelopes = stats().envelopesExchanged - envelopes0;
    std::string log;
    if (i % kSteps + 1 == kSteps) {
      const auto span = tr.span("corridor.canonicalLog", i);
      log = canonicalLog();
    }
    out.digest = epochDigest(i % kSteps, out.frames, envelopes, log);

    if (tr.on()) {
      const net::MediumStats totals = mediumTotals();
      traced_.framesSent += totals.framesSent - sent0;
      traced_.gridRebuilds += totals.gridRebuilds - rebuilds0;
      traced_.frames += out.frames;
      traced_.envelopes += envelopes;
      traced_.stepSeconds += out.seconds;
      double maxBusy = 0.0;
      traced_.busy.resize(busy0.size(), 0.0);
      for (std::size_t s = 0; s < busy0.size(); ++s) {
        const double busy = stats().busySeconds[s] - busy0[s];
        traced_.busy[s] += busy;
        if (busy > maxBusy) maxBusy = busy;
      }
      traced_.coordinatorSeconds += out.seconds - maxBusy;
    }
    return out;
  }

  void verify(const std::vector<StepOut>& steps, Results& out) override {
    bool repeatable = true;
    for (std::size_t i = kSteps; i < steps.size(); ++i) {
      repeatable = repeatable && steps[i].digest == steps[i % kSteps].digest;
    }
    out.check("back_to_back_worlds_identical", repeatable);
    out.check("one_shard_surface_identical", oneShardMatches(steps));
    const shard::ShardStats& s = world_->shardStats();
    out.check("shard_integrity_clean", s.crcRejects == 0 &&
                                           s.epochViolations == 0 &&
                                           s.seqViolations == 0);
    // Every world ends at the same epoch with the same state, so the last
    // one grades them all.
    const Isolation end = gradeIsolation();
    out.check("no_honest_vehicle_isolated", end.falsePositives == 0);
    out.set("core.detection_rate", ratio(end.detected, end.attackers));
    out.set("core.false_positive_rate", ratio(end.falsePositives, end.honest));
    checkpointLeg(out);
  }

  void layer(const Tracer& tr, std::uint64_t steps, Results& out) override {
    out.set("scenario.build_ms", median(tr.durationsMs("scenario.build")));
    const auto epochs = static_cast<double>(steps);
    double busyTotal = 0.0;
    double busyMin = 0.0;
    double busyMax = 0.0;
    for (std::size_t s = 0; s < traced_.busy.size(); ++s) {
      const double busy = traced_.busy[s];
      busyTotal += busy;
      if (s == 0 || busy < busyMin) busyMin = busy;
      if (s == 0 || busy > busyMax) busyMax = busy;
    }
    const auto shardCount = static_cast<double>(traced_.busy.size());
    out.set("sim.pool_utilization",
            ratio(busyTotal, static_cast<double>(jobs_) * traced_.stepSeconds));
    out.set("net.fanout", ratio(traced_.frames, traced_.framesSent));
    out.set("net.grid_rebuilds_per_step", ratio(traced_.gridRebuilds, steps));
    out.set("shard.busy_ms_per_epoch",
            ratio(busyTotal * 1e3, shardCount * epochs));
    out.set("shard.balance", ratio(busyMin, busyMax));
    out.set("shard.coordinator_ms_per_epoch",
            ratio(traced_.coordinatorSeconds * 1e3, epochs));
    out.set("shard.envelopes_per_epoch",
            ratio(static_cast<double>(traced_.envelopes), epochs));
    measureMedium(config_, config_.segments / shards_, "", out);
    measureMedium(config_, config_.segments, "_1shard", out);
    speedups(out);
  }

 private:
  /// Epochs measured per world, after the spawn epoch. Two give a run many
  /// worlds, and so many cycle and set-up samples.
  static constexpr std::uint64_t kSteps = 2;

  struct Assembled {
    shard::ShardPlan plan;
    std::vector<std::unique_ptr<scenario::CorridorShard>> shards;
    std::optional<shard::ShardedSimulation> sim;
  };

  void construct(bool assembled) {
    if (!assembled) {
      world_ =
          std::make_unique<scenario::CorridorWorld>(config_, shards_, pool_);
      return;
    }
    assembled_ = std::make_unique<Assembled>();
    assembled_->plan = shard::ShardPlan::contiguous(config_.segments, shards_);
    std::vector<shard::ShardWorld*> worlds;
    for (std::uint32_t s = 0; s < shards_; ++s) {
      assembled_->shards.push_back(std::make_unique<scenario::CorridorShard>(
          config_, assembled_->plan.firstSegment(s),
          assembled_->plan.segmentCount(s)));
      worlds.push_back(assembled_->shards.back().get());
    }
    assembled_->sim.emplace(assembled_->plan, std::move(worlds), pool_);
  }

  [[nodiscard]] const shard::ShardStats& stats() const {
    return world_ ? world_->shardStats() : assembled_->sim->stats();
  }

  [[nodiscard]] std::uint64_t framesDelivered() const {
    return world_ ? world_->framesDelivered() : mediumTotals().framesDelivered;
  }

  /// Summed per-shard medium stats (assembled run only).
  [[nodiscard]] net::MediumStats mediumTotals() const {
    net::MediumStats total;
    if (!assembled_) return total;
    for (const auto& shard : assembled_->shards) {
      const net::MediumStats s = shard->mediumStats();
      total.framesSent += s.framesSent;
      total.framesDelivered += s.framesDelivered;
      total.gridRebuilds += s.gridRebuilds;
    }
    return total;
  }

  [[nodiscard]] std::string canonicalLog() const {
    if (world_) return world_->canonicalLog();
    std::string out;
    for (std::uint32_t segment = 0; segment < config_.segments; ++segment) {
      const scenario::CorridorShard& shard =
          *assembled_->shards[assembled_->plan.shardOf(segment)];
      for (const scenario::CorridorLogRecord& record :
           shard.segmentLog(segment)) {
        appendLogLine(out, segment, record);
      }
    }
    return out;
  }

  struct Isolation {
    std::uint64_t attackers{0};
    std::uint64_t detected{0};
    std::uint64_t honest{0};
    std::uint64_t falsePositives{0};
  };

  /// Ground truth from vehicleSpec(): the attackers and honest vehicles
  /// that have entered, and how many of each some segment has isolated.
  [[nodiscard]] Isolation gradeIsolation() const {
    std::unordered_set<std::uint64_t> isolated;
    const auto collect = [&](std::uint32_t,
                             const std::vector<common::Address>& list,
                             const core::LiteDetector&) {
      for (const common::Address a : list) isolated.insert(a.value());
    };
    world_->forEachSegment(collect);
    const std::uint32_t epochsRun = world_->nextEpoch();
    Isolation out;
    for (std::uint32_t id = 0; id < config_.vehicles; ++id) {
      const scenario::VehicleSpec spec = scenario::vehicleSpec(config_, id);
      if (spec.entryEpoch >= epochsRun) continue;
      const bool hit = isolated.count(scenario::vehicleAddress(id).value()) > 0;
      if (spec.attacker) {
        ++out.attackers;
        if (hit) ++out.detected;
      } else {
        ++out.honest;
        if (hit) ++out.falsePositives;
      }
    }
    return out;
  }

  /// 5x saveCheckpoint, 5x restoreCheckpoint into fresh worlds; every save
  /// of the same boundary, restored or not, must be byte-identical.
  void checkpointLeg(Results& out) {
    std::vector<double> saveMs;
    std::vector<double> restoreMs;
    common::Bytes blob;
    bool identical = true;
    for (int k = 0; k < 5; ++k) {
      const Stopwatch sw;
      common::Bytes again = world_->saveCheckpoint();
      saveMs.push_back(sw.seconds() * 1e3);
      if (k == 0) blob = again;
      identical = identical && again == blob;
    }
    bool restored = true;
    for (int k = 0; k < 5; ++k) {
      scenario::CorridorWorld fresh{config_, shards_, pool_};
      const Stopwatch sw;
      const common::Status status = fresh.restoreCheckpoint(blob);
      restoreMs.push_back(sw.seconds() * 1e3);
      restored = restored && status.ok();
      identical = identical && status.ok() && fresh.saveCheckpoint() == blob;
    }
    out.check("checkpoint_restores", restored);
    out.check("checkpoint_save_restore_save_identical", identical);
    codecMetrics(saveMs, restoreMs, blob, out);
  }

  /// The shards 1 == N pin: the same world on one shard and one worker
  /// gives the same digest for every measured epoch.
  [[nodiscard]] bool oneShardMatches(const std::vector<StepOut>& steps) const {
    if (steps.size() < kSteps) return false;
    sim::ThreadPool pool{1};
    scenario::CorridorWorld world{config_, 1, pool};
    world.step();  // fleet spawn, as in the workload's set-up
    for (std::uint64_t e = 0; e < kSteps; ++e) {
      const std::uint64_t frames0 = world.framesDelivered();
      const std::uint64_t envelopes0 = world.shardStats().envelopesExchanged;
      world.step();
      const std::string log = e + 1 == kSteps ? world.canonicalLog() : "";
      const std::uint64_t digest = epochDigest(
          e, world.framesDelivered() - frames0,
          world.shardStats().envelopesExchanged - envelopes0, log);
      if (digest != steps[e].digest) return false;
    }
    return true;
  }

  /// shard.speedup_partition (4 shards vs 1, both on one worker) and
  /// shard.speedup_parallel (4 shards on 4 workers vs 1), over the
  /// measured epochs of fresh worlds.
  void speedups(Results& out) const {
    const auto timeEpochs = [&](std::uint32_t shards, unsigned jobs) {
      sim::ThreadPool pool{jobs};
      scenario::CorridorWorld world{config_, shards, pool};
      world.step();  // fleet spawn, as in the workload's set-up
      const Stopwatch sw;
      for (std::uint64_t e = 0; e < kSteps; ++e) world.step();
      return sw.seconds();
    };
    const double mono = timeEpochs(1, 1);
    const double partitioned = timeEpochs(shards_, 1);
    const double parallel = timeEpochs(shards_, jobs_);
    out.set("shard.speedup_partition", ratio(mono, partitioned));
    out.set("shard.speedup_parallel", ratio(partitioned, parallel));
  }

  struct Traced {
    std::uint64_t frames{0};
    std::uint64_t framesSent{0};
    std::uint64_t gridRebuilds{0};
    std::uint64_t envelopes{0};
    double stepSeconds{0.0};
    double coordinatorSeconds{0.0};
    std::vector<double> busy;
  };

  scenario::CorridorConfig config_;
  std::uint32_t shards_;
  unsigned jobs_;
  sim::ThreadPool pool_;
  std::unique_ptr<scenario::CorridorWorld> world_;
  std::unique_ptr<Assembled> assembled_;
  Traced traced_;
};

// ----------------------------------------------------------- stream_service

/// StreamWorld: 10 clusters x 100 d_req per epoch. Set-up builds the world
/// and streams 20 warm-up epochs, which fill the ledgers and tables the
/// service keeps bounded from then on. A cycle is 50 epochs, the last of
/// which also saves a checkpoint (timed as part of that epoch, so the
/// checkpoint epochs are 2% of all epochs); the checkpoint is then restored
/// into a fresh world, which must report equal metrics and save
/// byte-identical bytes, and the live world must hold its invariants. A
/// world serves 12 cycles (600 epochs, a bounded sim-time horizon, so a
/// faster program never outlives the stream's certificates). Each world has
/// its own seed: the planned stream's mix of injections, and so its cost,
/// differs from seed to seed, and a run averages over its worlds.
class StreamService final : public Workload {
 public:
  StreamService(std::uint64_t seed, bool tiny)
      : seed_{seed},
        checkpointEvery_{tiny ? 10u : 50u},
        warmupEpochs_{tiny ? 2u : 20u} {
    config_.clusters = tiny ? 3 : 10;
    config_.dreqsPerEpoch = tiny ? 10 : 100;
  }

  [[nodiscard]] Shape shape() const override {
    return {checkpointEvery_, 12, 2};
  }

  void teardown() override { world_.reset(); }

  void setup(std::uint64_t generation, Tracer& tr) override {
    config_.seed = sim::deriveTrialSeed(seed_, generation);
    {
      const auto span = tr.span("scenario.build", generation);
      world_ = std::make_unique<scenario::StreamWorld>(config_);
    }
    const auto span = tr.span("stream.warmup", generation);
    for (std::uint32_t e = 0; e < warmupEpochs_; ++e) world_->runEpoch();
  }

  StepOut step(std::uint64_t i, Tracer& tr) override {
    const std::uint64_t frames0 = world_->medium().stats().framesDelivered;
    const std::uint64_t sent0 = world_->medium().stats().framesSent;
    const bool checkpoint = (i + 1) % checkpointEvery_ == 0;
    StepOut out;
    common::Bytes blob;
    double saveSeconds = 0.0;
    {
      const Stopwatch sw;
      {
        const auto span = tr.span("stream.runEpoch", i);
        world_->runEpoch();
      }
      if (checkpoint) {
        const auto span = tr.span("codec.save", i);
        const Stopwatch save;
        blob = world_->saveCheckpoint();
        saveSeconds = save.seconds();
      }
      out.seconds = sw.seconds();
      out.allocations = sw.allocations();
    }
    out.frames = world_->medium().stats().framesDelivered - frames0;
    const std::string json = world_->metrics().toJson();
    Fnv fnv;
    fnv.str(json);
    out.digest = fnv.h;
    if (tr.on()) {
      traced_.frames += out.frames;
      traced_.framesSent += world_->medium().stats().framesSent - sent0;
    }
    if (checkpoint) {
      out.ok = restoreMatches(blob, json, tr, i);
      legs_.saveMs.push_back(saveSeconds * 1e3);
      legs_.lastBlob = std::move(blob);
    }
    return out;
  }

  void verify(const std::vector<StepOut>& steps, Results& out) override {
    bool ok = true;
    for (const StepOut& s : steps) ok = ok && s.ok;
    out.check("restores_match_and_invariants_hold",
              ok && legs_.failures.empty());
    for (const std::string& f : legs_.failures) out.notes.push_back(f);
    codecMetrics(legs_.saveMs, legs_.restoreMs, legs_.lastBlob, out);
    legs_ = {};
  }

  void layer(const Tracer& tr, std::uint64_t steps, Results& out) override {
    (void)steps;
    out.set("scenario.build_ms", median(tr.durationsMs("scenario.build")));
    const scenario::StreamMetrics m = world_->metrics();
    const std::uint64_t useful = m.dreqReceived - m.dreqRejectedAuth -
                                 m.dreqRateLimited - m.dreqReplayed -
                                 m.dreqDeduplicated;
    out.set("core.dreq_accept_ratio", ratio(useful, m.dreqReceived));
    out.set("core.rate_limited_ratio",
            ratio(m.dreqRateLimited, m.dreqReceived));
    out.set("core.completed_retained",
            static_cast<double>(m.completedRetained));
    out.set("net.fanout", ratio(traced_.frames, traced_.framesSent));
    measureCrypto(seed_, out);
  }

 private:
  bool restoreMatches(const common::Bytes& blob, const std::string& json,
                      Tracer& tr, std::uint64_t i) {
    scenario::StreamWorld fresh{config_};
    const auto span = tr.span("codec.restore", i);
    const Stopwatch sw;
    const common::Status status = fresh.restoreCheckpoint(blob);
    legs_.restoreMs.push_back(sw.seconds() * 1e3);
    const std::string at = "step " + std::to_string(i) + ": ";
    if (!status.ok()) {
      legs_.failures.push_back(at + "restore failed");
      return false;
    }
    bool ok = true;
    if (fresh.metrics().toJson() != json) {
      legs_.failures.push_back(at + "restored metrics differ");
      ok = false;
    }
    if (fresh.saveCheckpoint() != blob) {
      legs_.failures.push_back(at + "re-saved checkpoint differs");
      ok = false;
    }
    for (const std::string& v : world_->checkInvariants()) {
      legs_.failures.push_back(at + "invariant: " + v);
      ok = false;
    }
    return ok;
  }

  struct Legs {
    std::vector<double> saveMs;
    std::vector<double> restoreMs;
    common::Bytes lastBlob;
    std::vector<std::string> failures;
  };
  struct Traced {
    std::uint64_t frames{0};
    std::uint64_t framesSent{0};
  };

  std::uint64_t seed_;
  scenario::StreamConfig config_;  ///< the current world's
  std::uint64_t checkpointEvery_;
  std::uint32_t warmupEpochs_;
  std::unique_ptr<scenario::StreamWorld> world_;
  Legs legs_;
  Traced traced_;
};

// ------------------------------------------------------------------- main

std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                       std::uint64_t seed, bool tiny) {
  if (name == "highway_dataplane") {
    return std::make_unique<HighwayDataplane>(seed, tiny);
  }
  if (name == "paper_fig4") return std::make_unique<PaperFig4>(seed, tiny);
  if (name == "corridor_sharded") {
    return std::make_unique<Corridor>(seed, tiny, 4, 4);
  }
  if (name == "stream_service") {
    return std::make_unique<StreamService>(seed, tiny);
  }
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  std::string traceDir;  ///< non-empty = traced run
  bool tiny{false};
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool hasValue = i + 1 < argc;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--workload" && hasValue) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && hasValue) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && hasValue) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && hasValue) {
      args.traceDir = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !(args.seconds >= 0.0)) return std::nullopt;
  return args;
}

/// Set-up times and the core probe's mean kernel time during each.
struct Setups {
  std::vector<double> seconds;
  std::vector<double> probeUs;
};

void timedSetup(Workload& w, std::uint64_t generation, Tracer& tr,
                Setups& out) {
  w.teardown();
  const CoreProbe::Reading probe = CoreProbe::read();
  const Stopwatch sw;
  w.setup(generation, tr);
  out.seconds.push_back(sw.seconds());
  out.probeUs.push_back(
      CoreProbe::meanUs(probe, CoreProbe::read()));
}

struct LoopOut {
  std::vector<StepOut> steps;
  std::vector<double> cycleProbeUs;  ///< the probe's mean kernel time
  Setups setups;                     ///< set-ups made inside the loop
};

/// Runs whole cycles until `minCycles` ran and the timed parts of the steps
/// add up to `budget` seconds, setting up again every cyclesPerSetup
/// cycles.
LoopOut runCycles(Workload& w, Tracer& tr, std::uint64_t minCycles,
                  double budget) {
  const Shape shape = w.shape();
  LoopOut out;
  double measured = 0.0;
  for (std::uint64_t c = 0; c < minCycles || measured < budget; ++c) {
    if (c > 0 && c % shape.cyclesPerSetup == 0) {
      timedSetup(w, c / shape.cyclesPerSetup, tr, out.setups);
    }
    const CoreProbe::Reading probe = CoreProbe::read();
    for (std::uint64_t j = 0; j < shape.cycleSteps; ++j) {
      const std::uint64_t i = c * shape.cycleSteps + j;
      const auto span = tr.span("step", i);
      out.steps.push_back(w.step(i, tr));
      measured += out.steps.back().seconds;
    }
    out.cycleProbeUs.push_back(
        CoreProbe::meanUs(probe, CoreProbe::read()));
  }
  return out;
}

/// Time of each cycle: the sum of its steps' timed parts.
std::vector<double> cycleSeconds(const std::vector<StepOut>& steps,
                                 std::uint64_t cycleSteps) {
  std::vector<double> out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i % cycleSteps == 0) out.push_back(0.0);
    out.back() += steps[i].seconds;
  }
  return out;
}

void appendNumbers(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) out += ',';
    obs::appendJsonNumber(out, values[k]);
  }
  out += ']';
}

int run(const Args& args) {
  std::unique_ptr<Workload> w =
      makeWorkload(args.workload, args.seed, args.tiny);
  if (!w) {
    std::cerr << "blackdp_suite: unknown workload " << args.workload << '\n';
    return 2;
  }
  const bool traced = !args.traceDir.empty();
  const Shape shape = w->shape();
  Tracer off;
  Results results;
  const CoreProbe probe;

  Setups setups;
  while (setups.seconds.size() < (args.tiny ? 1u : 3u)) {
    timedSetup(*w, 0, off, setups);
  }

  const auto slabs0 = net::PayloadArena::threadStats().slabRefills;
  const LoopOut loop = runCycles(*w, off, shape.minCycles,
                                 traced ? args.seconds / 2 : args.seconds);
  const auto slabRefills =
      net::PayloadArena::threadStats().slabRefills - slabs0;
  const std::vector<StepOut>& steps = loop.steps;
  for (std::size_t k = 0; k < loop.setups.seconds.size(); ++k) {
    setups.seconds.push_back(loop.setups.seconds[k]);
    setups.probeUs.push_back(loop.setups.probeUs[k]);
  }

  Fnv surface;
  std::uint64_t frames = 0;
  std::uint64_t allocations = 0;
  std::uint64_t failed = 0;
  const std::vector<double> cycleS = cycleSeconds(steps, shape.cycleSteps);
  std::vector<double> cycleFrames;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i < shape.minCycles * shape.cycleSteps) surface.u64(steps[i].digest);
    if (i % shape.cycleSteps == 0) cycleFrames.push_back(0.0);
    cycleFrames.back() += static_cast<double>(steps[i].frames);
    frames += steps[i].frames;
    allocations += steps[i].allocations;
    if (!steps[i].ok) ++failed;
  }
  w->verify(steps, results);

  std::string spanTotals = "{";
  std::string eventCounts = "{";
  if (traced) {
    Tracer tr;
    w->teardown();
    tr.enable();
    w->setup(0, tr);
    const LoopOut replay =
        runCycles(*w, tr, steps.size() / shape.cycleSteps, 0.0);
    tr.disable();
    bool same = replay.steps.size() == steps.size();
    for (std::size_t i = 0; same && i < steps.size(); ++i) {
      same = replay.steps[i].digest == steps[i].digest;
    }
    // Traced over untraced time of each cycle, both scaled by the core
    // speed the probe read during it.
    const std::vector<double> replayS =
        cycleSeconds(replay.steps, shape.cycleSteps);
    std::vector<double> ratios;
    for (std::size_t c = 0; c < cycleS.size() && c < replayS.size(); ++c) {
      const double probeUs = loop.cycleProbeUs[c];
      const double replayProbeUs = replay.cycleProbeUs[c];
      const double speed =
          probeUs > 0.0 && replayProbeUs > 0.0 ? probeUs / replayProbeUs : 1.0;
      ratios.push_back(ratio(replayS[c] * speed, cycleS[c]));
    }
    results.check("traced_replay_identical", same);
    results.set("obs.trace_overhead_pct", (median(ratios) - 1.0) * 100.0);
    results.set("obs.events_per_step",
                ratio(tr.recorder().total(),
                      static_cast<std::uint64_t>(steps.size())));
    results.set("mem.allocs_per_frame", ratio(allocations, frames));
    results.set("net.arena_slab_refills", static_cast<double>(slabRefills));
    w->layer(tr, steps.size(), results);

    const std::string path =
        args.traceDir + "/" + args.workload + ".spans.jsonl";
    results.check("spans_written", tr.writeJsonl(path));
    for (const auto& [name, t] : tr.totals()) {
      suite::jsonKey(spanTotals, name);
      spanTotals += "{\"count\":";
      obs::appendJsonNumber(spanTotals, t.count);
      spanTotals += ",\"total_ms\":";
      obs::appendJsonNumber(spanTotals, static_cast<double>(t.totalNs) / 1e6);
      spanTotals += ",\"self_ms\":";
      obs::appendJsonNumber(spanTotals, static_cast<double>(t.selfNs) / 1e6);
      spanTotals += '}';
    }
    // Events per instrumentation layer, from the counting recorder.
    constexpr auto kKinds =
        static_cast<std::size_t>(obs::EventKind::kShard) + 1;
    for (std::size_t k = 0; k < kKinds; ++k) {
      suite::jsonKey(eventCounts, obs::toString(static_cast<obs::EventKind>(k)));
      obs::appendJsonNumber(eventCounts, tr.recorder().counts()[k]);
    }
  }
  spanTotals += '}';
  eventCounts += '}';

  std::string checks = "{";
  bool correct = true;
  for (const auto& [name, ok] : results.checks) {
    suite::jsonKey(checks, name);
    checks += ok ? "true" : "false";
    correct = correct && ok;
  }
  checks += '}';
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(surface.h));

  std::string report = "{";
  const auto count = [&](std::string_view key, std::uint64_t value) {
    suite::jsonKey(report, key);
    obs::appendJsonNumber(report, value);
  };
  const auto numbers = [&](std::string_view key,
                           const std::vector<double>& values) {
    suite::jsonKey(report, key);
    appendNumbers(report, values);
  };
  suite::jsonKey(report, "workload");
  obs::appendJsonString(report, args.workload);
  count("seed", args.seed);
  suite::jsonKey(report, "correct");
  report += correct ? "true" : "false";
  count("steps", steps.size());
  count("failed_steps", failed);
  count("frames", frames);
  count("allocations", allocations);
  // Without the probe's table, resident since before the first set-up.
  const std::uint64_t rssKib = suite::peakRssKib();
  count("peak_rss_kib", rssKib > CoreProbe::kTableKib
                            ? rssKib - CoreProbe::kTableKib
                            : 0);
  count("cycle_steps", shape.cycleSteps);
  numbers("setup_s", setups.seconds);
  numbers("setup_probe_us", setups.probeUs);
  numbers("cycle_s", cycleS);
  numbers("cycle_frames", cycleFrames);
  numbers("cycle_probe_us", loop.cycleProbeUs);
  suite::jsonKey(report, "checks");
  report += checks;
  suite::jsonKey(report, "surface_hash");
  obs::appendJsonString(report, hash);
  suite::jsonKey(report, "notes");
  report += '[';
  for (std::size_t k = 0; k < results.notes.size(); ++k) {
    if (k > 0) report += ',';
    obs::appendJsonString(report, results.notes[k]);
  }
  report += ']';
  if (traced) {
    suite::jsonKey(report, "layer");
    report += '{';
    for (const auto& [name, value] : results.layer) {
      suite::jsonKey(report, name);
      obs::appendJsonNumber(report, value);
    }
    report += '}';
    suite::jsonKey(report, "span_totals");
    report += spanTotals;
    suite::jsonKey(report, "event_counts");
    report += eventCounts;
  }
  report += '}';
  std::cout << report << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: blackdp_suite --workload NAME --seed S --seconds T "
                 "[--trace DIR] [--tiny]\n";
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "blackdp_suite: " << e.what() << '\n';
    return 1;
  }
}
