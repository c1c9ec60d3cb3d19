// Pins the one detector core, core::LiteDetector, on its own: scripted
// inputs (reports, replies, deadlines, send failures, hand-offs) go in
// through the public API, fake hooks record every probe, forward and
// verdict that comes out, and each case checks the probes sent and the one
// verdict — the §III-B ladder, its retry and forward budgets, the adopt
// merge, and the hardened K-of-N campaign, with no simulator or radio.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/lite_detector.hpp"

namespace blackdp {
namespace {

using core::ProbeStage;
using core::Verdict;

const common::Address kSuspect{0x1'0000'002au};
const common::Address kTeammate{0x1'0000'0033u};
const common::Address kReporter{0x1'0000'0001u};
const common::Address kSecondReporter{0x1'0000'0002u};

/// One scripted input.
struct Step {
  enum Kind {
    kReport,       ///< `who` reports the suspect
    kReply,        ///< `who` answers the last probe, destSeq = asked + seq
    kTick,         ///< one second passes; due deadlines fire
    kUnreachable,  ///< the last probe could not be delivered
    kAdoptLast,    ///< the last forwarded session comes back (still absent)
    kAdoptFrom,    ///< a session handed off elsewhere, reported by `who`
  } kind;
  common::Address who{};
  aodv::SeqNum seq{0};
  common::Address nextHop{common::kNullAddress};
};

Step report(common::Address who = kReporter) { return {Step::kReport, who}; }
Step reply(common::Address who, aodv::SeqNum above = 7,
           common::Address nextHop = common::kNullAddress) {
  return {Step::kReply, who, above, nextHop};
}
Step tick() { return {Step::kTick}; }
Step unreachable() { return {Step::kUnreachable}; }
Step adoptLast() { return {Step::kAdoptLast}; }
Step adoptFrom(common::Address who) { return {Step::kAdoptFrom, who}; }

struct SentProbe {
  common::Address target;
  ProbeStage stage;
  bool fresh;

  friend bool operator==(const SentProbe&, const SentProbe&) = default;
};

void PrintTo(const SentProbe& p, std::ostream* os) {
  *os << "{" << p.target.value() << ", stage "
      << static_cast<int>(p.stage) << (p.fresh ? ", fresh}" : "}");
}

struct Case {
  std::string name;
  bool hardened{false};
  bool suspectPresent{true};
  std::vector<Step> script;
  std::vector<SentProbe> probes;
  std::optional<Verdict> verdict;
  common::Address accomplice{common::kNullAddress};
  std::size_t forwards{0};
  std::vector<common::Address> reporters;  ///< of the concluded session
  bool exonerated{false};
};

/// Drives one detector through a script with recording hooks.
class Harness {
 public:
  explicit Harness(const Case& c) {
    core::DetectorConfig config;
    config.hardening.enabled = c.hardened;
    present_ = c.suspectPresent;
    core::LiteDetector::Hooks hooks;
    hooks.present = [this](common::Address who) {
      return present_ && who == kSuspect;
    };
    hooks.sendProbe = [this](core::DetectionSession& s, common::Address target,
                             std::uint32_t rreqId, bool fresh) {
      if (fresh) s.fakeDestination = common::Address{0x3'0000'0000u + rreqId};
      probes.push_back({target, s.stage, fresh});
      lastDestination_ = s.fakeDestination;
      lastRreqId_ = rreqId;
      asked_ = s.stage == ProbeStage::kRreq2 ? s.rreq2Seq : 0;
    };
    hooks.roundDelay = [] { return sim::Duration::milliseconds(10); };
    hooks.forward = [this](const core::DetectionSession& s) {
      forwarded.push_back(core::LiteDetector::handedOff(s));
      return true;
    };
    hooks.onEvent = [this](const core::DetectionSession&,
                           core::SessionEvent event, common::Address) {
      if (event == core::SessionEvent::kExonerated) exonerated = true;
    };
    hooks.onVerdict = [this](core::DetectionSession& s, Verdict v) {
      ASSERT_FALSE(verdict.has_value()) << "second verdict";
      verdict = v;
      concluded = s;
    };
    detector_.emplace(config, 1, std::move(hooks));
  }

  void run(const std::vector<Step>& script) {
    for (const Step& step : script) {
      switch (step.kind) {
        case Step::kReport:
          if (auto opened = detector_->report(kSuspect, {step.who, {}}, now_)) {
            detector_->adopt(std::move(*opened), now_);
          }
          break;
        case Step::kReply: {
          aodv::RouteReply rrep;
          rrep.destination = lastDestination_;
          rrep.rreqId = common::RreqId{lastRreqId_};
          rrep.destSeq = asked_ + step.seq;
          rrep.claimedNextHop = step.nextHop;
          detector_->onProbeReply(rrep, step.who, now_);
          break;
        }
        case Step::kTick:
          now_ = now_ + sim::Duration::seconds(1);
          detector_->fireDeadlines(now_);
          break;
        case Step::kUnreachable: {
          aodv::RouteRequest probe;
          probe.destination = lastDestination_;
          probe.rreqId = common::RreqId{lastRreqId_};
          detector_->onProbeUnreachable(probe);
          break;
        }
        case Step::kAdoptLast:
          detector_->adopt(forwarded.back(), now_);
          break;
        case Step::kAdoptFrom: {
          core::DetectionSession moved;
          moved.id = common::DetectionSessionId{(2ull << 32) | 1};
          moved.suspect = kSuspect;
          moved.reporters.push_back({step.who, {}});
          moved.packets = 2;
          moved.forwardCount = 1;
          detector_->adopt(std::move(moved), now_);
          break;
        }
      }
    }
  }

  std::vector<SentProbe> probes;
  std::vector<core::DetectionSession> forwarded;
  std::optional<Verdict> verdict;
  core::DetectionSession concluded;
  bool exonerated{false};

  [[nodiscard]] std::size_t active() const {
    return detector_->activeSessions();
  }

 private:
  bool present_{true};
  std::optional<core::LiteDetector> detector_;
  sim::TimePoint now_{};
  common::Address lastDestination_{};
  std::uint32_t lastRreqId_{0};
  aodv::SeqNum asked_{0};
};

std::vector<Case> cases() {
  const SentProbe rreq1{kSuspect, ProbeStage::kRreq1, true};
  const SentProbe rreq1Resend{kSuspect, ProbeStage::kRreq1, false};
  const SentProbe rreq2{kSuspect, ProbeStage::kRreq2, false};
  return {
      {.name = "SingleBlackHole",
       .script = {report(), reply(kSuspect), reply(kSuspect, 200)},
       .probes = {rreq1, rreq2},
       .verdict = Verdict::kSingleBlackHole,
       .reporters = {kReporter}},
      {.name = "CooperativePair",
       .script = {report(), reply(kSuspect), reply(kSuspect, 200, kTeammate),
                  reply(kTeammate)},
       .probes = {rreq1, rreq2, {kTeammate, ProbeStage::kTeammate, false}},
       .verdict = Verdict::kCooperativeBlackHole,
       .accomplice = kTeammate,
       .reporters = {kReporter}},
      {.name = "HonestSilenceThroughProbeRetries",
       .script = {report(), tick(), tick()},
       .probes = {rreq1, rreq1Resend},
       .verdict = Verdict::kNotConfirmed,
       .reporters = {kReporter}},
      {.name = "Rrep2NotNewerIsNotConfirmed",
       .script = {report(), reply(kSuspect), reply(kSuspect, 0)},
       .probes = {rreq1, rreq2},
       .verdict = Verdict::kNotConfirmed,
       .reporters = {kReporter}},
      {.name = "AbsentSuspectForwardedUntilMaxForwards",
       .suspectPresent = false,
       .script = {report(), adoptLast(), adoptLast(), adoptLast()},
       .probes = {},
       .verdict = Verdict::kUnreachable,
       .forwards = 3,
       .reporters = {kReporter}},
      {.name = "UnreachableProbeIsRefunded",
       .script = {report(), tick(), unreachable(), tick(), tick()},
       .probes = {rreq1, rreq1Resend, rreq1Resend},
       .verdict = Verdict::kNotConfirmed,
       .reporters = {kReporter}},
      {.name = "AdoptMergeConcludes",
       .script = {report(), reply(kSuspect), adoptFrom(kSecondReporter),
                  reply(kSuspect, 200)},
       .probes = {rreq1, rreq2},
       .verdict = Verdict::kSingleBlackHole,
       .reporters = {kReporter, kSecondReporter}},
      {.name = "HardenedQuorumConfirms",
       .hardened = true,
       .script = {report(), tick(), reply(kSuspect), tick(), reply(kSuspect)},
       .probes = {rreq1, rreq1},
       .verdict = Verdict::kSingleBlackHole,
       .reporters = {kReporter}},
      {.name = "HardenedQuietCampaignExonerates",
       .hardened = true,
       .script = {report(), tick(), tick(), tick(), tick(), tick(), tick()},
       .probes = {rreq1, rreq1, rreq1},
       .verdict = Verdict::kNotConfirmed,
       .reporters = {kReporter},
       .exonerated = true},
  };
}

// Names the ctest case after the script.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class LiteDetectorScriptTest : public ::testing::TestWithParam<Case> {};

TEST_P(LiteDetectorScriptTest, ProbesAndVerdict) {
  const Case& c = GetParam();
  Harness h{c};
  h.run(c.script);
  EXPECT_EQ(h.probes, c.probes);
  ASSERT_EQ(h.verdict, c.verdict);
  EXPECT_EQ(h.active(), 0u) << "a concluded session stays in the table";
  EXPECT_EQ(h.concluded.accomplice, c.accomplice);
  EXPECT_EQ(h.forwarded.size(), c.forwards);
  std::vector<common::Address> reporters;
  for (const core::SessionReporter& r : h.concluded.reporters) {
    reporters.push_back(r.address);
  }
  EXPECT_EQ(reporters, c.reporters);
  EXPECT_EQ(h.exonerated, c.exonerated);
}

INSTANTIATE_TEST_SUITE_P(Scripts, LiteDetectorScriptTest,
                         ::testing::ValuesIn(cases()));

}  // namespace
}  // namespace blackdp
