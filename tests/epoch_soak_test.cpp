// The checkpointed epoch soak and the restore guard, over both worlds.
//
// Every case is written once against a world case (StreamCase,
// CorridorCase) and runs for each world:
//   - soak harness: a verifiable manifest, kill/resume identity, a resume
//     under the wrong seed or from an empty directory, a torn manifest line,
//     and chaos kill/resume cycles;
//   - corruption corpus: every prefix truncation, every byte flip, version
//     skew and structural section surgery behind a valid CRC, a foreign
//     config, and 2,000 seeded mutations (byte set, bit flip, section
//     truncate, section splice) behind a valid CRC, each restored into a
//     fresh world — every one must come back ok or as a typed error.
// A counting world pins the driver's own contracts: fail-fast invariants
// with a replay line, and chaos catching a resume that diverges.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "codec/checkpoint.hpp"
#include "common/bytes.hpp"
#include "obs/json.hpp"
#include "scenario/corridor_world.hpp"
#include "scenario/stream_world.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "soak/epoch_soak.hpp"

namespace blackdp {
namespace {

/// The stream detector service at test size.
struct StreamCase {
  static constexpr codec::CheckpointTag kMetaTag = codec::CheckpointTag::kMeta;

  static scenario::StreamConfig config(std::uint64_t seed) {
    scenario::StreamConfig config;
    config.seed = seed;
    config.clusters = 2;
    config.dreqsPerEpoch = 4;
    return config;
  }
  /// `variant` > 0 changes one config field but not the seed.
  soak::SoakWorld world(std::uint64_t seed, std::uint32_t variant = 0) const {
    scenario::StreamConfig c = config(seed);
    c.dreqsPerEpoch += variant;
    return soak::streamSoakWorld(c);
  }
};

/// The sharded corridor at test size: two segments on two shards.
struct CorridorCase {
  static constexpr codec::CheckpointTag kMetaTag =
      codec::CheckpointTag::kCorridorMeta;

  soak::SoakWorld world(std::uint64_t seed, std::uint32_t variant = 0) const {
    scenario::CorridorConfig config;
    config.seed = seed;
    config.segments = 2;
    config.vehicles = 24 + variant;
    config.attackerPermille = 100;
    config.departPermille = 100;
    return soak::corridorSoakWorld(config, 2, runner.threadPool());
  }

  sim::ParallelRunner runner{2};
};

const std::set<std::string>& typedErrors() {
  static const std::set<std::string> codes{
      "bad-magic", "bad-version", "truncated",
      "bad-crc",   "malformed",   "config-mismatch"};
  return codes;
}

std::string describe(const soak::CheckpointedSoakResult& result) {
  std::string out;
  for (const soak::EpochViolation& v : result.violations) {
    out += v.invariant + " @" + std::to_string(v.epoch) + ": " + v.detail +
           "\n";
  }
  return out;
}

/// Re-seals a mutated envelope: strips the trailing CRC-32, applies the
/// mutation, and appends a freshly computed (valid) CRC, so the corruption
/// reaches the parser behind the CRC gate.
template <typename Fn>
common::Bytes resealed(common::Bytes blob, Fn mutate) {
  blob.resize(blob.size() - 4);
  mutate(blob);
  const std::uint32_t crc = codec::crc32(blob);
  for (int shift = 24; shift >= 0; shift -= 8) {
    blob.push_back(static_cast<std::uint8_t>((crc >> shift) & 0xff));
  }
  return blob;
}

/// Re-builds an envelope from a decoded checkpoint after `surgery` on its
/// sections, with a valid CRC.
common::Bytes rebuilt(const codec::Checkpoint& checkpoint,
                      const std::function<void(
                          std::vector<codec::CheckpointSection>&)>& surgery) {
  std::vector<codec::CheckpointSection> sections = checkpoint.sections;
  surgery(sections);
  codec::CheckpointBuilder builder;
  for (codec::CheckpointSection& section : sections) {
    builder.add(static_cast<codec::CheckpointTag>(section.tag),
                std::move(section.body));
  }
  return builder.finish();
}

template <typename Case>
class EpochWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs every case as its own process, in
    // parallel, and the same case name runs once per world.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path{::testing::TempDir()} /
           (std::string{"blackdp_"} + info->test_suite_name() + "_" +
            info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string sub(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Six epochs, a checkpoint every two, into `dir`.
  [[nodiscard]] soak::CheckpointedSoakOptions checkpointed(
      const std::string& dir, std::uint64_t epochs = 6) const {
    soak::CheckpointedSoakOptions options;
    options.epochs = epochs;
    options.checkpointEvery = 2;
    options.checkpointDir = dir;
    return options;
  }

  /// The checkpoint the corpus mutates: seed 11, after two epochs.
  [[nodiscard]] common::Bytes checkpointBlob(std::uint32_t variant = 0) {
    const std::unique_ptr<soak::EpochWorld> world =
        case_.world(11, variant).build();
    world->runEpoch();
    world->runEpoch();
    common::Bytes blob = world->save();
    EXPECT_GT(blob.size(), 32u);
    return blob;
  }

  /// Restores into a FRESH world (a failed restore tears the target). The
  /// envelope's own rejections never reach the world, so after one of those
  /// the world is still fresh and serves the next restore too. (Were that
  /// not so, the next restore would trip the world's fresh-world assert.)
  common::Status restoreFresh(std::span<const std::uint8_t> bytes) {
    if (fresh_ == nullptr) fresh_ = case_.world(11).build();
    const common::Status status = fresh_->restore(bytes);
    static const std::set<std::string> envelopeErrors{
        "bad-magic", "bad-version", "truncated", "bad-crc"};
    if (status.ok() || envelopeErrors.count(status.error().code) == 0) {
      fresh_.reset();
    }
    return status;
  }

  // ------------------------------------------------------- soak harness

  void WritesCheckpointsWithAVerifiableManifest() {
    const soak::SoakWorld world = case_.world(11);
    const soak::CheckpointedSoakOptions options = checkpointed(sub("ckpts"));
    const soak::CheckpointedSoakResult result =
        soak::runCheckpointedSoak(world, options);
    ASSERT_TRUE(result.passed()) << describe(result);
    EXPECT_EQ(result.endEpoch, 6u);

    const std::vector<soak::ManifestEntry> manifest =
        soak::readManifest(options.checkpointDir);
    ASSERT_EQ(manifest.size(), 3u);
    for (const soak::ManifestEntry& entry : manifest) {
      const auto blob =
          codec::readFile(options.checkpointDir + "/" + entry.file);
      ASSERT_TRUE(blob.ok()) << entry.file;
      EXPECT_EQ(blob.value().size(), entry.bytes);
      EXPECT_EQ(codec::crc32(blob.value()), entry.crc32);
      EXPECT_EQ(entry.seed, world.seed);
      EXPECT_TRUE(codec::decodeCheckpoint(blob.value()).ok());
    }
    EXPECT_EQ(manifest.back().epoch, 6u);
    EXPECT_EQ(result.lastCheckpointPath,
              options.checkpointDir + "/" + manifest.back().file);
  }

  void KillAndResumeMatchesUninterruptedRun() {
    const soak::SoakWorld world = case_.world(12);
    const soak::CheckpointedSoakResult full =
        soak::runCheckpointedSoak(world, checkpointed(sub("a")));
    ASSERT_TRUE(full.passed()) << describe(full);

    soak::CheckpointedSoakOptions killed = checkpointed(sub("b"));
    killed.stopAfter = 3;  // dies between checkpoints: epoch 3, last ckpt at 2
    const soak::CheckpointedSoakResult first =
        soak::runCheckpointedSoak(world, killed);
    ASSERT_TRUE(first.passed()) << describe(first);
    EXPECT_EQ(first.endEpoch, 3u);

    soak::CheckpointedSoakOptions resumed = killed;
    resumed.stopAfter = 0;
    resumed.resume = true;
    const soak::CheckpointedSoakResult second =
        soak::runCheckpointedSoak(world, resumed);
    ASSERT_TRUE(second.passed()) << describe(second);
    EXPECT_EQ(second.startEpoch, 2u);  // resumed from the epoch-2 checkpoint
    EXPECT_EQ(second.endEpoch, 6u);

    EXPECT_EQ(second.surfaces.metricsJson, full.surfaces.metricsJson);
    EXPECT_EQ(second.surfaces.log, full.surfaces.log);
    const auto a = codec::readFile(sub("a") + "/ckpt-000006.bdpc");
    const auto b = codec::readFile(sub("b") + "/ckpt-000006.bdpc");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }

  void ResumeWithMismatchedSeedFailsTyped() {
    soak::CheckpointedSoakOptions options = checkpointed(sub("ckpts"), 4);
    ASSERT_TRUE(soak::runCheckpointedSoak(case_.world(13), options).passed());

    options.resume = true;
    const soak::CheckpointedSoakResult result =
        soak::runCheckpointedSoak(case_.world(14), options);
    ASSERT_FALSE(result.passed());
    EXPECT_EQ(result.violations.front().invariant, "checkpoint-resume");
  }

  void ResumeFromEmptyDirFailsTyped() {
    soak::CheckpointedSoakOptions options;
    options.epochs = 4;
    options.resume = true;
    options.checkpointDir = sub("nothing-here");
    const soak::CheckpointedSoakResult result =
        soak::runCheckpointedSoak(case_.world(15), options);
    ASSERT_FALSE(result.passed());
    EXPECT_EQ(result.violations.front().invariant, "checkpoint-resume");
  }

  void TornManifestLineIsSkippedOnResume() {
    const soak::SoakWorld world = case_.world(16);
    soak::CheckpointedSoakOptions options = checkpointed(sub("ckpts"), 4);
    ASSERT_TRUE(soak::runCheckpointedSoak(world, options).passed());
    {
      // Emulate a kill mid-append: a torn, half-written trailing line.
      std::ofstream out{soak::manifestPath(options.checkpointDir),
                        std::ios::app};
      out << "{\"epoch\":99,\"file\":\"ckpt-0000";
    }
    const std::vector<soak::ManifestEntry> manifest =
        soak::readManifest(options.checkpointDir);
    ASSERT_EQ(manifest.size(), 2u);
    EXPECT_EQ(manifest.back().epoch, 4u);

    options.resume = true;
    options.epochs = 5;
    const soak::CheckpointedSoakResult result =
        soak::runCheckpointedSoak(world, options);
    EXPECT_TRUE(result.passed()) << describe(result);
    EXPECT_EQ(result.startEpoch, 4u);
  }

  void ChaosKillsResumeByteIdentically() {
    const soak::SoakWorld world = case_.world(17);
    soak::CheckpointedSoakOptions options = checkpointed(sub("chaos"));
    options.chaosKills = 3;
    const soak::CheckpointedSoakResult result =
        soak::runCheckpointedSoak(world, options);
    ASSERT_TRUE(result.passed()) << describe(result);
    EXPECT_EQ(result.chaosCycles, 3u);

    // The reported surfaces are the uninterrupted reference's, and every
    // cycle resumed its own directory to the final epoch.
    soak::CheckpointedSoakOptions plain;
    plain.epochs = options.epochs;
    const soak::CheckpointedSoakResult reference =
        soak::runCheckpointedSoak(world, plain);
    EXPECT_EQ(result.surfaces.metricsJson, reference.surfaces.metricsJson);
    EXPECT_EQ(result.surfaces.log, reference.surfaces.log);
    for (int kill = 0; kill < 3; ++kill) {
      const std::vector<soak::ManifestEntry> manifest =
          soak::readManifest(sub("chaos") + "/kill-" + std::to_string(kill));
      ASSERT_FALSE(manifest.empty()) << "kill " << kill;
      EXPECT_EQ(manifest.back().epoch, options.epochs) << "kill " << kill;
    }

    // No checkpoint could land before a kill: refused, typed.
    options.epochs = options.checkpointEvery;
    const soak::CheckpointedSoakResult refused =
        soak::runCheckpointedSoak(world, options);
    ASSERT_FALSE(refused.passed());
    EXPECT_EQ(refused.violations.front().invariant, "kill-resume-identity");
  }

  // --------------------------------------------------- corruption corpus

  void IntactBlobRestores() {
    const common::Bytes blob = checkpointBlob();
    const common::Status status = restoreFresh(blob);
    EXPECT_TRUE(status.ok()) << status.error().code << ": "
                             << status.error().detail;
  }

  void EveryPrefixTruncationIsATypedError() {
    const common::Bytes blob = checkpointBlob();
    for (std::size_t len = 0; len < blob.size(); ++len) {
      const common::Status status = restoreFresh({blob.data(), len});
      ASSERT_FALSE(status.ok()) << "prefix of " << len << " bytes restored";
      ASSERT_EQ(typedErrors().count(status.error().code), 1u)
          << status.error().code;
    }
  }

  void EveryByteFlipIsATypedError() {
    // CRC-32 detects all single-byte corruptions (and flipping a CRC byte
    // itself breaks the seal), so no flip may restore — and none may crash.
    const common::Bytes blob = checkpointBlob();
    common::Bytes corrupt = blob;
    for (std::size_t i = 0; i < blob.size(); ++i) {
      corrupt[i] ^= 0xff;
      const common::Status status = restoreFresh(corrupt);
      ASSERT_FALSE(status.ok()) << "byte " << i << " flip restored";
      corrupt[i] ^= 0xff;
    }
  }

  void VersionSkewWithAValidCrcIsBadVersion() {
    const common::Bytes skewed =
        resealed(checkpointBlob(), [](common::Bytes& b) {
          // Schema version lives at offset 4..5 (big-endian u16).
          b[4] = 0;
          b[5] = static_cast<std::uint8_t>(codec::kCheckpointVersion + 1);
        });
    const common::Status status = restoreFresh(skewed);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "bad-version");
  }

  void StructuralSurgeryIsAlwaysATypedError() {
    const auto decoded = codec::decodeCheckpoint(checkpointBlob());
    ASSERT_TRUE(decoded.ok());
    const codec::Checkpoint& checkpoint = decoded.value();
    const auto metaTag = static_cast<std::uint16_t>(Case::kMetaTag);
    const auto expectCode = [&](const common::Bytes& blob,
                                const std::string& code,
                                const std::string& what) {
      const common::Status status = restoreFresh(blob);
      ASSERT_FALSE(status.ok()) << what << " restored";
      EXPECT_EQ(status.error().code, code) << what;
    };

    // A flipped config-hash byte behind a valid CRC: the resume guard.
    expectCode(rebuilt(checkpoint,
                       [&](auto& sections) {
                         for (auto& section : sections) {
                           if (section.tag == metaTag) section.body[0] ^= 0x01;
                         }
                       }),
               "config-mismatch", "flipped config hash");
    // Every section kind missing, every section one byte short or one byte
    // long: the guard's missing-section, underrun and trailing-bytes paths.
    std::set<std::uint16_t> tags;
    for (const codec::CheckpointSection& section : checkpoint.sections) {
      tags.insert(section.tag);
    }
    for (const std::uint16_t tag : tags) {
      expectCode(rebuilt(checkpoint,
                         [&](auto& sections) {
                           std::erase_if(sections, [&](const auto& section) {
                             return section.tag == tag;
                           });
                         }),
                 "malformed", "without tag " + std::to_string(tag));
    }
    for (std::size_t i = 0; i < checkpoint.sections.size(); ++i) {
      const std::string where = "section " + std::to_string(i);
      expectCode(rebuilt(checkpoint,
                         [&](auto& sections) { sections[i].body.pop_back(); }),
                 "malformed", where + " one byte short");
      expectCode(rebuilt(checkpoint,
                         [&](auto& sections) {
                           sections[i].body.push_back(0);
                         }),
                 "malformed", where + " one byte long");
    }
  }

  void CheckpointFromADifferentConfigIsRejected() {
    const common::Status status = restoreFresh(checkpointBlob(1));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "config-mismatch");
  }

  void SeededMutationsComeBackOkOrTyped() {
    const common::Bytes blob = checkpointBlob();
    const auto decoded = codec::decodeCheckpoint(blob);
    ASSERT_TRUE(decoded.ok());
    const std::vector<codec::CheckpointSection>& sections =
        decoded.value().sections;
    sim::Rng rng{0xB1ACDBull};
    const auto anySection = [&] { return rng.index(sections.size()); };
    const auto cut = [&](std::size_t size) {
      return static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(size)));
    };
    for (int i = 0; i < 2000; ++i) {
      common::Bytes mutated;
      std::string what;
      switch (i % 4) {
        case 0: {  // byte set
          const std::size_t at = rng.index(blob.size() - 4);
          const auto value = static_cast<std::uint8_t>(rng.index(256));
          mutated = resealed(blob, [&](common::Bytes& b) { b[at] = value; });
          what = "byte " + std::to_string(at) + " = " + std::to_string(value);
          break;
        }
        case 1: {  // bit flip
          const std::size_t at = rng.index(blob.size() - 4);
          const auto bit = static_cast<unsigned>(rng.index(8));
          mutated = resealed(blob, [&](common::Bytes& b) {
            b[at] = static_cast<std::uint8_t>(b[at] ^ (1u << bit));
          });
          what = "byte " + std::to_string(at) + " bit " + std::to_string(bit);
          break;
        }
        case 2: {  // section truncate
          const std::size_t s = anySection();
          const std::size_t keep = cut(sections[s].body.size());
          mutated = rebuilt(decoded.value(),
                            [&](auto& all) { all[s].body.resize(keep); });
          what = "section " + std::to_string(s) + " cut to " +
                 std::to_string(keep);
          break;
        }
        default: {  // section splice: a's head joined to b's tail
          const std::size_t a = anySection();
          const std::size_t b = anySection();
          const std::size_t head = cut(sections[a].body.size());
          const std::size_t tail = cut(sections[b].body.size());
          mutated = rebuilt(decoded.value(), [&](auto& all) {
            common::Bytes body(sections[a].body.begin(),
                               sections[a].body.begin() +
                                   static_cast<std::ptrdiff_t>(head));
            body.insert(body.end(),
                        sections[b].body.begin() +
                            static_cast<std::ptrdiff_t>(tail),
                        sections[b].body.end());
            all[a].body = std::move(body);
          });
          what = "section " + std::to_string(a) + "[0," +
                 std::to_string(head) + ") + section " + std::to_string(b) +
                 "[" + std::to_string(tail) + ",)";
          break;
        }
      }
      common::Status status;
      ASSERT_NO_THROW(status = restoreFresh(mutated))
          << "mutation " << i << ": " << what;
      if (!status.ok()) {
        ASSERT_EQ(typedErrors().count(status.error().code), 1u)
            << "mutation " << i << " (" << what
            << "): " << status.error().code;
      }
    }
  }

  Case case_;
  std::filesystem::path dir_;
  std::unique_ptr<soak::EpochWorld> fresh_;
};

// Each case runs once per world. The stream harness and the corridor corpus
// keep the suite names they had before the two worlds shared one suite.
using StreamSoakHarnessTest = EpochWorldTest<StreamCase>;
using MegacitySoakHarnessTest = EpochWorldTest<CorridorCase>;
using StreamCorruptionCorpusTest = EpochWorldTest<StreamCase>;
using CorruptionCorpusTest = EpochWorldTest<CorridorCase>;

#define FOR_BOTH_WORLDS(StreamSuite, CorridorSuite, Case) \
  TEST_F(StreamSuite, Case) { Case(); }                   \
  TEST_F(CorridorSuite, Case) { Case(); }

#define HARNESS_CASE(Case) \
  FOR_BOTH_WORLDS(StreamSoakHarnessTest, MegacitySoakHarnessTest, Case)
#define CORPUS_CASE(Case) \
  FOR_BOTH_WORLDS(StreamCorruptionCorpusTest, CorruptionCorpusTest, Case)

HARNESS_CASE(WritesCheckpointsWithAVerifiableManifest)
HARNESS_CASE(KillAndResumeMatchesUninterruptedRun)
HARNESS_CASE(ResumeWithMismatchedSeedFailsTyped)
HARNESS_CASE(ResumeFromEmptyDirFailsTyped)
HARNESS_CASE(TornManifestLineIsSkippedOnResume)
HARNESS_CASE(ChaosKillsResumeByteIdentically)

CORPUS_CASE(IntactBlobRestores)
CORPUS_CASE(EveryPrefixTruncationIsATypedError)
CORPUS_CASE(EveryByteFlipIsATypedError)
CORPUS_CASE(VersionSkewWithAValidCrcIsBadVersion)
CORPUS_CASE(StructuralSurgeryIsAlwaysATypedError)
CORPUS_CASE(CheckpointFromADifferentConfigIsRejected)
CORPUS_CASE(SeededMutationsComeBackOkOrTyped)

#undef CORPUS_CASE
#undef HARNESS_CASE
#undef FOR_BOTH_WORLDS

// --- stream only: the recorded d_req trace ---------------------------------

TEST_F(StreamSoakHarnessTest, RecordedTraceReplaysToTheSameVerdictTimeline) {
  const scenario::StreamConfig config = StreamCase::config(17);
  constexpr std::uint64_t kEpochs = 5;
  std::ostringstream trace;
  soak::CheckpointedSoakOptions options;
  options.epochs = kEpochs;
  const soak::CheckpointedSoakResult result =
      soak::runCheckpointedSoak(soak::streamSoakWorld(config, &trace), options);
  ASSERT_TRUE(result.passed()) << describe(result);
  const auto metrics = obs::FlatJsonObject::parse(result.surfaces.metricsJson);
  ASSERT_TRUE(metrics.has_value());
  const auto recordedHash = metrics->u64("verdict_hash");
  ASSERT_TRUE(recordedHash.has_value());

  // Re-drive the recorded trace through a fresh world (what replay_serve
  // does) and require the identical verdict timeline hash.
  std::istringstream in{trace.str()};
  std::vector<std::vector<scenario::InjectionSpec>> epochs(kEpochs);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto parsed = scenario::parseInjectionJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_LT(parsed->first, epochs.size());
    epochs[parsed->first].push_back(parsed->second);
    ++lines;
  }
  EXPECT_EQ(lines, kEpochs * config.clusters * config.dreqsPerEpoch);

  scenario::StreamWorld replayed{config};
  for (const auto& specs : epochs) replayed.runEpochFromSpecs(specs);
  EXPECT_EQ(replayed.metrics().verdictHash, *recordedHash);
}

// --- the driver's own contracts, on a counting world ------------------------

/// A world whose whole state is its epoch counter. `breakAt` makes the
/// invariants fail once that many epochs ran; `divergeOnResume` makes a
/// restored world's surfaces differ from an uninterrupted one's.
class CountingWorld final : public soak::EpochWorld {
 public:
  CountingWorld(std::uint64_t breakAt, bool divergeOnResume)
      : breakAt_{breakAt}, divergeOnResume_{divergeOnResume} {}

  std::uint64_t nextEpoch() const override { return epoch_; }
  void runEpoch() override { ++epoch_; }
  common::Bytes save() override {
    common::ByteWriter w;
    w.writeU64(epoch_);
    return std::move(w).take();
  }
  common::Status restore(std::span<const std::uint8_t> blob) override {
    common::ByteReader r{blob};
    epoch_ = r.readU64();
    restored_ = true;
    return common::Status::success();
  }
  std::vector<std::string> checkInvariants() const override {
    if (epoch_ != breakAt_) return {};
    return {"counter reached " + std::to_string(epoch_)};
  }
  soak::Surfaces surfaces() override {
    return {"{\"epochs\":" + std::to_string(epoch_) + "}",
            restored_ && divergeOnResume_ ? "resumed\n" : ""};
  }

 private:
  std::uint64_t epoch_{0};
  std::uint64_t breakAt_;
  bool divergeOnResume_;
  bool restored_{false};
};

soak::SoakWorld countingWorld(std::uint64_t breakAt, bool divergeOnResume) {
  return {"counter", 5, "--counter", [breakAt, divergeOnResume] {
            return std::make_unique<CountingWorld>(breakAt, divergeOnResume);
          }};
}

TEST(EpochSoakDriverTest, InvariantViolationFailsFastWithAReplayLine) {
  soak::CheckpointedSoakOptions options;
  options.epochs = 10;
  const soak::CheckpointedSoakResult result =
      soak::runCheckpointedSoak(countingWorld(3, false), options);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations.front().invariant, "invariant");
  EXPECT_EQ(result.violations.front().epoch, 2u);  // the epoch that broke it
  EXPECT_NE(result.violations.front().detail.find(
                "replay: soak_run --counter --epochs 3"),
            std::string::npos)
      << result.violations.front().detail;
  EXPECT_EQ(result.endEpoch, 3u);  // no epoch ran after the violation
}

TEST(EpochSoakDriverTest, ChaosCatchesAResumeThatDiverges) {
  const auto dir = std::filesystem::path{::testing::TempDir()} /
                   "blackdp_epoch_soak_diverges";
  std::filesystem::remove_all(dir);
  soak::CheckpointedSoakOptions options;
  options.epochs = 6;
  options.checkpointEvery = 2;
  options.checkpointDir = dir.string();
  options.chaosKills = 2;
  const soak::CheckpointedSoakResult result =
      soak::runCheckpointedSoak(countingWorld(0, true), options);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations.front().invariant, "kill-resume-identity");
  EXPECT_EQ(result.chaosCycles, 0u);
}

}  // namespace
}  // namespace blackdp
