// Checkpoint envelope: round-trip identity, a deterministic corruption
// corpus (bit flips, truncation at every prefix, version skew, trailing
// bytes), and the crash-consistency contract of writeFileAtomic.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "codec/checkpoint.hpp"
#include "common/bytes.hpp"

namespace blackdp::codec {
namespace {

common::Bytes sampleEnvelope() {
  CheckpointBuilder builder;
  builder.add(CheckpointTag::kMeta, common::Bytes{0xAA, 0xBB});
  builder.add(CheckpointTag::kCluster, common::Bytes{1, 2, 3});
  builder.add(CheckpointTag::kCluster, common::Bytes{4, 5, 6, 7});
  builder.add(CheckpointTag::kStream, common::Bytes{});
  return builder.finish();
}

/// Strips the trailing CRC, applies `mutate` to the payload, and re-seals
/// with a fresh valid CRC — for reaching error paths beyond the CRC gate.
template <typename Fn>
common::Bytes resealed(common::Bytes blob, Fn mutate) {
  blob.resize(blob.size() - 4);
  mutate(blob);
  const std::uint32_t crc = crc32(blob);
  for (int shift = 24; shift >= 0; shift -= 8) {
    blob.push_back(static_cast<std::uint8_t>((crc >> shift) & 0xff));
  }
  return blob;
}

TEST(CheckpointTest, RoundTripPreservesSectionsInOrder) {
  const common::Bytes blob = sampleEnvelope();
  const auto decoded = decodeCheckpoint(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.error().code;
  const Checkpoint& checkpoint = decoded.value();
  EXPECT_EQ(checkpoint.version, kCheckpointVersion);
  ASSERT_EQ(checkpoint.sections.size(), 4u);
  EXPECT_EQ(checkpoint.sections[0].tag,
            static_cast<std::uint16_t>(CheckpointTag::kMeta));
  EXPECT_EQ(checkpoint.sections[1].body, (common::Bytes{1, 2, 3}));
  EXPECT_EQ(checkpoint.sections[2].body, (common::Bytes{4, 5, 6, 7}));
  EXPECT_TRUE(checkpoint.sections[3].body.empty());
}

TEST(CheckpointTest, EmptyEnvelopeRoundTrips) {
  const common::Bytes blob = CheckpointBuilder{}.finish();
  const auto decoded = decodeCheckpoint(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.error().code;
  EXPECT_TRUE(decoded.value().sections.empty());
}

TEST(CheckpointTest, FindReturnsFirstAndFindAllReturnsEveryMatch) {
  const auto decoded = decodeCheckpoint(sampleEnvelope());
  ASSERT_TRUE(decoded.ok());
  const Checkpoint& checkpoint = decoded.value();
  ASSERT_NE(checkpoint.find(CheckpointTag::kMeta), nullptr);
  EXPECT_EQ(*checkpoint.find(CheckpointTag::kCluster),
            (common::Bytes{1, 2, 3}));
  EXPECT_EQ(checkpoint.find(CheckpointTag::kTa), nullptr);
  EXPECT_EQ(checkpoint.findAll(CheckpointTag::kCluster).size(), 2u);
  EXPECT_TRUE(checkpoint.findAll(CheckpointTag::kMedium).empty());
}

// --- corruption corpus -----------------------------------------------------

TEST(CheckpointCorruptionTest, TruncationAtEveryPrefixIsATypedError) {
  const common::Bytes blob = sampleEnvelope();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const auto decoded = decodeCheckpoint({blob.data(), len});
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    const std::string& code = decoded.error().code;
    EXPECT_TRUE(code == "truncated" || code == "bad-magic" ||
                code == "bad-crc" || code == "malformed")
        << "prefix length " << len << " gave " << code;
  }
}

TEST(CheckpointCorruptionTest, EveryBitFlipIsDetected) {
  const common::Bytes pristine = sampleEnvelope();
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      common::Bytes blob = pristine;
      blob[i] ^= static_cast<std::uint8_t>(1u << bit);
      const auto decoded = decodeCheckpoint(blob);
      EXPECT_FALSE(decoded.ok()) << "flip byte " << i << " bit " << bit;
    }
  }
}

TEST(CheckpointCorruptionTest, VersionSkewIsTypedEvenWithAValidCrc) {
  // Patch the schema version (offset 4..5, big-endian u16) and re-seal, so
  // the CRC gate passes and the version gate must do the rejecting.
  const common::Bytes blob = resealed(sampleEnvelope(), [](common::Bytes& b) {
    b[4] = 0;
    b[5] = static_cast<std::uint8_t>(kCheckpointVersion + 1);
  });
  const auto decoded = decodeCheckpoint(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "bad-version");
  EXPECT_NE(decoded.error().detail.find(
                "v" + std::to_string(kCheckpointVersion + 1)),
            std::string::npos)
      << decoded.error().detail;
}

TEST(CheckpointCorruptionTest, TrailingBytesAfterSectionsAreMalformed) {
  const common::Bytes blob = resealed(
      sampleEnvelope(), [](common::Bytes& b) { b.push_back(0x00); });
  const auto decoded = decodeCheckpoint(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "malformed");
}

TEST(CheckpointCorruptionTest, OversizedSectionLengthIsTruncatedNotUB) {
  // Inflate the first section's length prefix far past the buffer and
  // re-seal: the reader must fail typed, not read out of bounds. Layout:
  // magic(4) version(2) count(4) tag(2) -> length prefix at offset 12.
  const common::Bytes blob = resealed(sampleEnvelope(), [](common::Bytes& b) {
    b[12] = 0xFF;
    b[13] = 0xFF;
    b[14] = 0xFF;
    b[15] = 0xFF;
  });
  const auto decoded = decodeCheckpoint(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "truncated");
}

TEST(CheckpointCorruptionTest, CrcMatchesTheReferenceCheckValue) {
  // CRC-32/ISO-HDLC check value for "123456789" — pins binascii.crc32
  // compatibility, which scripts/validate_bench_json.py relies on.
  const char* digits = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(digits), 9}),
            0xCBF43926u);
}

// --- atomic file writes ----------------------------------------------------

class AtomicWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs every case as its own process, in
    // parallel, and one case's SetUp must not delete another's files.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path{::testing::TempDir()} /
           (std::string{"blackdp_"} + info->test_suite_name() + "_" +
            info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  [[nodiscard]] bool tempFilesLeftBehind() const {
    for (const auto& entry : std::filesystem::directory_iterator{dir_}) {
      if (entry.path().extension() == ".tmp") return true;
    }
    return false;
  }

  std::filesystem::path dir_;
};

TEST_F(AtomicWriteTest, WriteThenReadRoundTrips) {
  const common::Bytes payload{9, 8, 7, 6};
  const auto wrote = writeFileAtomic(path("a.bdpc"), payload);
  ASSERT_TRUE(wrote.ok()) << wrote.error().detail;
  const auto read = readFile(path("a.bdpc"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
  EXPECT_FALSE(tempFilesLeftBehind());
}

TEST_F(AtomicWriteTest, CrashBeforeRenameLeavesFreshPathAbsent) {
  const common::Bytes payload{1, 2, 3};
  EXPECT_THROW(
      (void)writeFileAtomic(path("fresh.bdpc"), payload,
                            [] { throw std::runtime_error{"worker died"}; }),
      std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path("fresh.bdpc")));
  EXPECT_FALSE(tempFilesLeftBehind());
}

TEST_F(AtomicWriteTest, CrashBeforeRenamePreservesPreviousContents) {
  const common::Bytes old{0xDE, 0xAD};
  ASSERT_TRUE(writeFileAtomic(path("ckpt.bdpc"), old).ok());
  const common::Bytes replacement{0xBE, 0xEF, 0x00};
  EXPECT_THROW(
      (void)writeFileAtomic(path("ckpt.bdpc"), replacement,
                            [] { throw std::runtime_error{"kill -9"}; }),
      std::runtime_error);
  const auto read = readFile(path("ckpt.bdpc"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), old);  // the old complete checkpoint survives
  EXPECT_FALSE(tempFilesLeftBehind());
}

TEST_F(AtomicWriteTest, ReadFileOnMissingPathIsTypedIoError) {
  const auto read = readFile(path("nope.bdpc"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, "io");
}

}  // namespace
}  // namespace blackdp::codec
