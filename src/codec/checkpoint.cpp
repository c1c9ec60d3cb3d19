#include "codec/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace blackdp::codec {

namespace {

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

/// Removes the temp file on scope exit unless disarmed by commit().
class TempFileGuard {
 public:
  explicit TempFileGuard(std::string path) : path_{std::move(path)} {}
  ~TempFileGuard() {
    if (armed_) std::remove(path_.c_str());
  }
  void commit() { armed_ = false; }

 private:
  std::string path_;
  bool armed_{true};
};

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

const common::Bytes* Checkpoint::find(CheckpointTag tag) const {
  for (const CheckpointSection& s : sections) {
    if (s.tag == static_cast<std::uint16_t>(tag)) return &s.body;
  }
  return nullptr;
}

std::vector<const common::Bytes*> Checkpoint::findAll(CheckpointTag tag) const {
  std::vector<const common::Bytes*> out;
  for (const CheckpointSection& s : sections) {
    if (s.tag == static_cast<std::uint16_t>(tag)) out.push_back(&s.body);
  }
  return out;
}

common::ByteReader Checkpoint::section(CheckpointTag tag) const {
  const common::Bytes* body = find(tag);
  if (body == nullptr) {
    throw std::invalid_argument{
        "missing checkpoint section (tag " +
        std::to_string(static_cast<std::uint16_t>(tag)) + ")"};
  }
  return common::ByteReader{*body};
}

void CheckpointBuilder::add(CheckpointTag tag, common::Bytes body) {
  sections_.push_back({static_cast<std::uint16_t>(tag), std::move(body)});
}

common::Bytes CheckpointBuilder::finish() const {
  common::ByteWriter w;
  w.writeU32(kCheckpointMagic);
  w.writeU16(kCheckpointVersion);
  w.writeU32(static_cast<std::uint32_t>(sections_.size()));
  for (const CheckpointSection& s : sections_) {
    w.writeU16(s.tag);
    w.writeBlob(s.body);
  }
  common::Bytes out = std::move(w).take();
  const std::uint32_t crc = crc32(out);
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>((crc >> shift) & 0xff));
  }
  return out;
}

common::Result<Checkpoint> decodeCheckpoint(
    std::span<const std::uint8_t> bytes) {
  try {
    common::ByteReader r{bytes};
    if (r.readU32() != kCheckpointMagic) {
      return common::Error{"bad-magic", "not a BlackDP checkpoint"};
    }
    const std::uint16_t version = r.readU16();
    if (version != kCheckpointVersion) {
      return common::Error{
          "bad-version", "checkpoint schema v" + std::to_string(version) +
                             ", this build reads v" +
                             std::to_string(kCheckpointVersion) +
                             " (replay the d_req trace to migrate)"};
    }
    // Validate the trailing CRC before trusting any section length.
    if (bytes.size() < 4) {
      return common::Error{"truncated", "no room for CRC"};
    }
    const std::span<const std::uint8_t> payload =
        bytes.subspan(0, bytes.size() - 4);
    std::uint32_t storedCrc = 0;
    for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
      storedCrc = (storedCrc << 8) | bytes[i];
    }
    if (crc32(payload) != storedCrc) {
      return common::Error{"bad-crc", "checkpoint payload corrupted"};
    }

    Checkpoint checkpoint;
    checkpoint.version = version;
    const std::uint32_t count = r.readU32();
    for (std::uint32_t i = 0; i < count; ++i) {
      CheckpointSection section;
      section.tag = r.readU16();
      section.body = r.readBlob();
      checkpoint.sections.push_back(std::move(section));
    }
    if (r.remaining() != 4) {  // exactly the CRC must remain
      return common::Error{"malformed", "trailing bytes after sections"};
    }
    return checkpoint;
  } catch (const std::out_of_range& e) {
    return common::Error{"truncated", e.what()};
  } catch (const std::invalid_argument& e) {
    return common::Error{"malformed", e.what()};
  }
}

common::Status restoreGuarded(
    std::span<const std::uint8_t> blob, CheckpointTag metaTag,
    std::uint64_t configHash, std::uint64_t seed,
    const std::function<common::Status(const Checkpoint& checkpoint,
                                       common::ByteReader& meta)>& apply,
    const std::function<common::Bytes()>& save) {
  const auto decoded = decodeCheckpoint(blob);
  if (!decoded.ok()) return decoded.error();
  try {
    common::ByteReader meta = decoded.value().section(metaTag);
    if (meta.readU64() != configHash || meta.readU64() != seed) {
      return common::Error{"config-mismatch",
                           "checkpoint was written under a different "
                           "configuration or seed"};
    }
    const common::Status applied = apply(decoded.value(), meta);
    if (applied.ok() && !std::ranges::equal(save(), blob)) {
      return common::Error{"malformed", "restored state re-saves differently"};
    }
    return applied;
  } catch (const std::exception& e) {
    return common::Error{"malformed", e.what()};
  }
}

void expectConsumed(const common::ByteReader& reader, const char* section) {
  if (!reader.exhausted()) {
    throw std::invalid_argument{std::string{"trailing bytes in "} + section +
                                " section"};
  }
}

common::Status writeFileAtomic(const std::string& path,
                               std::span<const std::uint8_t> bytes,
                               const std::function<void()>& midWriteHook) {
  const std::string tmp = path + ".tmp";
  TempFileGuard guard{tmp};
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) {
      return common::Error{"io", "cannot open " + tmp + " for writing"};
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      return common::Error{"io", "short write to " + tmp};
    }
  }
  // Fault-injection point: a crash (exception) here must leave no partial
  // checkpoint behind — the guard unwinds and removes the temp file.
  if (midWriteHook) midWriteHook();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return common::Error{"io", "cannot rename " + tmp + " to " + path};
  }
  guard.commit();
  return common::Status::success();
}

common::Result<common::Bytes> readFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    return common::Error{"io", "cannot open " + path};
  }
  common::Bytes bytes{std::istreambuf_iterator<char>{in},
                      std::istreambuf_iterator<char>{}};
  if (in.bad()) {
    return common::Error{"io", "read error on " + path};
  }
  return bytes;
}

}  // namespace blackdp::codec
