// Link-layer frames.
//
// The medium is payload-agnostic: protocol layers (AODV, cluster management,
// BlackDP) define payload types derived from Payload and dispatch on them at
// the receiver. Payloads are immutable and shared — a broadcast delivers the
// same payload object to every receiver, exactly like bytes on the air.
//
// Dispatch is tag-based: every library payload type carries a PayloadKind
// set at construction, so payloadAs<T> is a load-and-compare instead of a
// dynamic_cast. Types without a kKind tag (test-local payloads) still work
// through the dynamic_cast fallback. Payload storage is pooled — see
// net/payload_arena.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>

#include "common/ids.hpp"
#include "net/payload_arena.hpp"

namespace blackdp::net {

/// Tags for every library payload type (tag dispatch in payloadAs). kOther
/// marks payloads defined outside the library (tests), which dispatch via
/// dynamic_cast.
enum class PayloadKind : std::uint8_t {
  kOther = 0,
  // aodv
  kRouteRequest,
  kRouteReply,
  kHelloBeacon,
  kRouteError,
  kDataPacket,
  // cluster
  kJoinRequest,
  kJoinReply,
  kLeaveNotice,
  kRevocationAnnouncement,
  // core (BlackDP)
  kAuthHello,
  kDetectionRequest,
  kForwardedDetection,
  kDetectionResult,
  kDetectionResponse,
  // scenario (megacity corridor)
  kCorridorBeacon,
  kCorridorDigest,
  kCorridorData,
  kCorridorAck,
  kCorridorReport,
  kCorridorIsolation,
};

/// Base class for every over-the-air message body.
class Payload {
 public:
  virtual ~Payload() = default;

  /// Non-virtual: the tag is stamped at construction, so dispatch is one
  /// load + compare on the hot path.
  [[nodiscard]] PayloadKind kind() const { return kind_; }

  /// Short type tag for logging/metrics ("rreq", "jrep", "dreq", ...).
  [[nodiscard]] virtual std::string_view typeName() const = 0;

  /// Approximate on-air size in bytes (headers + body); drives byte counters.
  [[nodiscard]] virtual std::uint32_t sizeBytes() const { return 64; }

 protected:
  Payload() = default;
  explicit Payload(PayloadKind kind) : kind_{kind} {}

 private:
  PayloadKind kind_{PayloadKind::kOther};
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Creates an immutable payload in the payload arena.
template <typename T, typename... Args>
[[nodiscard]] PayloadPtr makePayload(Args&&... args) {
  return std::allocate_shared<const T>(ArenaAllocator<const T>{},
                                       std::forward<Args>(args)...);
}

/// Creates a payload the caller fills in before handing it to a frame
/// (the build-then-freeze pattern used all over the protocol code). Same
/// arena storage as makePayload.
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> makeMutablePayload(Args&&... args) {
  return std::allocate_shared<T>(ArenaAllocator<T>{},
                                 std::forward<Args>(args)...);
}

/// Downcast helper; returns nullptr if the payload is of a different type.
/// Tagged library types resolve by kind compare; anything else falls back
/// to dynamic_cast.
template <typename T>
[[nodiscard]] const T* payloadAs(const PayloadPtr& payload) {
  if constexpr (requires { { T::kKind } -> std::convertible_to<PayloadKind>; }) {
    static_assert(std::is_final_v<T>,
                  "kind dispatch requires leaf payload types");
    if (payload == nullptr || payload->kind() != T::kKind) return nullptr;
    return static_cast<const T*>(payload.get());
  } else {
    return dynamic_cast<const T*>(payload.get());
  }
}

/// One frame on the air.
struct Frame {
  common::Address src{};  ///< sender's current pseudonymous address
  common::Address dst{};  ///< receiver address or kBroadcastAddress
  PayloadPtr payload{};

  [[nodiscard]] bool isBroadcast() const {
    return dst == common::kBroadcastAddress;
  }
};

}  // namespace blackdp::net
