// Pooled small-callable event types.
//
// The simulator's hot timers (per-hop forwards, beacon ticks) and the
// medium's fan-out context carry captures of a few dozen bytes.
// std::function heap-allocates anything over its ~16-byte small buffer,
// which charged one malloc/free pair to every delivered frame.
// BasicEventFn is a move-only type-erased callable with a 48-byte inline
// buffer sized for the largest hot capture (the medium's fan-out context:
// this + sender NodeId + Frame, held once per transmission); larger or
// alignment-exotic callables fall back to the heap, so cold paths lose
// nothing but speed. EventFn takes no arguments; FanOutFn takes the tag
// of the fan-out item it runs for (see Simulator::scheduleFanOut).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace blackdp::sim {

template <typename... Args>
class BasicEventFn {
 public:
  /// Sized for the medium's fan-out context; every hot-path lambda must fit.
  static constexpr std::size_t kInlineBytes = 48;

  BasicEventFn() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  BasicEventFn(std::nullptr_t) {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BasicEventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&, Args...>)
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  BasicEventFn(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = inlineOps<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = heapOps<Fn>();
    }
  }

  BasicEventFn(BasicEventFn&& other) noexcept { moveFrom(other); }
  BasicEventFn& operator=(BasicEventFn&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  BasicEventFn(const BasicEventFn&) = delete;
  BasicEventFn& operator=(const BasicEventFn&) = delete;
  ~BasicEventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()(Args... args) { ops_->invoke(storage_, args...); }

 private:
  struct Ops {
    void (*invoke)(void*, Args...);
    /// Move-constructs into `dst` and ends `src`'s lifetime (relocation).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static Fn* inlinePtr(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }

  template <typename Fn>
  static const Ops* inlineOps() {
    static constexpr Ops ops{
        [](void* s, Args... args) { (*inlinePtr<Fn>(s))(args...); },
        [](void* dst, void* src) {
          Fn* from = inlinePtr<Fn>(src);
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* s) { inlinePtr<Fn>(s)->~Fn(); }};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heapOps() {
    static constexpr Ops ops{
        [](void* s, Args... args) { (**inlinePtr<Fn*>(s))(args...); },
        [](void* dst, void* src) {
          ::new (dst) Fn*(*inlinePtr<Fn*>(src));
        },
        [](void* s) { delete *inlinePtr<Fn*>(s); }};
    return &ops;
  }

  void moveFrom(BasicEventFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes]{};
  const Ops* ops_{nullptr};
};

using EventFn = BasicEventFn<>;
using FanOutFn = BasicEventFn<std::uint32_t>;

}  // namespace blackdp::sim
