// Move-only `void()` callable for the engine's callback events.
//
// libstdc++'s std::function keeps a functor inline only if it is trivially
// copyable and at most 16 bytes, so the closures on the message path (a
// counted connection reference per socket send and per close) would each
// cost one heap allocation per event. Callback keeps any closure of up to
// kInlineBytes inline, whatever its copy semantics, and spills larger ones
// to the heap. kInlineBytes covers the hot call_at sites: socket delivery
// and EOF (16 bytes), the service's liveness and retry timers (16) and the
// Swift engine's statement activations (16), with room for one more
// pointer. At 24 bytes plus the ops pointer a Callback is as large as the
// std::function it replaces, so the event slab does not grow.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace jets::sim {

class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 24;

  Callback() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  Callback(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(storage_, o.storage_);
        ops_ = std::exchange(o.ops_, nullptr);
      }
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

 private:
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into `dst` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static Fn* inline_ptr(void* p) {
    return std::launder(static_cast<Fn*>(p));
  }
  template <typename Fn>
  static Fn*& heap_ptr(void* p) {
    return *std::launder(static_cast<Fn**>(p));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self) { (*inline_ptr<Fn>(self))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = inline_ptr<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept { inline_ptr<Fn>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self) { (*heap_ptr<Fn>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(heap_ptr<Fn>(src));
      },
      [](void* self) noexcept { delete heap_ptr<Fn>(self); },
  };

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace jets::sim
