// Wire message framing for middleware protocols.
//
// All JETS-internal protocols (worker registration, task dispatch, PMI,
// proxy control, the MPI wire) exchange small tagged messages; bulk
// transfers (file staging, application stdout, MPI payloads) are
// represented by `payload_bytes` rather than materialized data, so the
// simulator charges wire time without allocating gigabytes.
//
// A frame travels in one of two forms. A *typed* frame carries its
// protocol verb as a struct in `body` (Message::typed); a *text* frame
// carries decimal strings in `args`. Both charge the same wire bytes: a
// typed body reports the byte length of its verb's frozen text encoding,
// so the fabric clock cannot tell them apart. The protocol layer
// (net/rpc.hh) sends typed frames and keeps the text codec as the
// conformance oracle and as the fallback for text frames.
#pragma once

#include <cstddef>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace jets::net {

/// Copyable, type-erased holder of one protocol value. Values of up to
/// kInlineBytes live inline (every PMI and MPI verb); larger ones (a task
/// dispatch with its argv, a proxy's exec spec) spill to the heap. Shaped
/// like sim::Callback, plus copy, because tests copy frames.
class Body {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Body() noexcept = default;

  /// Holds `value`, whose frozen text encoding is `text_size` bytes.
  template <typename T>
    requires(!std::is_same_v<std::decay_t<T>, Body>)
  Body(T&& value, std::size_t text_size) : text_size_(text_size) {
    using V = std::decay_t<T>;
    if constexpr (kFitsInline<V>) {
      ::new (static_cast<void*>(storage_)) V(std::forward<T>(value));
    } else {
      ::new (static_cast<void*>(storage_)) V*(new V(std::forward<T>(value)));
    }
    ops_ = ops_of<V>();
  }

  Body(const Body& o) : ops_(o.ops_), text_size_(o.text_size_) {
    if (ops_ != nullptr) ops_->copy(storage_, o.storage_);
  }
  Body(Body&& o) noexcept
      : ops_(o.ops_), text_size_(std::exchange(o.text_size_, 0)) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }
  Body& operator=(const Body& o) {
    if (this != &o) *this = Body(o);
    return *this;
  }
  Body& operator=(Body&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) o.ops_->relocate(storage_, o.storage_);
      ops_ = std::exchange(o.ops_, nullptr);
      text_size_ = std::exchange(o.text_size_, 0);
    }
    return *this;
  }
  ~Body() { reset(); }

  bool empty() const noexcept { return ops_ == nullptr; }
  /// Byte length of the held verb's text args, separators included.
  std::size_t text_size() const noexcept { return text_size_; }

  /// The held value if it is a T, else nullptr.
  template <typename T>
  T* get() noexcept {
    if (ops_ != ops_of<T>()) return nullptr;
    if constexpr (kFitsInline<T>) {
      return std::launder(reinterpret_cast<T*>(storage_));
    } else {
      return *std::launder(reinterpret_cast<T**>(storage_));
    }
  }

 private:
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  struct Ops {
    void (*copy)(void* dst, const void* src);
    /// Move-constructs into `dst` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename T>
  static constexpr bool kFitsInline =
      sizeof(T) <= kInlineBytes && alignof(T) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  static T* inline_ptr(void* p) {
    return std::launder(static_cast<T*>(p));
  }
  template <typename T>
  static const T* inline_ptr(const void* p) {
    return std::launder(static_cast<const T*>(p));
  }
  template <typename T>
  static T* heap_ptr(const void* p) {
    return *std::launder(static_cast<T* const*>(p));
  }

  template <typename T>
  static constexpr Ops kInlineOps{
      [](void* dst, const void* src) { ::new (dst) T(*inline_ptr<T>(src)); },
      [](void* dst, void* src) noexcept {
        T* from = inline_ptr<T>(src);
        ::new (dst) T(std::move(*from));
        from->~T();
      },
      [](void* self) noexcept { inline_ptr<T>(self)->~T(); },
  };
  template <typename T>
  static constexpr Ops kHeapOps{
      [](void* dst, const void* src) { ::new (dst) T*(new T(*heap_ptr<T>(src))); },
      [](void* dst, void* src) noexcept { ::new (dst) T*(heap_ptr<T>(src)); },
      [](void* self) noexcept { delete heap_ptr<T>(self); },
  };
  template <typename T>
  static constexpr const Ops* ops_of() {
    if constexpr (kFitsInline<T>) {
      return &kInlineOps<T>;
    } else {
      return &kHeapOps<T>;
    }
  }

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
  std::size_t text_size_ = 0;
};

struct Message {
  /// Protocol verb, e.g. "register", "task", "pmi.put", "exit".
  std::string tag;
  /// Protocol fields of a text frame (command lines, KVS pairs, status
  /// codes...). Empty in a typed frame.
  std::vector<std::string> args;
  /// Size of any bulk payload this message stands for (bytes).
  std::size_t payload_bytes = 0;
  /// The verb as a struct (typed frames only).
  Body body;

  Message() = default;
  explicit Message(std::string tag) : tag(std::move(tag)) {}
  Message(std::string tag, std::vector<std::string> args,
          std::size_t payload_bytes = 0)
      : tag(std::move(tag)), args(std::move(args)), payload_bytes(payload_bytes) {}

  /// The typed frame of protocol verb `v`: tag M::kTag, the verb's bulk
  /// bytes (its `payload` field, if any) as payload_bytes, and a body
  /// charged at `text_size` bytes, the length of v.encode()'s args with
  /// separators (by default v.text_size()).
  template <typename M>
  static Message typed(M v) {
    const std::size_t text = v.text_size();
    return typed(std::move(v), text);
  }
  template <typename M>
  static Message typed(M v, std::size_t text_size) {
    Message m(M::kTag);
    if constexpr (requires { v.payload; }) {
      m.payload_bytes = static_cast<std::size_t>(v.payload);
    }
    m.body = Body(std::move(v), text_size);
    return m;
  }

  /// Bytes this message occupies on the wire (framing + fields + payload).
  std::size_t wire_size() const {
    constexpr std::size_t kHeader = 16;  // length/type framing
    std::size_t fields = tag.size() + body.text_size();
    for (const std::string& a : args) fields += a.size() + 1;
    return kHeader + fields + payload_bytes;
  }

  const std::string& arg(std::size_t i) const { return args.at(i); }
};

}  // namespace jets::net
