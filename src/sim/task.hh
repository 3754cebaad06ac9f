// Coroutine task type for simulated processes.
//
// Every piece of concurrent logic in the simulation — worker agents, the JETS
// service, mpiexec, Hydra proxies, MPI ranks — is written as a `Task<T>`
// coroutine. Tasks suspend on awaitables (delays, channel receives, socket
// I/O) and are resumed by the `Engine` event loop at the appropriate
// simulated time. A child task's frame is owned by the awaiting parent's
// frame, so destroying an actor's root task tears down its whole coroutine
// chain — this is how process kill (fault injection) works.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

namespace jets::sim {

class Engine;

/// Out-of-line hook (defined in engine.cc) through which a completed *root*
/// task notifies its engine; avoids a circular include with engine.hh.
void engine_actor_finished(Engine& engine, std::uint64_t actor_id,
                           std::exception_ptr error);

/// Per-actor bookkeeping shared by every coroutine frame the actor runs.
///
/// `slot`/`gen` identify the actor's slab slot in the engine: events queued
/// for this actor carry a copy of both and are skipped once the slot's
/// generation moves on (the actor was killed or finished). This replaces a
/// per-resumption `weak_ptr` cancellation token with a plain epoch compare.
struct ActorContext {
  Engine* engine = nullptr;
  std::uint64_t id = 0;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

/// Base class for all Task promises; carries the actor context and the
/// continuation to resume when the coroutine completes.
class PromiseBase {
 public:
  ActorContext* context() const noexcept { return ctx_; }
  void set_context(ActorContext* ctx) noexcept { ctx_ = ctx; }
  void set_continuation(std::coroutine_handle<> h) noexcept { continuation_ = h; }
  std::coroutine_handle<> continuation() const noexcept { return continuation_; }

  /// Set by unhandled_exception(); surfaced to the awaiter or the engine.
  std::exception_ptr error;

 protected:
  ActorContext* ctx_ = nullptr;
  std::coroutine_handle<> continuation_;
};

namespace detail {

/// Final awaiter: symmetric-transfers control back to whoever co_awaited the
/// completed task. A root task (no continuation) instead notifies its engine,
/// which reaps the frame once the current resume unwinds.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    PromiseBase& p = h.promise();
    if (auto cont = p.continuation()) return cont;
    if (ActorContext* ctx = p.context()) {
      engine_actor_finished(*ctx->engine, ctx->id, p.error);
    }
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

/// Awaiter used when a Task is co_awaited: propagates the parent's actor
/// context into the child, starts it, and resumes the parent on completion.
template <typename TaskT>
struct TaskAwaiter {
  typename TaskT::Handle child;

  bool await_ready() const noexcept { return !child || child.done(); }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> parent) noexcept {
    child.promise().set_context(parent.promise().context());
    child.promise().set_continuation(parent);
    return child;  // symmetric transfer: start the child now
  }

  decltype(auto) await_resume() {
    auto& p = child.promise();
    if (p.error) std::rethrow_exception(p.error);
    if constexpr (!std::is_void_v<typename TaskT::value_type>) {
      return std::move(*p.value);
    }
  }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Moving a Task transfers ownership
/// of the coroutine frame; the destructor destroys a still-suspended frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { error = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;
  using value_type = T;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return handle_ != nullptr; }
  bool done() const noexcept { return handle_ && handle_.done(); }
  Handle handle() const noexcept { return handle_; }

  /// Releases ownership of the frame (used by Engine for root tasks).
  Handle release() noexcept { return std::exchange(handle_, nullptr); }

  /// Awaiting a task propagates the parent's actor context into the child,
  /// starts the child, and resumes the parent once the child completes.
  auto operator co_await() && noexcept { return detail::TaskAwaiter<Task>{handle_}; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;
  using value_type = void;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return handle_ != nullptr; }
  bool done() const noexcept { return handle_ && handle_.done(); }
  Handle handle() const noexcept { return handle_; }
  Handle release() noexcept { return std::exchange(handle_, nullptr); }

  auto operator co_await() && noexcept { return detail::TaskAwaiter<Task>{handle_}; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_;
};

}  // namespace jets::sim
