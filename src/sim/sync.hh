// Synchronization primitives for simulated processes: Gate (one-shot /
// re-armable broadcast event), Channel<T> (unbounded MPSC-style message
// queue), and Semaphore (counted permits with FIFO handoff and leak-proof
// cancellation).
//
// All primitives wake waiters *through the engine's event queue* at the
// current simulated time rather than resuming inline. This keeps the event
// loop the only resumer (bounded stack depth) and preserves deterministic
// FIFO ordering between equal-time wakeups.
#pragma once

#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace jets::sim {

namespace detail {

/// FIFO ring over a power-of-two vector. It owns no heap memory until the
/// first push, so an idle channel costs nothing, and once it has grown to
/// a channel's working depth push/pop never allocate.
template <typename T>
class Ring {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push(T&& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes and returns the oldest value. Requires !empty().
  T pop() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

 private:
  void grow() {
    std::vector<T> next(slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

/// A broadcast event. wait() suspends until open(); open() releases all
/// current and future waiters until close() re-arms it. Waiters park on
/// their own awaiters (see Channel::RecvAwaiter), so waiting allocates
/// nothing; a gate destroyed under waiters detaches them.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(&engine) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const noexcept { return open_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

  void open() {
    if (open_) return;
    open_ = true;
    while (!waiters_.empty()) {
      engine_->schedule(engine_->now(), waiters_.pop_front()->resume);
    }
  }

  /// Re-arms the gate so subsequent wait() calls block again.
  void close() { open_ = false; }

  class WaitAwaiter : public detail::WaitNode {
   public:
    explicit WaitAwaiter(Gate* gate) : gate_(gate) {}
    bool await_ready() const noexcept { return gate_->open_; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) {
      resume = Resumption::of(h, h.promise().context());
      gate_->waiters_.push_back(this);
    }
    void await_resume() const noexcept {}

   private:
    Gate* gate_;
  };

  WaitAwaiter wait() { return WaitAwaiter(this); }

 private:
  Engine* engine_;
  bool open_ = false;
  detail::WaitList waiters_;
};

/// Unbounded FIFO message channel. Senders never block; receivers block
/// until a value arrives or the channel is closed. Receivers whose actor
/// has been killed are skipped.
///
/// Channels are typically held via std::shared_ptr when endpoints have
/// different lifetimes (e.g., the two ends of a socket).
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a value; delivers directly to the oldest live waiter if any.
  void push(T value) {
    assert(!closed_ && "push on closed channel");
    while (!waiters_.empty()) {
      auto* w = static_cast<RecvAwaiter*>(waiters_.pop_front());
      if (w->resume.expired()) continue;
      w->value_ = std::move(value);
      engine_->schedule(engine_->now(), w->resume);
      return;
    }
    buffer_.push(std::move(value));
  }

  /// Closes the channel: pending waiters (and future receives once the
  /// buffer drains) complete with std::nullopt. Idempotent.
  void close() {
    if (closed_) return;
    closed_ = true;
    while (!waiters_.empty()) {
      // The value stays nullopt: "closed".
      engine_->schedule(engine_->now(), waiters_.pop_front()->resume);
    }
  }

  bool closed() const noexcept { return closed_; }
  bool empty() const noexcept { return buffer_.empty(); }
  std::size_t size() const noexcept { return buffer_.size(); }

  /// Awaiter of recv(), and the receiver's wait node: it lives in the
  /// suspended frame, so a blocking receive allocates nothing. A null
  /// channel stands for a closed endpoint (completes with nullopt). A frame
  /// destroyed mid-wait unlinks its node (~WaitNode), so a killed receiver
  /// leaves nothing behind.
  class RecvAwaiter : public detail::WaitNode {
   public:
    explicit RecvAwaiter(Channel* ch) : ch_(ch) {}

    bool await_ready() {
      if (ch_ == nullptr) return true;
      if (!ch_->buffer_.empty()) {
        value_ = ch_->buffer_.pop();
        return true;
      }
      return ch_->closed_;  // nullopt
    }

    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) {
      resume = Resumption::of(h, h.promise().context());
      ch_->waiters_.push_back(this);
    }

    std::optional<T> await_resume() { return std::move(value_); }

   private:
    friend class Channel;
    Channel* ch_;
    std::optional<T> value_;
  };

  /// `co_await ch.recv()` -> std::optional<T>; nullopt means closed.
  RecvAwaiter recv() { return RecvAwaiter(this); }

 private:
  Engine* engine_;
  detail::Ring<T> buffer_;
  detail::WaitList waiters_;
  bool closed_ = false;
};

/// Counted semaphore with FIFO handoff. A permit granted to a waiter whose
/// coroutine is destroyed before it resumes is returned to the pool (the
/// awaiter's destructor detects "granted but never consumed"), so kills
/// cannot leak permits.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t permits)
      : engine_(&engine), available_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t available() const noexcept { return available_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

  /// Awaiter of acquire(), and the waiter's node in the FIFO (see
  /// Channel::RecvAwaiter).
  class AcquireAwaiter : public detail::WaitNode {
   public:
    explicit AcquireAwaiter(Semaphore* sem) : sem_(sem) {}

    ~AcquireAwaiter() {
      // Frame destroyed after the permit was handed over but before the
      // coroutine resumed: give the permit back.
      if (granted_ && !consumed_) sem_->release();
    }

    bool await_ready() {
      if (sem_->available_ > 0) {
        --sem_->available_;
        return true;
      }
      return false;
    }

    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) {
      resume = Resumption::of(h, h.promise().context());
      sem_->waiters_.push_back(this);
    }

    void await_resume() noexcept { consumed_ = true; }

   protected:
    Semaphore* semaphore() const noexcept { return sem_; }

   private:
    friend class Semaphore;
    Semaphore* sem_;
    bool granted_ = false;
    bool consumed_ = false;
  };

  /// `co_await sem.acquire()`: obtains one permit (FIFO order).
  AcquireAwaiter acquire() { return AcquireAwaiter(this); }

  /// Returns one permit, handing it to the oldest live waiter if any.
  void release() {
    while (!waiters_.empty()) {
      auto* w = static_cast<AcquireAwaiter*>(waiters_.pop_front());
      if (w->resume.expired()) continue;
      w->granted_ = true;
      engine_->schedule(engine_->now(), w->resume);
      return;  // permit handed over directly
    }
    ++available_;
  }

 private:
  Engine* engine_;
  std::size_t available_;
  detail::WaitList waiters_;
};

/// RAII permit holder: `auto permit = co_await Permit::acquire(sem);`
/// releases on destruction (including when the owning frame is killed).
class Permit {
 public:
  Permit() = default;
  explicit Permit(Semaphore& sem) : sem_(&sem) {}
  Permit(Permit&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
  Permit& operator=(Permit&& o) noexcept {
    if (this != &o) {
      reset();
      sem_ = std::exchange(o.sem_, nullptr);
    }
    return *this;
  }
  Permit(const Permit&) = delete;
  Permit& operator=(const Permit&) = delete;
  ~Permit() { reset(); }

  /// Awaiter of acquire(): the semaphore's own, resuming with the permit,
  /// so acquiring allocates no coroutine frame. A permit granted to a
  /// waiter killed before it resumed still goes back to the semaphore.
  class AcquireAwaiter : public Semaphore::AcquireAwaiter {
   public:
    using Semaphore::AcquireAwaiter::AcquireAwaiter;
    Permit await_resume() noexcept {
      Semaphore::AcquireAwaiter::await_resume();
      return Permit(*semaphore());
    }
  };

  static AcquireAwaiter acquire(Semaphore& sem) { return AcquireAwaiter(&sem); }

  void reset() {
    if (sem_) {
      sem_->release();
      sem_ = nullptr;
    }
  }

 private:
  Semaphore* sem_ = nullptr;
};

}  // namespace jets::sim
