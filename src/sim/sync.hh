// Synchronization primitives for simulated processes: Gate (one-shot /
// re-armable broadcast event), Channel<T> (unbounded MPSC-style message
// queue with optional receive timeout), and Semaphore (counted permits with
// FIFO handoff and leak-proof cancellation).
//
// All primitives wake waiters *through the engine's event queue* at the
// current simulated time rather than resuming inline. This keeps the event
// loop the only resumer (bounded stack depth) and preserves deterministic
// FIFO ordering between equal-time wakeups.
//
// Allocation budget: building a Channel or Semaphore allocates nothing, and
// neither does parking a receive or an acquire. A parked waiter is a node
// embedded in its awaiter, which lives in the suspended coroutine's frame,
// threaded onto an intrusive FIFO (detail::WaitList). A channel's buffer is
// a vector with a head index, so memory is taken only when a value is
// actually queued. Only recv_for allocates, a small state shared with its
// timer (see Channel::RecvAwaiter).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace jets::sim {

/// A broadcast event. wait() suspends until open(); open() releases all
/// current and future waiters until close() re-arms it.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(&engine) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const noexcept { return open_; }

  void open() {
    if (open_) return;
    open_ = true;
    for (Resumption& r : waiters_) {
      engine_->schedule(engine_->now(), std::move(r));
    }
    waiters_.clear();
  }

  /// Re-arms the gate so subsequent wait() calls block again.
  void close() { open_ = false; }

  struct WaitAwaiter {
    Gate* gate;
    bool await_ready() const noexcept { return gate->open_; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) {
      gate->waiters_.push_back(Resumption::of(h, h.promise().context()));
    }
    void await_resume() const noexcept {}
  };

  auto wait() { return WaitAwaiter{this}; }

 private:
  Engine* engine_;
  bool open_ = false;
  std::vector<Resumption> waiters_;
};

namespace detail {

class WaitList;

/// A parked waiter: the resumption plus its links in a WaitList. Awaiters
/// derive from it, so the node lives in the suspended coroutine's frame and
/// parking allocates nothing. `list` is non-null exactly while linked.
struct Waiter {
  Waiter() = default;
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  Resumption resume;
  WaitList* list = nullptr;
  Waiter* prev = nullptr;
  Waiter* next = nullptr;
};

/// Intrusive FIFO of parked waiters. A waiter unlinks itself when its frame
/// is destroyed (actor kill); destroying the list detaches whatever is still
/// parked, since frames can outlive the primitive (Engine::shutdown tears
/// actors down after the objects they waited on may be gone).
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList() {
    while (head_) remove(*head_);
  }

  bool empty() const noexcept { return head_ == nullptr; }
  std::size_t size() const noexcept { return size_; }

  void push_back(Waiter& w) {
    assert(w.list == nullptr);
    w.list = this;
    w.prev = tail_;
    w.next = nullptr;
    (tail_ ? tail_->next : head_) = &w;
    tail_ = &w;
    ++size_;
  }

  void remove(Waiter& w) noexcept {
    assert(w.list == this);
    (w.prev ? w.prev->next : head_) = w.next;
    (w.next ? w.next->prev : tail_) = w.prev;
    w.list = nullptr;
    w.prev = w.next = nullptr;
    --size_;
  }

  /// Unlinks and returns the oldest waiter whose actor is still alive,
  /// dropping expired ones on the way; nullptr if none is left.
  Waiter* pop_live() noexcept {
    while (Waiter* w = head_) {
      remove(*w);
      if (!w->resume.expired()) return w;
    }
    return nullptr;
  }

 private:
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Unbounded FIFO message channel. Senders never block; receivers block
/// until a value arrives, the channel is closed, or (recv_for) a timeout
/// elapses. Receivers whose actor has been killed are skipped.
///
/// Channels are typically held via std::shared_ptr when endpoints have
/// different lifetimes (e.g., the two ends of a socket).
template <typename T>
class Channel {
 public:
  class RecvAwaiter;

  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a value; delivers directly to the oldest live waiter if any.
  void push(T value) {
    assert(!closed_ && "push on closed channel");
    if (detail::Waiter* w = waiters_.pop_live()) {
      static_cast<RecvAwaiter*>(w)->settle(std::move(value));
      return;
    }
    buffer_.push_back(std::move(value));
  }

  /// Closes the channel: pending waiters (and future receives once the
  /// buffer drains) complete with std::nullopt. Idempotent.
  void close() {
    if (closed_) return;
    closed_ = true;
    while (detail::Waiter* w = waiters_.pop_live()) {
      static_cast<RecvAwaiter*>(w)->settle(std::nullopt);  // "closed"
    }
  }

  bool closed() const noexcept { return closed_; }
  bool empty() const noexcept { return head_ == buffer_.size(); }
  std::size_t size() const noexcept { return buffer_.size() - head_; }

  /// `co_await ch.recv()` -> std::optional<T>; nullopt means closed.
  RecvAwaiter recv() { return RecvAwaiter(this, -1); }

  /// `co_await ch.recv_for(d)` -> std::optional<T>; nullopt means timeout
  /// or closed. `d < 0` means wait forever.
  RecvAwaiter recv_for(Duration timeout) { return RecvAwaiter(this, timeout); }

  /// The receive awaitable. It lives in the awaiting coroutine's frame and
  /// is its own wait-list node, so it is neither copyable nor movable.
  class RecvAwaiter : private detail::Waiter {
   public:
    /// A null channel stands for an endpoint that is already shut: the
    /// receive completes at once with std::nullopt.
    RecvAwaiter(Channel* ch, Duration timeout) : ch_(ch), timeout_(timeout) {}
    ~RecvAwaiter() {
      if (list) list->remove(*this);
      if (timed_) timed_->waiter = nullptr;
    }

    bool await_ready() {
      if (!ch_) return true;
      if (!ch_->empty()) {
        value_ = ch_->pop_front();
        return true;
      }
      return ch_->closed_ || timeout_ == 0;  // nullopt
    }

    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) {
      resume = Resumption::of(h, h.promise().context());
      if (timeout_ >= 0) arm_timer();
      ch_->waiters_.push_back(*this);
    }

    std::optional<T> await_resume() {
      timer_.cancel();  // no-op unless a delivery beat the timeout
      return std::move(value_);
    }

   private:
    friend class Channel;

    /// What a recv_for timer reaches its waiter through. The timer event
    /// is never cancelled when the frame dies: it still fires at its
    /// (time, seq) as a no-op, because a cancelled event does not advance
    /// the clock and so could move where run_until() stops. The frame
    /// clears `waiter` on destruction, so the timer cannot dangle.
    struct Timed {
      RecvAwaiter* waiter;
    };

    void arm_timer() {
      Engine* engine = ch_->engine_;
      timed_ = std::make_shared<Timed>(Timed{this});
      timer_ = engine->call_at(engine->now() + timeout_, [t = timed_] {
        if (t->waiter) t->waiter->settle(std::nullopt);  // "timeout"
      });
    }

    /// Completes the wait with `v` (nullopt = closed or timed out) and
    /// queues the resumption. Later settles (a timer after a delivery, or a
    /// delivery after the timer) are no-ops.
    void settle(std::optional<T> v) {
      if (settled_) return;
      settled_ = true;
      if (list) list->remove(*this);
      value_ = std::move(v);
      if (!resume.expired()) {
        resume.engine->schedule(resume.engine->now(), resume);
      }
    }

    Channel* ch_;
    Duration timeout_;
    bool settled_ = false;
    std::optional<T> value_;
    std::shared_ptr<Timed> timed_;
    TimerHandle timer_;
  };

 private:
  T pop_front() {
    T v = std::move(buffer_[head_++]);
    if (head_ == buffer_.size()) {
      buffer_.clear();
      head_ = 0;
    } else if (head_ > buffer_.size() / 2) {
      // The consumed prefix passed half: compact, keeping the capacity.
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

  Engine* engine_;
  std::vector<T> buffer_;   // live values are [head_, size())
  std::size_t head_ = 0;
  detail::WaitList waiters_;
  bool closed_ = false;
};

/// Counted semaphore with FIFO handoff. A permit granted to a waiter whose
/// coroutine is destroyed before it resumes is returned to the pool (the
/// awaiter's destructor detects "granted but never consumed"), so kills
/// cannot leak permits.
class Semaphore {
 public:
  class AcquireAwaiter;

  Semaphore(Engine& engine, std::size_t permits)
      : engine_(&engine), available_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t available() const noexcept { return available_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

  /// `co_await sem.acquire()`: obtains one permit (FIFO order).
  AcquireAwaiter acquire() { return AcquireAwaiter(this); }

  /// Claims a permit iff one is free right now; never suspends.
  bool try_acquire() {
    if (available_ == 0) return false;
    --available_;
    return true;
  }

  /// Returns one permit, handing it to the oldest live waiter if any.
  void release() {
    if (detail::Waiter* w = waiters_.pop_live()) {
      static_cast<AcquireAwaiter*>(w)->granted_ = true;  // handed over
      engine_->schedule(engine_->now(), w->resume);
      return;
    }
    ++available_;
  }

  /// The acquire awaitable; like Channel::RecvAwaiter, it is its own
  /// wait-list node in the awaiting frame.
  class AcquireAwaiter : private detail::Waiter {
   public:
    explicit AcquireAwaiter(Semaphore* sem) : sem_(sem) {}
    ~AcquireAwaiter() {
      if (list) list->remove(*this);
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
      sem_->waiters_.push_back(*this);
    }

    void await_resume() noexcept { consumed_ = true; }

   private:
    friend class Semaphore;
    Semaphore* sem_;
    bool granted_ = false;
    bool consumed_ = false;
  };

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

  static Task<Permit> acquire(Semaphore& sem) {
    co_await sem.acquire();
    co_return Permit(sem);
  }

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
