// Bounded, blocking, FIFO channel between simulation processes. This is the
// basic flow-control primitive: a full channel suspends its senders, which
// is how backpressure propagates upstream in the engine models.
#ifndef SDPS_DES_CHANNEL_H_
#define SDPS_DES_CHANNEL_H_

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "des/simulator.h"

namespace sdps::des {

/// A single-simulation-thread bounded channel.
///
///   co_await ch.Send(v)  -> bool   (false when the channel was closed)
///   co_await ch.Recv()   -> std::optional<T> (nullopt when closed & drained)
///
/// Senders block (suspend) while the channel is full; receivers block while
/// it is empty. Close() releases all waiters. Values delivered to a waiting
/// receiver are handed to it directly (never parked where a later receiver
/// could steal them), so wakeups are never spurious. Resumptions go through
/// the simulator scheduler for deterministic ordering.
template <typename T>
class Channel {
 public:
  Channel(Simulator& sim, size_t capacity) : sim_(sim), capacity_(capacity) {
    SDPS_CHECK_GT(capacity, 0u);
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }
  bool closed() const { return closed_; }
  size_t pending_senders() const { return send_waiters_.size(); }
  size_t pending_receivers() const { return recv_waiters_.size(); }

  /// Closes the channel: pending and future sends fail (return false);
  /// receivers drain the buffer, then get nullopt.
  void Close() {
    if (closed_) return;
    closed_ = true;
    for (SendOp* op : send_waiters_) {
      op->accepted = false;
      sim_.ScheduleResumeAfter(0, op->handle);
    }
    send_waiters_.clear();
    for (RecvOp* op : recv_waiters_) {
      sim_.ScheduleResumeAfter(0, op->handle);  // wakes with empty value
    }
    recv_waiters_.clear();
  }

  class SendAwaiter;
  class RecvAwaiter;
  class RecvManyAwaiter;

  SendAwaiter Send(T value) { return SendAwaiter(*this, std::move(value)); }
  RecvAwaiter Recv() { return RecvAwaiter(*this); }

  /// Drains up to `max` buffered values in one resume (appended to *out,
  /// which is cleared first). Takes values in FIFO order, admitting parked
  /// senders after each take — exactly the refill sequence `max` serial
  /// Recv() calls at one instant would produce. When the buffer is empty
  /// and the channel open, parks like Recv() and wakes with exactly one
  /// value. Returns (via await_resume) false when closed & drained.
  RecvManyAwaiter RecvMany(std::vector<T>* out, size_t max) {
    return RecvManyAwaiter(*this, out, max);
  }

  /// Non-blocking send. Returns false (drops the value) when full or closed.
  bool TrySend(T value) {
    if (closed_) return false;
    if (!recv_waiters_.empty()) {
      Deliver(std::move(value));
      return true;
    }
    if (buffer_.size() >= capacity_) return false;
    buffer_.push_back(std::move(value));
    return true;
  }

 private:
  struct SendOp {
    T value;
    std::coroutine_handle<> handle;
    bool accepted = true;
  };
  struct RecvOp {
    std::coroutine_handle<> handle;
    std::optional<T> value;
  };

  /// Invariant: recv_waiters_ is non-empty only when buffer_ is empty (a
  /// pushed value always goes straight to a waiter when one exists).
  void Deliver(T value) {
    RecvOp* op = recv_waiters_.front();
    recv_waiters_.pop_front();
    op->value.emplace(std::move(value));
    sim_.ScheduleResumeAfter(0, op->handle);
  }

  void PushValue(T value) {
    if (!recv_waiters_.empty()) {
      Deliver(std::move(value));
    } else {
      buffer_.push_back(std::move(value));
    }
  }

  /// Called when a buffer slot frees: admit the oldest waiting sender.
  void AdmitWaitingSender() {
    if (send_waiters_.empty() || buffer_.size() >= capacity_) return;
    SendOp* op = send_waiters_.front();
    send_waiters_.pop_front();
    PushValue(std::move(op->value));
    sim_.ScheduleResumeAfter(0, op->handle);
  }

  Simulator& sim_;
  size_t capacity_;
  bool closed_ = false;
  std::deque<T> buffer_;
  std::deque<SendOp*> send_waiters_;
  std::deque<RecvOp*> recv_waiters_;

 public:
  class SendAwaiter {
   public:
    SendAwaiter(Channel& ch, T value) : ch_(ch) { op_.value = std::move(value); }
    bool await_ready() {
      if (ch_.closed_) {
        op_.accepted = false;
        return true;
      }
      if (!ch_.recv_waiters_.empty() || ch_.buffer_.size() < ch_.capacity_) {
        ch_.PushValue(std::move(op_.value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      op_.handle = h;
      ch_.send_waiters_.push_back(&op_);
    }
    bool await_resume() { return op_.accepted; }

   private:
    Channel& ch_;
    typename Channel::SendOp op_;
  };

  class RecvAwaiter {
   public:
    explicit RecvAwaiter(Channel& ch) : ch_(ch) {}
    bool await_ready() {
      if (!ch_.buffer_.empty()) {
        op_.value.emplace(std::move(ch_.buffer_.front()));
        ch_.buffer_.pop_front();
        ch_.AdmitWaitingSender();
        return true;
      }
      return ch_.closed_;  // closed & drained -> nullopt
    }
    void await_suspend(std::coroutine_handle<> h) {
      op_.handle = h;
      ch_.recv_waiters_.push_back(&op_);
    }
    std::optional<T> await_resume() { return std::move(op_.value); }

   private:
    Channel& ch_;
    typename Channel::RecvOp op_;
  };

  class RecvManyAwaiter {
   public:
    RecvManyAwaiter(Channel& ch, std::vector<T>* out, size_t max)
        : ch_(ch), out_(out), max_(max) {
      SDPS_CHECK_GT(max, 0u);
      out_->clear();
    }
    bool await_ready() {
      if (!ch_.buffer_.empty()) {
        // Mirror `max` serial Recv() calls at one instant: take the front,
        // then admit a parked sender (whose value lands at the back and is
        // eligible for this same drain), repeat.
        while (out_->size() < max_ && !ch_.buffer_.empty()) {
          out_->push_back(std::move(ch_.buffer_.front()));
          ch_.buffer_.pop_front();
          ch_.AdmitWaitingSender();
        }
        return true;
      }
      return ch_.closed_;  // closed & drained -> empty batch, false
    }
    void await_suspend(std::coroutine_handle<> h) {
      op_.handle = h;
      ch_.recv_waiters_.push_back(&op_);
    }
    /// True when at least one value was received.
    bool await_resume() {
      if (op_.value.has_value()) out_->push_back(std::move(*op_.value));
      return !out_->empty();
    }

   private:
    Channel& ch_;
    std::vector<T>* out_;
    size_t max_;
    typename Channel::RecvOp op_;
  };
};

}  // namespace sdps::des

#endif  // SDPS_DES_CHANNEL_H_
