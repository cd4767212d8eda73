// The in-memory queue between a data generator and a SUT source (paper
// Section III-B/III-C). Each (generator, queue) pair lives on one driver
// node. The queue is unbounded: its growth IS the backpressure signal the
// driver observes, and time spent queued is part of event-time latency.
// Ingest throughput is metered here, at pop time — outside the SUT.
//
// Batched data plane: the generator can hand the queue a whole burst of
// records with precomputed future arrival times (PushBurst) instead of one
// Push per record. Pending arrivals are materialized lazily — by
// PopBatch / Close / the stat accessors, all of which first Advance() the
// queue to now(), and by a single scheduled wake when a connection is
// parked — so every externally observable value (queue depth, meter
// samples, lineage stamps, pop times) matches what the per-record Push
// sequence would have produced at the same simulated times.
#ifndef SDPS_DRIVER_QUEUE_H_
#define SDPS_DRIVER_QUEUE_H_

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "des/simulator.h"
#include "driver/throughput.h"
#include "engine/batch.h"
#include "engine/record.h"
#include "obs/lineage.h"
#include "obs/metrics.h"

namespace sdps::driver {

class DriverQueue {
 public:
  /// `meter` (optional) receives one Add per popped record, weighted by the
  /// logical tuples the record represents.
  DriverQueue(des::Simulator& sim, ThroughputMeter* meter)
      : sim_(sim),
        meter_(meter),
        obs_pushed_(obs::Registry::Default().GetCounter("driver.queue.pushed_tuples")),
        obs_popped_(obs::Registry::Default().GetCounter("driver.queue.popped_tuples")) {}

  DriverQueue(const DriverQueue&) = delete;
  DriverQueue& operator=(const DriverQueue&) = delete;

  /// Generator side: enqueue with arrival time now(), never blocks.
  void Push(engine::Record rec);

  /// Generator side, batched: enqueue a burst of records arriving at the
  /// given absolute times (non-decreasing, all >= now()). One call replaces
  /// `records.size()` Push calls; arrivals materialize lazily at their
  /// exact times (see file comment). The per-record side effects — push
  /// accounting, lineage sampling, hand-off to a parked connection at the
  /// arrival instant — are those of the equivalent Push sequence.
  void PushBurst(engine::RecordBatch&& records, const std::vector<SimTime>& arrivals);

  /// Marks end-of-stream: pending and future pops drain the buffer, then
  /// observe nullopt. All burst arrivals must be due by now.
  void Close();
  bool closed() const { return closed_; }

  // Stat accessors materialize due arrivals first so probes see exactly
  // the per-record-push state at now() (hence non-const).
  size_t queued_records() {
    Advance();
    return buffer_.size();
  }
  uint64_t queued_tuples() {
    Advance();
    return queued_tuples_;
  }
  uint64_t total_pushed_tuples() {
    Advance();
    return pushed_tuples_;
  }
  uint64_t total_popped_tuples() {
    Advance();
    return popped_tuples_;
  }

  // -- Retained region (fault-tolerant replay, paper III-C: the driver is
  //    not part of the SUT, so replayable ingest must live here) ----------
  //
  // With retention on, every popped record is also kept in a retained
  // region until the SUT acknowledges it (Flink: checkpoint complete;
  // Storm: acker flush; Spark: batch committed). After a crash, Replay()
  // re-delivers every retained-but-unacked record in original order, ahead
  // of anything still queued.

  /// Enables/disables retention. Engines with recovery enabled turn this
  /// on at Start(); the default (off) leaves the hot path untouched.
  void set_retain(bool on) {
    retain_ = on;
    if (on) retained_.reserve(kRetainedReserve);
  }
  bool retain() const { return retain_; }

  /// Pauses pops (checkpoint quiesce): while paused, PopBatch suspends even if
  /// records are buffered and Push never hands off directly. Unpausing
  /// drains buffered records to parked connections; a Close() that arrived
  /// while paused is delivered after the drain.
  void set_paused(bool on) {
    paused_ = on;
    if (on) return;
    Advance();
    DrainToWaiters();
    if (closed_) {
      for (PopOp* op : waiters_) sim_.ScheduleResumeAfter(0, op->handle);
      waiters_.clear();
    }
    ArmWake();
  }
  bool paused() const { return paused_; }

  /// Monotone count of pop operations (records, not tuples). Snapshot this
  /// at checkpoint time and pass the snapshot to Ack() on commit.
  uint64_t popped_records() {
    Advance();
    return popped_records_;
  }

  /// Drops retained records whose pop index is < `upto_popped_records`.
  void Ack(uint64_t upto_popped_records) {
    while (retained_head_ < retained_.size() && retained_base_ < upto_popped_records) {
      DropRetainedFront();
    }
  }

  /// Storm-style ack: drops retained records from the front while their
  /// event time is <= `t`. Conservative at-least-once semantics — a record
  /// with an early event time sitting behind a newer one stays retained
  /// and may be replayed (and deduplication is the SUT's problem).
  void AckThroughEventTime(SimTime t) {
    while (retained_head_ < retained_.size() &&
           retained_[retained_head_].event_time <= t) {
      DropRetainedFront();
    }
  }

  /// Number of retained (popped, unacked) records.
  size_t retained_records() const { return retained_.size() - retained_head_; }

  /// Re-queues every retained record at the front of the buffer, in the
  /// original pop order, and clears the retained region (re-pops will
  /// re-retain them). Lineage ids are stripped so replayed copies do not
  /// double-close latency samples.
  void Replay();

  class PopBatchAwaiter;
  /// SUT connection side: dequeue up to `max` buffered records in one
  /// resume (appended to *out, cleared first), in FIFO order with
  /// per-record pop accounting/metering/lineage stamps. When empty and
  /// open, parks and wakes with exactly the one record handed to it.
  /// `co_await` yields false when closed & drained (end of stream).
  PopBatchAwaiter PopBatch(engine::RecordBatch* out, size_t max) {
    return PopBatchAwaiter(*this, out, max);
  }

 private:
  struct PopOp {
    std::coroutine_handle<> handle;
    std::optional<engine::Record> value;
  };

  /// A burst record that has not reached its arrival time yet.
  struct Pending {
    engine::Record rec;
    SimTime arrival;
  };

  static constexpr size_t kRetainedReserve = 1024;

  void AccountPop(const engine::Record& rec) {
    queued_tuples_ -= rec.weight;
    popped_tuples_ += rec.weight;
    ++popped_records_;
    obs_popped_->Add(rec.weight);
    if (meter_ != nullptr) meter_->Add(sim_.now(), rec.weight);
    Retain(rec);
  }

  /// Appends to the retained region, keeping retained_base_ == pop index
  /// of the retained front (pops are contiguous, so only the empty->nonempty
  /// transition needs to re-anchor it, e.g. after Replay()).
  void Retain(const engine::Record& rec) {
    if (!retain_) return;
    if (retained_head_ == retained_.size()) {
      retained_.clear();
      retained_head_ = 0;
      retained_base_ = popped_records_ - 1;
    }
    retained_.push_back(rec);
  }

  /// Drops the oldest retained record; compacts the vector's dead head
  /// once it dominates so acks stay amortized O(1) without a deque's
  /// per-block allocation on the hot push path.
  void DropRetainedFront() {
    ++retained_head_;
    ++retained_base_;
    if (retained_head_ == retained_.size()) {
      retained_.clear();
      retained_head_ = 0;
    } else if (retained_head_ >= 1024 && retained_head_ * 2 >= retained_.size()) {
      retained_.erase(retained_.begin(),
                      retained_.begin() + static_cast<ptrdiff_t>(retained_head_));
      retained_head_ = 0;
    }
  }

  /// Materializes every pending burst record whose arrival time is due.
  /// Called from every public entry point, so externally observable state
  /// is always the per-record-push state at now().
  void Advance() {
    while (!pending_.empty() && pending_.front().arrival <= sim_.now()) {
      Pending p = std::move(pending_.front());
      pending_.pop_front();
      ArriveOne(std::move(p.rec), p.arrival);
    }
  }

  /// One record enters the queue (the body of the historical Push). `at`
  /// is the arrival time — now() for Push, the precomputed emission time
  /// for burst records (lineage sampling sees the arrival time even when
  /// materialization runs later). Hand-offs only happen at now() == `at`:
  /// a parked connection guarantees an armed wake at the front arrival.
  void ArriveOne(engine::Record&& rec, SimTime at) {
    pushed_tuples_ += rec.weight;
    obs_pushed_->Add(rec.weight);
    if (rec.lineage < 0) {
      rec.lineage = obs::LineageTracker::Default().MaybeOpen(rec.event_time, at);
    }
    if (!paused_ && !waiters_.empty()) {
      // Direct hand-off to the oldest waiting connection (never parked where
      // another popper could steal it).
      PopOp* op = waiters_.front();
      waiters_.pop_front();
      popped_tuples_ += rec.weight;
      ++popped_records_;
      obs_popped_->Add(rec.weight);
      if (meter_ != nullptr) meter_->Add(sim_.now(), rec.weight);
      Retain(rec);
      // The waiter resumes at +0 ticks, so the pop happens "now".
      obs::LineageTracker::Default().StampPopped(rec.lineage, sim_.now());
      op->value.emplace(std::move(rec));
      sim_.ScheduleResumeAfter(0, op->handle);
      return;
    }
    queued_tuples_ += rec.weight;
    buffer_.push_back(std::move(rec));
  }

  /// Ensures a wake event is scheduled for the front pending arrival while
  /// a connection is parked — so burst records hand off at their exact
  /// arrival instant, never late. Arrivals are non-decreasing per queue, so
  /// one armed wake at a time suffices; stale wakes are harmless (Advance
  /// is idempotent).
  void ArmWake() {
    if (pending_.empty() || waiters_.empty() || paused_) return;
    const SimTime at = pending_.front().arrival;
    if (wake_armed_ && wake_time_ <= at) return;
    wake_armed_ = true;
    wake_time_ = at;
    sim_.ScheduleAfter(at - sim_.now(), [this, at] {
      if (wake_armed_ && wake_time_ == at) wake_armed_ = false;
      Advance();
      ArmWake();
    });
  }

  /// Hands buffered records to parked connections (oldest first). Used by
  /// Replay() and by set_paused(false).
  void DrainToWaiters();

  des::Simulator& sim_;
  ThroughputMeter* meter_;
  obs::Counter* obs_pushed_;
  obs::Counter* obs_popped_;
  bool closed_ = false;
  bool retain_ = false;
  bool paused_ = false;
  bool wake_armed_ = false;
  SimTime wake_time_ = 0;
  std::deque<engine::Record> buffer_;
  std::deque<Pending> pending_;  // burst records not yet arrived
  std::deque<PopOp*> waiters_;
  std::vector<engine::Record> retained_;
  size_t retained_head_ = 0;    // index of the oldest live retained record
  uint64_t retained_base_ = 0;  // pop index of the oldest live retained record
  uint64_t queued_tuples_ = 0;
  uint64_t pushed_tuples_ = 0;
  uint64_t popped_tuples_ = 0;
  uint64_t popped_records_ = 0;

 public:
  class PopBatchAwaiter {
   public:
    PopBatchAwaiter(DriverQueue& q, engine::RecordBatch* out, size_t max)
        : q_(q), out_(out), max_(max) {
      SDPS_CHECK_GT(max, 0u);
      out_->Clear();
    }
    bool await_ready() {
      q_.Advance();
      if (q_.paused_) return false;  // checkpoint quiesce: park even if nonempty
      if (!q_.buffer_.empty()) {
        while (out_->size() < max_ && !q_.buffer_.empty()) {
          engine::Record rec = std::move(q_.buffer_.front());
          q_.buffer_.pop_front();
          q_.AccountPop(rec);
          obs::LineageTracker::Default().StampPopped(rec.lineage, q_.sim_.now());
          out_->PushBack(std::move(rec));
        }
        return true;
      }
      return q_.closed_;  // closed & drained -> empty batch, false
    }
    void await_suspend(std::coroutine_handle<> h) {
      op_.handle = h;
      q_.waiters_.push_back(&op_);
      q_.ArmWake();
    }
    /// True when at least one record was popped.
    bool await_resume() {
      if (op_.value.has_value()) out_->PushBack(std::move(*op_.value));
      return !out_->empty();
    }

   private:
    DriverQueue& q_;
    engine::RecordBatch* out_;
    size_t max_;
    PopOp op_;
  };
};

inline void DriverQueue::Push(engine::Record rec) {
  SDPS_CHECK(!closed_) << "Push after Close";
  Advance();  // FIFO: earlier burst arrivals enter first
  ArriveOne(std::move(rec), sim_.now());
}

inline void DriverQueue::PushBurst(engine::RecordBatch&& records,
                                   const std::vector<SimTime>& arrivals) {
  SDPS_CHECK(!closed_) << "PushBurst after Close";
  SDPS_CHECK_EQ(records.size(), arrivals.size());
  SimTime prev = sim_.now();
  for (size_t i = 0; i < records.size(); ++i) {
    SDPS_CHECK_GE(arrivals[i], prev) << "burst arrivals must be non-decreasing";
    prev = arrivals[i];
    pending_.push_back(Pending{std::move(records[i]), arrivals[i]});
  }
  records.Clear();
  Advance();  // a zero-interval head arrives immediately
  ArmWake();
}

inline void DriverQueue::Replay() {
  // Oldest retained record ends up at buffer_.front().
  for (size_t i = retained_.size(); i > retained_head_; --i) {
    engine::Record rec = retained_[i - 1];
    rec.lineage = -1;
    rec.ingest_time = -1;  // the replayed copy is re-ingested by the SUT
    queued_tuples_ += rec.weight;
    buffer_.push_front(std::move(rec));
  }
  retained_.clear();
  retained_head_ = 0;
  // A connection may be parked in PopBatch (it was waiting when the crash hit);
  // hand replayed records to waiters just like Push does.
  DrainToWaiters();
}

inline void DriverQueue::DrainToWaiters() {
  if (paused_) return;
  while (!waiters_.empty() && !buffer_.empty()) {
    PopOp* op = waiters_.front();
    waiters_.pop_front();
    engine::Record rec = std::move(buffer_.front());
    buffer_.pop_front();
    AccountPop(rec);
    obs::LineageTracker::Default().StampPopped(rec.lineage, sim_.now());
    op->value.emplace(std::move(rec));
    sim_.ScheduleResumeAfter(0, op->handle);
  }
}

inline void DriverQueue::Close() {
  if (closed_) return;
  Advance();
  SDPS_CHECK(pending_.empty()) << "Close before all burst arrivals were due";
  closed_ = true;
  // While paused, parked connections may still owe buffered records;
  // set_paused(false) completes the close hand-off after draining.
  if (paused_) return;
  for (PopOp* op : waiters_) sim_.ScheduleResumeAfter(0, op->handle);
  waiters_.clear();
}

}  // namespace sdps::driver

#endif  // SDPS_DRIVER_QUEUE_H_
