#include "rt/pipeline.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "chaos/recovery.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/random.h"
#include "driver/latency_sink.h"
#include "engine/batch.h"
#include "engine/columnar.h"
#include "engine/partition.h"
#include "engine/watermark.h"
#include "engine/window_state.h"
#include "obs/flight_recorder.h"
#include "obs/log_bridge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/chaos.h"
#include "rt/clock.h"
#include "rt/executor.h"
#include "rt/generator.h"
#include "rt/profiler.h"
#include "rt/spsc_ring.h"
#include "rt/supervisor.h"

namespace sdps::rt {

namespace {

using engine::kFinalWatermark;
using engine::OutputRecord;
using engine::Record;
using engine::WindowState;

/// One ring element: a run of same-partition records (the batched data
/// plane's coalescing unit) and/or an in-band per-source watermark. The
/// watermark applies AFTER the records — ring FIFO order is what keeps
/// watermarks from overtaking the records they retire. `origin` is the
/// producing source on every envelope (the recovery path acks per ring,
/// so tasks must know which ring each envelope came from). Envelopes
/// circulate: the ring hands every slot's storage back to the producer on
/// its next lap (SpscRing::TryPushSwap), so a steady-state run allocates
/// none.
struct Envelope {
  engine::RecordBatch records;
  bool has_watermark = false;
  SimTime watermark = 0;
  int origin = 0;
};

/// Fired outputs, whichever state fired them.
std::vector<OutputRecord> OutputsOf(std::vector<OutputRecord> outs) { return outs; }
template <typename Fired>
std::vector<OutputRecord> OutputsOf(Fired fired) {
  return std::move(fired.outputs);
}

/// A stage's identity, built once per stage: the name its profiler stage,
/// executor worker, tracer track and log lines share, and its profiler
/// counters (null when the run is not profiled).
struct StageId {
  std::string name;
  Profiler::StageCounters* counters = nullptr;
};

/// Durable per-task-slot state shared by every incarnation of the slot.
/// The supervisor's join serializes incarnations (and the respawn path),
/// so the non-atomic fields need no locks.
struct DurableSlot {
  int index = 0;
  StageId id;
  Supervisor::SlotCtrl ctrl;
  SlotChaos chaos;
  /// Flink: a copy of the state and tracker at the last committed
  /// checkpoint. Restoring it and replaying the ring suffix above the ack
  /// frontier reconstructs the crashed incarnation exactly.
  std::optional<engine::TaskSlot> flink_ckpt;
  int64_t spark_committed = -1;             // Spark: committed boundary cursor
  /// The counting rule: every incarnation folds its counters when it
  /// exits, crash included, and counts each record once. Per input ring,
  /// this is the pop index one past the last envelope whose records and
  /// late tuples were counted; a replayed envelope lies at or below it
  /// and is applied again but not counted again.
  std::vector<uint64_t> counted_through;
  uint64_t replayed = 0;     // envelopes re-delivered on restarts
  uint64_t checkpoints = 0;  // Flink checkpoints committed
};

/// What every stage shares: the config, the clock, the rings, the abort
/// flag, the sink's bell and the run's totals. Outlives every stage.
struct PipelineContext {
  PipelineContext(const RtPipelineConfig& config, bool retain, bool combine,
                  bool supervise)
      : config(config), retain(retain), combine(combine), supervise(supervise) {
    for (int i = 0; i < config.num_sources * config.num_tasks; ++i) {
      data_rings.push_back(
          std::make_unique<SpscRing<Envelope>>(config.ring_capacity));
      data_rings.back()->set_retain(retain);
    }
    for (int t = 0; t < config.num_tasks; ++t) {
      sink_rings.push_back(std::make_unique<SpscRing<std::vector<OutputRecord>>>(
          config.ring_capacity));
    }
  }

  SpscRing<Envelope>& data_ring(int s, int t) {
    return *data_rings[static_cast<size_t>(s * config.num_tasks + t)];
  }
  /// Rings the sink's bell (StageIo::Pop): after every push into a sink
  /// ring, every Close() of one, and the abort.
  void RingSinkBell() {
    sink_bell.fetch_add(1, std::memory_order_release);
    sink_bell.notify_one();
  }
  /// Teardown (the supervisor's abort_pipeline): every blocking wait
  /// returns.
  void Abort() {
    aborted.store(true, std::memory_order_release);
    for (auto& ring : data_rings) ring->Abort();
    for (auto& ring : sink_rings) ring->Abort();
    RingSinkBell();
  }

  const RtPipelineConfig& config;
  /// Crash/wedge on a task makes its input rings a replayable log; the
  /// plain pipeline (and straggle-only runs) keeps the original move-out
  /// pop with no ack bookkeeping.
  const bool retain;
  /// Shuffle-side combining on the sources' fan-out.
  const bool combine;
  /// Task slots run under the supervisor (heartbeats, kill orders).
  const bool supervise;
  Clock clock;
  std::vector<std::unique_ptr<SpscRing<Envelope>>> data_rings;  // S x T
  std::vector<std::unique_ptr<SpscRing<std::vector<OutputRecord>>>> sink_rings;
  std::atomic<bool> aborted{false};
  std::atomic<uint32_t> sink_bell{0};
  std::atomic<uint64_t> input_records{0};
  std::atomic<uint64_t> input_tuples{0};
  std::atomic<uint64_t> late_tuples{0};
  /// Sink progress, the watchdog's signal.
  std::atomic<uint64_t> outputs_emitted{0};
  /// The sink drained: the supervisor's exit condition.
  std::atomic<bool> sink_done{false};
};

/// Why StageIo::Pop returned.
enum class PopResult { kItem, kDrained, kDeadline, kStopped };

/// The steps every stage type shares, bound to one stage on its own
/// thread: its track, the stop predicate, the blocked push, the
/// multi-ring pop and the interruptible nap. `ctrl` is the supervised
/// slot's control block (null for sources, the sink and unsupervised
/// tasks: no heartbeat, no kill order).
class StageIo {
 public:
  StageIo(PipelineContext& ctx, const StageId& id,
          Supervisor::SlotCtrl* ctrl = nullptr)
      : ctx_(ctx),
        id_(id),
        ctrl_(ctrl),
        // The worker's thread-local tracer (enabled by the executor when
        // config.trace); disabled, every span is a branch.
        tracer_(obs::Tracer::Default()),
        track_(tracer_.Track("rt", id.name)) {}

  obs::ScopedSpan Span(const char* name) {
    return obs::ScopedSpan(tracer_, track_, name);
  }

  void CountRecords(uint64_t n) {
    if (id_.counters != nullptr) {
      id_.counters->records.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Swaps `item` into `ring`; on success `item` holds the slot's drained
  /// element. A full ring blocks in a `ring.push_block` span, charged to
  /// the stage's blocked_us. False only when the ring was aborted (item
  /// untouched): the run is over.
  template <typename T>
  bool Push(SpscRing<T>& ring, T& item) {
    if (ring.TryPushSwap(item)) return true;
    const SimTime t0 = ctx_.clock.now();
    bool pushed;
    {
      obs::ScopedSpan blocked = Span("ring.push_block");
      pushed = ring.PushSwap(item);
    }
    if (id_.counters != nullptr) {
      id_.counters->blocked_us.fetch_add(ctx_.clock.now() - t0,
                                         std::memory_order_relaxed);
    }
    return pushed;
  }

  /// Round-robin pop across `rings` with the ring's spin-then-nap backoff
  /// (BackoffStep). On kItem `*out` holds the popped element and the ring
  /// slot holds what `*out` held before (SpscRing::TryPopSwap): the
  /// consumer's spent element goes back into circulation. kDrained once
  /// every ring is closed AND drained (a final sweep after observing
  /// closed catches the push-then-close race: the close's release makes
  /// the last push visible); kStopped once Stopped() holds. Each sweep
  /// beats the heartbeat, so an idle-but-alive consumer never looks
  /// wedged. With `deadline` >= 0, an idle wait past it (checked on each
  /// empty sweep) returns kDeadline — the transactional (Flink) task uses
  /// this to commit a checkpoint while idle: its producers may be blocked
  /// on the retained ring waiting for exactly that ack, so waiting for an
  /// envelope first would deadlock. Wall time spent past the first empty
  /// sweep is charged to the stage's pop_wait_us (the profiler's "wait"
  /// bucket); the instant-hit fast path never reads the clock.
  ///
  /// With `bell` set, the consumer parks on it instead of napping once the
  /// spins run out: every push into the rings, every Close() of one and
  /// the abort must ring it (fetch_add, then notify_one). The bell is read
  /// before each sweep, so a push, close or abort between that read and
  /// the park has changed its value and the wait returns at once — no wake
  /// is lost. It exists for rings that see a few pushes per second (the
  /// sink's, one per window fire): their consumer then costs no CPU while
  /// idle. The data rings take ~1e5 envelopes/s, where a notify per push
  /// would cost more than the naps it saves, so tasks keep the nap. A bell
  /// rules out `ctrl` and `deadline`: a parked consumer neither beats its
  /// heartbeat nor sees a deadline pass.
  template <typename T>
  PopResult Pop(const std::vector<SpscRing<T>*>& rings, T* out,
                SimTime deadline = -1,
                const std::atomic<uint32_t>* bell = nullptr) {
    SDPS_CHECK(bell == nullptr || (ctrl_ == nullptr && deadline < 0));
    int spins = 0;
    SimTime wait_begin = -1;
    const auto done = [&](PopResult why) {
      if (wait_begin >= 0) {
        id_.counters->pop_wait_us.fetch_add(ctx_.clock.now() - wait_begin,
                                            std::memory_order_relaxed);
      }
      return why;
    };
    const size_t n = rings.size();
    for (;;) {
      const uint32_t rung =
          bell != nullptr ? bell->load(std::memory_order_acquire) : 0;
      Beat();
      if (Stopped()) return done(PopResult::kStopped);
      bool all_closed = true;
      for (size_t k = 0; k < n; ++k) {
        SpscRing<T>& ring = *rings[(next_ + k) % n];
        if (ring.TryPopSwap(*out)) {
          next_ = (next_ + k + 1) % n;
          return done(PopResult::kItem);
        }
        if (!ring.closed()) all_closed = false;
      }
      if (all_closed) {
        for (SpscRing<T>* ring : rings) {
          if (ring->TryPopSwap(*out)) return done(PopResult::kItem);
        }
        return done(PopResult::kDrained);
      }
      if (id_.counters != nullptr && wait_begin < 0) {
        wait_begin = ctx_.clock.now();
      }
      if (deadline >= 0 && ctx_.clock.now() >= deadline) {
        return done(PopResult::kDeadline);
      }
      if (bell != nullptr && spins >= kBackoffSpins) {
        bell->wait(rung, std::memory_order_acquire);
      } else {
        BackoffStep(spins);
      }
    }
  }

  /// Naps until clock time `until` in chunks of at most `chunk`, beating
  /// the heartbeat after each chunk when `beat`. Returns false as soon as
  /// Stopped() holds, true once `until` passed.
  bool NapUntil(SimTime until, SimTime chunk, bool beat = true) {
    for (;;) {
      if (Stopped()) return false;
      const SimTime left = until - ctx_.clock.now();
      if (left <= 0) return true;
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min(left, chunk)));
      if (beat) Beat();
    }
  }

 private:
  /// The one stop predicate: the supervisor ordered the slot out, or the
  /// pipeline aborted.
  bool Stopped() const {
    return (ctrl_ != nullptr && ctrl_->kill.load(std::memory_order_acquire)) ||
           ctx_.aborted.load(std::memory_order_acquire);
  }

  void Beat() {
    if (ctrl_ != nullptr) ctrl_->heartbeat.fetch_add(1, std::memory_order_relaxed);
  }

  PipelineContext& ctx_;
  const StageId& id_;
  Supervisor::SlotCtrl* const ctrl_;
  obs::Tracer& tracer_;
  const obs::TrackId track_;
  size_t next_ = 0;  // Pop's round-robin cursor
};

/// A source: replays its share of the record stream, key-partitions it
/// into one open envelope per task, pushes full envelopes and in-band
/// watermarks, and closes its rings at the horizon.
class SourceStage {
 public:
  /// `generator` must outlive the stage (the generator keeps a reference).
  SourceStage(PipelineContext& ctx, int index, const StageId& id,
              const driver::GeneratorConfig& generator,
              std::vector<RtFault> faults, Rng rng)
      : ctx_(ctx),
        index_(index),
        io_(ctx, id),
        gen_(generator, rng),
        chaos_(std::move(faults)),
        open_(static_cast<size_t>(ctx.config.num_tasks)),
        partitioner_(ctx.config.num_tasks) {
    if (ctx.combine) {
      combiner_.emplace(ctx.config.model == RtPipelineConfig::Model::kSpark
                            ? ctx.config.batch_interval
                            : ctx.config.query.window.slide);
    }
  }

  void Run() {
    const RtPipelineConfig& config = ctx_.config;
    const size_t batch = static_cast<size_t>(config.batch);
    uint64_t records = 0, tuples = 0;
    SimTime max_event = engine::kNoWatermark;
    SimTime next_wm = config.watermark_every;
    SimTime straggle_last = ctx_.clock.now();
    // Ingest stamp: the source's most recent clock read. Paced, that is
    // PaceTo's read — one per wake: the wake after a nap, shared by every
    // record that fell due during the nap, never before a record's
    // planned event time. Unpaced, one read per staging batch, taken as
    // the batch opens (per record at batch 1). Either way a stamp never
    // postdates the record's true ingest, so latency measured from it is
    // never understated.
    SimTime stamp = 0;
    for (;;) {
      auto rec = gen_.Next();
      if (!rec.has_value() || !alive_) break;
      const SimTime planned = gen_.planned_time();
      if (config.paced) stamp = gen_.PaceTo(ctx_.clock);
      if (planned >= next_wm && max_event != engine::kNoWatermark) {
        BroadcastWatermark(max_event);
        while (next_wm <= planned) next_wm += config.watermark_every;
      }
      if (!config.paced && staging_.empty()) stamp = ctx_.clock.now();
      rec->ingest_time = stamp;
      max_event = std::max(max_event, rec->event_time);
      ++records;
      tuples += rec->weight;
      // Batch 1 is a staging batch of one: every record scatters and
      // flushes as it arrives.
      staging_.PushBack(*rec);
      if (staging_.size() >= batch) Scatter();
      if (chaos_.armed()) {
        // Source straggle: throttle ingest to `factor` of wall time
        // (sources are unsupervised — slow, never dead).
        const SimTime now = ctx_.clock.now();
        io_.NapUntil(now + chaos_.StraggleSleep(now, now - straggle_last),
                     Millis(5));
        straggle_last = ctx_.clock.now();
      }
    }
    // Horizon reached: flush everything, flush every window, end the
    // streams. Close after the final watermark so consumers drain it.
    if (alive_) BroadcastWatermark(kFinalWatermark);
    for (int t = 0; t < config.num_tasks; ++t) ctx_.data_ring(index_, t).Close();
    ctx_.input_records.fetch_add(records, std::memory_order_relaxed);
    ctx_.input_tuples.fetch_add(tuples, std::memory_order_relaxed);
    io_.CountRecords(records);
    // Fold this worker's totals into the process registry at exit
    // (instruments are atomic + enabled-gated; one resolve per run).
    obs::Registry& reg = obs::Registry::Default();
    const obs::LabelSet labels = {{"source", std::to_string(index_)}};
    reg.GetCounter("rt.source.records", labels)->Add(records);
    reg.GetCounter("rt.source.tuples", labels)->Add(tuples);
    reg.GetCounter("rt.source.watermarks", labels)->Add(watermarks_);
    obs::FlightRecorder::Note("src.done", index_, static_cast<int64_t>(records));
  }

 private:
  /// Swaps `env` into task `t`'s ring and leaves it holding the slot's
  /// drained envelope, reset for refilling.
  void Push(int t, Envelope& env) {
    env.origin = index_;
    if (!io_.Push(ctx_.data_ring(index_, t), env)) alive_ = false;
    env.records.Clear();
    env.has_watermark = false;
  }

  // Shuffle fabric (engine/columnar.h): records stage into one batch,
  // radix-scatter to the per-task open runs in a single pass (a batch
  // bound for one task whose run is empty moves whole), and — with the
  // combiner on — each flushed run collapses into per-(key, bucket)
  // partials before the ring push.
  void Flush(int t) {
    Envelope& env = open_[static_cast<size_t>(t)];
    if (env.records.empty()) return;
    obs::ScopedSpan span = io_.Span("src.flush");
    span.Arg("records", static_cast<double>(env.records.size()));
    if (combiner_.has_value()) {
      combiner_->Combine(env.records.begin(), env.records.size(),
                         &side_.records);
      env.records.Clear();
      Push(t, side_);
    } else {
      Push(t, env);
    }
  }

  void Scatter() {
    const size_t n = staging_.size();
    if (n == 0) return;
    const int num_tasks = ctx_.config.num_tasks;
    const size_t batch = static_cast<size_t>(ctx_.config.batch);
    // One task: the plan is the identity and reads no keys.
    if (num_tasks > 1) cols_.LoadKeys(staging_.begin(), n);
    engine::RadixPartition(cols_.keys.data(), n, partitioner_, &plan_);
    if (plan_.active.size() == 1) {
      // The whole batch goes to one task. If that task's envelope is
      // empty, the staging batch becomes it by swap and staging takes the
      // envelope's spent storage: no record is copied. With one task
      // every batch goes this way.
      const int t = plan_.active.front();
      engine::RecordBatch& b = open_[static_cast<size_t>(t)].records;
      if (b.empty()) {
        std::swap(b, staging_);
        if (b.size() >= batch) Flush(t);
        return;
      }
    }
    const Record* rows = staging_.begin();
    for (int t = 0; t < num_tasks; ++t) {
      const uint32_t run = plan_.RunSize(t);
      if (run == 0) continue;
      engine::RecordBatch& b = open_[static_cast<size_t>(t)].records;
      b.Reserve(b.size() + run);
      for (const uint32_t* it = plan_.Begin(t); it != plan_.End(t); ++it) {
        b.PushBack(rows[*it]);
      }
      if (b.size() >= batch) Flush(t);
    }
    staging_.Clear();
  }

  void BroadcastWatermark(SimTime wm) {
    Scatter();  // records first: the watermark must not overtake them
    for (int t = 0; t < ctx_.config.num_tasks; ++t) {
      Flush(t);
      side_.has_watermark = true;
      side_.watermark = wm;
      Push(t, side_);
    }
    ++watermarks_;
    obs::FlightRecorder::Note("src.wm", index_, wm);
  }

  PipelineContext& ctx_;
  const int index_;
  StageIo io_;
  Generator gen_;
  SlotChaos chaos_;
  // Per-task open envelope: records accumulate in place and the whole
  // envelope swaps into the ring on flush.
  std::vector<Envelope> open_;
  const engine::Partitioner partitioner_;
  engine::RecordBatch staging_;
  engine::ColumnarBatch cols_;
  engine::PartitionPlan plan_;
  Envelope side_;  // combiner output and watermarks
  std::optional<engine::ShuffleCombiner> combiner_;
  uint64_t watermarks_ = 0;
  bool alive_ = true;  // false once a push found its ring aborted
};

/// The engines' own logical state: one WindowState alternative, built
/// from (model, query). Recovery restore per engine model:
///   flink  last committed checkpoint snapshot, which TaskStage copies
///          in place of this fresh state (exactly-once)
///   spark  committed boundary cursor; bucket recompute from replay
///          (exactly-once)
///   storm  fresh state + full replay from the ack frontier
///          (at-least-once: already-delivered windows refire)
WindowState MakeWindowState(const RtPipelineConfig& config, const DurableSlot& slot) {
  const engine::WindowAssigner assigner(config.query.window);
  if (config.model == RtPipelineConfig::Model::kSpark) {
    return engine::BucketWindowState(config.query, config.batch_interval,
                                     slot.spark_committed);
  }
  if (config.query.kind == engine::QueryKind::kJoin) {
    return engine::JoinWindowState(assigner);
  }
  if (config.model == RtPipelineConfig::Model::kFlink) {
    return engine::AggWindowState(assigner);
  }
  return engine::BufferedWindowState(assigner);
}

/// One incarnation of a task slot: folds envelopes into the engine
/// model's window state and fires on the combined watermark; under
/// retention it checkpoints (Flink) or acks (Storm, Spark) so a successor
/// can resume. Built afresh from the DurableSlot for each
/// incarnation.
class TaskStage {
 public:
  TaskStage(PipelineContext& ctx, DurableSlot& slot)
      : ctx_(ctx),
        slot_(slot),
        io_(ctx, slot.id, ctx.supervise ? &slot.ctrl : nullptr),
        out_ring_(*ctx.sink_rings[static_cast<size_t>(slot.index)]),
        // Flink under retention runs a transactional sink: fired outputs
        // buffer in pending_ and reach the sink ring only when the
        // checkpoint commits (so a crash can never have emitted
        // uncommitted state).
        transactional_(ctx.retain &&
                       ctx.config.model == RtPipelineConfig::Model::kFlink),
        live_(slot.flink_ckpt.has_value()
                  ? *slot.flink_ckpt
                  : engine::TaskSlot{MakeWindowState(ctx.config, slot),
                                     engine::WatermarkTracker(ctx.config.num_sources)}),
        next_ckpt_(ctx.clock.now() + ctx.config.chaos.checkpoint_every) {
    for (int s = 0; s < ctx.config.num_sources; ++s) {
      inputs_.push_back(&ctx.data_ring(s, slot.index));
    }
    if (ctx.retain && !transactional_) ack_log_.resize(inputs_.size());
  }

  void Run() {
    // Per-envelope tallies stay in locals; Fold publishes them.
    uint64_t records = 0, late = 0;
    // The envelope being applied; Pop swaps the spent one back into the
    // ring slot it takes the next from.
    Envelope env;
    PopResult got = PopResult::kItem;
    for (;;) {
      got = io_.Pop(inputs_, &env, transactional_ ? next_ckpt_ : SimTime{-1});
      if (got == PopResult::kDeadline) {
        // Idle past the checkpoint cadence: commit now — the sources may
        // be blocked on the retained rings waiting for this ack.
        Checkpoint(ctx_.clock.now());
        continue;
      }
      if (got != PopResult::kItem) break;
      if (slot_.chaos.armed() && !SurviveDueFault()) break;
      const SimTime busy_begin = slot_.chaos.armed() ? ctx_.clock.now() : 0;
      if (!env.records.empty()) {
        obs::ScopedSpan apply = io_.Span("window.apply");
        apply.Arg("records", static_cast<double>(env.records.size()));
        const auto add = [&env](auto& s) {
          return engine::AddBatch(s, env.records.begin(), env.records.size());
        };
        const uint64_t dropped = std::visit(add, live_.state).late_tuples;
        if (!ctx_.retain || FirstApplication(env.origin)) {
          records += env.records.size();
          late += dropped;
        }
      }
      if (!ack_log_.empty()) {
        // Record this envelope's ack entry under its ring: the index one
        // past it (pop_index right after the pop) and the largest event
        // time it carries (a watermark envelope's is its wm value).
        SimTime ack_event = env.watermark;
        if (!env.has_watermark) {
          ack_event = std::numeric_limits<SimTime>::min();
          for (const Record& rec : env.records) {
            ack_event = std::max(ack_event, rec.event_time);
          }
        }
        ack_log_[static_cast<size_t>(env.origin)].emplace_back(
            inputs_[static_cast<size_t>(env.origin)]->pop_index(),
            ack_event);
      }
      if (env.has_watermark && live_.tracker.Update(env.origin, env.watermark)) {
        Fire(live_.tracker.current());
      }
      if (slot_.chaos.armed()) {
        // Straggle throttle: stretch this envelope's processing time to
        // busy / factor, napping in short chunks that keep the heartbeat
        // live (a straggler is slow, not wedged) and stay responsive to
        // kill/abort.
        const SimTime now = ctx_.clock.now();
        io_.NapUntil(now + slot_.chaos.StraggleSleep(now, now - busy_begin),
                     Millis(5));
      }
      if (transactional_) {
        const SimTime now = ctx_.clock.now();
        if (now >= next_ckpt_) Checkpoint(now);
      }
    }

    const bool drained = got == PopResult::kDrained;
    if (drained) {
      // Clean drain: commit the tail, close downstream.
      if (transactional_) PushOutputs(pending_);
      out_ring_.Close();
      ctx_.RingSinkBell();
      slot_.ctrl.done.store(true, std::memory_order_release);
    }
    Fold(records, late);
    if (drained) {
      obs::FlightRecorder::Note("task.done", slot_.index,
                                static_cast<int64_t>(records));
      return;
    }
    // Stopped, crashed or killed: hand the slot to the supervisor, which
    // joins this thread, rewinds the rings to the ack frontier, and
    // respawns the slot.
    obs::FlightRecorder::Note("rt.task.exit", slot_.index, ctx_.clock.now());
    if (ctx_.supervise) slot_.ctrl.exited.store(true, std::memory_order_release);
  }

 private:
  /// The counting rule (DurableSlot::counted_through): true the first time
  /// any incarnation applies the envelope just popped from `origin`'s ring.
  bool FirstApplication(int origin) {
    uint64_t& through = slot_.counted_through[static_cast<size_t>(origin)];
    const uint64_t index = inputs_[static_cast<size_t>(origin)]->pop_index();
    if (index <= through) return false;
    through = index;
    return true;
  }

  /// Fires the slot's due one-shot fault, if any. False when the
  /// incarnation must exit: an injected crash, or a wedge the supervisor
  /// killed (or the abort ended).
  bool SurviveDueFault() {
    const RtFault* fault = slot_.chaos.Due(ctx_.clock.now());
    if (fault == nullptr) return true;
    const bool crash = fault->kind == chaos::FaultKind::kCrash;
    const SimTime now = ctx_.clock.now();
    slot_.ctrl.fault_wall.store(now, std::memory_order_release);
    SDPS_LOG(Warning) << "rt chaos: injected " << (crash ? "crash" : "wedge")
                      << " on " << slot_.id.name << " at t=" << ToSeconds(now)
                      << "s";
    obs::FlightRecorder::Note(crash ? "rt.chaos.crash" : "rt.chaos.wedge",
                              slot_.index, now);
    if (const Status dumped = obs::FlightRecorder::Dump(
            crash ? "rt chaos: injected crash" : "rt chaos: injected wedge");
        !dumped.ok()) {
      SDPS_LOG(Warning) << "flight-recorder dump failed: " << dumped.ToString();
    }
    // Injected crash: the incarnation dies with this envelope popped but
    // unapplied — exactly the mid-batch loss the retained ring replays to
    // the replacement.
    if (crash) return false;
    // Injected wedge: stay alive, stop consuming, freeze the heartbeat.
    // Only the supervisor's liveness detector (or the wedge window
    // expiring) gets the slot out of here. A transient wedge nobody killed
    // resumes, starting with the envelope it froze on.
    const SimTime wedge_end = fault->duration > 0
                                  ? fault->at + fault->duration
                                  : std::numeric_limits<SimTime>::max();
    return io_.NapUntil(wedge_end, 500, /*beat=*/false);
  }

  void Fire(SimTime wm) {
    obs::ScopedSpan fire = io_.Span("window.fire");
    std::vector<OutputRecord> fired = std::visit(
        [wm](auto& s) { return OutputsOf(s.FireUpTo(wm)); }, live_.state);
    fire.Arg("outputs", static_cast<double>(fired.size()));
    obs::FlightRecorder::Note("task.fire", slot_.index,
                              static_cast<int64_t>(fired.size()));
    if (transactional_) {
      pending_.insert(pending_.end(), fired.begin(), fired.end());
    } else {
      PushOutputs(fired);
    }
    if (ack_log_.empty()) return;
    if (ctx_.config.model == RtPipelineConfig::Model::kStorm) {
      // At-least-once ack frontier: every window containing a record with
      // event time e has end > e, and fires once end <= wm — so an
      // envelope whose max event <= wm - range can no longer reach an
      // unfired window. Its outputs were pushed above (before the ack),
      // hence at-least-once: a crash after the push refires those windows
      // from replay as duplicates.
      AckThroughFrontier(wm - ctx_.config.query.window.range,
                         /*strict=*/false);
    } else {
      // Spark's committed-cursor commit: boundaries below
      // next_boundary() are emitted; a restart resumes the cursor there
      // and only needs buckets >= cursor - range_batches + 1, i.e.
      // records with event time >= (cursor - range_batches) * interval.
      const auto& buckets = std::get<engine::BucketWindowState>(live_.state);
      slot_.spark_committed = buckets.next_boundary();
      AckThroughFrontier((slot_.spark_committed - buckets.range_buckets()) *
                             ctx_.config.batch_interval,
                         /*strict=*/true);
    }
  }

  /// Storm/Spark: acks every ring's logged envelopes whose max event time
  /// lies below (`strict`) or at `frontier`.
  void AckThroughFrontier(SimTime frontier, bool strict) {
    for (size_t r = 0; r < inputs_.size(); ++r) {
      auto& log = ack_log_[r];
      uint64_t ack_to = 0;
      bool any = false;
      while (!log.empty() && (strict ? log.front().second < frontier
                                     : log.front().second <= frontier)) {
        ack_to = log.front().first;
        any = true;
        log.pop_front();
      }
      if (any) inputs_[r]->AckThrough(ack_to);
    }
  }

  /// Swaps `outs` into the sink ring, counts them as pushed and rings the
  /// sink's bell; `outs` comes back holding the slot's drained vector,
  /// cleared.
  void PushOutputs(std::vector<OutputRecord>& outs) {
    if (outs.empty()) return;
    const size_t n = outs.size();
    if (io_.Push(out_ring_, outs)) pushed_outputs_ += n;
    ctx_.RingSinkBell();
    outs.clear();
  }

  /// Flink checkpoint: commit pending outputs, snapshot state, ack the
  /// consumed ring prefix. Runs between envelopes, so it is atomic with
  /// respect to injected faults by construction.
  void Checkpoint(SimTime now) {
    obs::ScopedSpan span = io_.Span("chaos.checkpoint");
    PushOutputs(pending_);
    slot_.flink_ckpt = live_;
    for (SpscRing<Envelope>* ring : inputs_) {
      ring->AckThrough(ring->pop_index());
    }
    ++slot_.checkpoints;
    next_ckpt_ = now + ctx_.config.chaos.checkpoint_every;
  }

  /// Publishes this incarnation's counts (every exit, crash included: the
  /// counting rule keeps replays out of them).
  void Fold(uint64_t records, uint64_t late) {
    ctx_.late_tuples.fetch_add(late, std::memory_order_relaxed);
    io_.CountRecords(records);
    obs::Registry& reg = obs::Registry::Default();
    const obs::LabelSet labels = {{"task", std::to_string(slot_.index)}};
    reg.GetCounter("rt.task.records", labels)->Add(records);
    reg.GetCounter("rt.task.fired_outputs", labels)->Add(pushed_outputs_);
    reg.GetCounter("rt.task.late_tuples", labels)->Add(late);
  }

  PipelineContext& ctx_;
  DurableSlot& slot_;
  StageIo io_;
  std::vector<SpscRing<Envelope>*> inputs_;
  SpscRing<std::vector<OutputRecord>>& out_ring_;
  const bool transactional_;
  // Storm/Spark ack bookkeeping (retained rings only): per input ring,
  // FIFO entries of (absolute pop index one past the envelope, its max
  // event time). An envelope is acked once no unfired window /
  // uncommitted boundary can still need its records.
  std::vector<std::deque<std::pair<uint64_t, SimTime>>> ack_log_;
  engine::TaskSlot live_;  // the window state and tracker this incarnation runs
  std::vector<OutputRecord> pending_;  // transactional: awaiting commit
  SimTime next_ckpt_;
  uint64_t pushed_outputs_ = 0;  // outputs that reached the sink ring
};

/// The sink: drains every task's output ring into the LatencySink, the
/// wall-clock latency measurement.
class SinkStage {
 public:
  /// `recovery` (with `supervisor`) set: register the measured crash
  /// window with the recovery tracker.
  SinkStage(PipelineContext& ctx, const StageId& id, driver::LatencySink& sink,
            chaos::RecoveryTracker* recovery, const Supervisor* supervisor)
      : ctx_(ctx),
        io_(ctx, id),
        sink_(sink),
        recovery_(recovery),
        supervisor_(supervisor) {
    for (auto& ring : ctx.sink_rings) inputs_.push_back(ring.get());
  }

  void Run() {
    uint64_t outputs = 0;
    bool crash_noted = false;
    std::vector<OutputRecord> outs;
    while (io_.Pop(inputs_, &outs, /*deadline=*/-1, &ctx_.sink_bell) ==
           PopResult::kItem) {
      outputs += outs.size();
      ctx_.outputs_emitted.fetch_add(outs.size(), std::memory_order_relaxed);
      if (recovery_ != nullptr && supervisor_ != nullptr && !crash_noted) {
        // Register the measured crash window (worker fault instant →
        // supervisor respawn instant) before observing these emissions so
        // the tracker attributes first-output-after correctly.
        const SimTime crash = supervisor_->first_fault_wall();
        const SimTime restart = supervisor_->first_restart_wall();
        if (crash >= 0 && restart >= 0) {
          recovery_->NoteCrashWindow(crash, restart);
          crash_noted = true;
        }
      }
      obs::ScopedSpan emit = io_.Span("sink.emit");
      emit.Arg("outputs", static_cast<double>(outs.size()));
      for (const OutputRecord& out : outs) sink_.Emit(out);
    }
    io_.CountRecords(outputs);
    obs::Registry::Default().GetCounter("rt.sink.outputs")->Add(outputs);
    ctx_.sink_done.store(true, std::memory_order_release);
    obs::FlightRecorder::Note("sink.done", static_cast<int64_t>(outputs));
  }

 private:
  PipelineContext& ctx_;
  StageIo io_;
  std::vector<SpscRing<std::vector<OutputRecord>>*> inputs_;
  driver::LatencySink& sink_;
  chaos::RecoveryTracker* const recovery_;
  const Supervisor* const supervisor_;
};

}  // namespace

RtResult RunRtPipeline(const RtPipelineConfig& config) {
  SDPS_CHECK_GT(config.num_sources, 0);
  SDPS_CHECK_GT(config.num_tasks, 0);
  SDPS_CHECK_GE(config.batch, 1);
  SDPS_CHECK_GT(config.total_rate, 0.0);
  if (config.model == RtPipelineConfig::Model::kSpark) {
    SDPS_CHECK_EQ(config.query.window.range % config.batch_interval, 0)
        << "rt spark model: window range must be a multiple of batch_interval";
    SDPS_CHECK_EQ(config.query.window.slide % config.batch_interval, 0)
        << "rt spark model: window slide must be a multiple of batch_interval";
  }
  // Counting observers must be live before worker threads start logging.
  obs::InstallLogCounters();

  const int S = config.num_sources;
  const int T = config.num_tasks;
  RtResult result;

  // Compile the fault plan against this pipeline shape before anything
  // spawns: a bad plan is a config error, not a mid-run surprise.
  Result<RtChaosPlan> plan_or = RtChaosPlan::Compile(config.faults, S, T);
  if (!plan_or.ok()) {
    result.failure = plan_or.status();
    return result;
  }
  const RtChaosPlan plan = std::move(plan_or).value();
  // Crash and wedge compile onto task slots only.
  const bool retain = plan.HasFault(chaos::FaultKind::kCrash) ||
                      plan.HasFault(chaos::FaultKind::kWedge);
  // Shuffle-side combining (aggregation + batched fan-out only; same
  // engine gating as the DES SUTs).
  const bool combine = config.shuffle_combine && config.batch > 1 &&
                       config.query.kind == engine::QueryKind::kAggregation;
  if (combine && retain) {
    result.failure = Status::InvalidArgument(
        "rt: shuffle_combine is incompatible with task fault injection "
        "(retained-ring replay accounts per raw envelope)");
    return result;
  }
  const bool supervise_tasks = retain && config.chaos.supervise;
  const bool run_supervisor = supervise_tasks || config.watchdog_timeout > 0;

  PipelineContext ctx(config, retain, combine, supervise_tasks);
  // Telemetry time = this pipeline's wall clock: spans recorded by any
  // component during the run get hardware-truth timestamps.
  obs::ClockGuard clock_guard(obs::Tracer::Default(),
                              [&ctx] { return ctx.clock.now(); });

  // Every source replays the generator template over the horizon at an
  // even share of the offered load.
  driver::GeneratorConfig generator = config.generator;
  generator.duration = config.duration;
  generator.rate =
      driver::ConstantRate(config.total_rate / static_cast<double>(S));

  const SimTime warmup_end =
      config.paced ? static_cast<SimTime>(config.warmup_fraction *
                                          static_cast<double>(config.duration))
                   : 0;
  driver::LatencySink sink(ctx.clock, warmup_end);
  chaos::RecoveryTracker rtracker;
  if (config.track_recovery) sink.set_recovery_tracker(&rtracker);
  std::vector<OutputRecord> captured;
  if (config.capture_outputs) {
    sink.SetOutputListener(
        [&captured](const OutputRecord& out) { captured.push_back(out); });
  }

  // Observability plane (DESIGN.md §6): optional sampler profiling every
  // ring and stage thread, optional wall-clock span tracing on every
  // worker. Both default off — the measured pipeline is the plain one.
  std::optional<Profiler> profiler;
  if (config.profile) profiler.emplace(Profiler::Options{config.profile_period});
  const auto stage_id = [&profiler](std::string name) {
    StageId id{std::move(name)};
    if (profiler.has_value()) id.counters = profiler->AddStage(id.name);
    return id;
  };
  std::vector<StageId> source_ids;
  for (int s = 0; s < S; ++s) {
    source_ids.push_back(stage_id("rt-src-" + std::to_string(s)));
  }
  // Durable slot state (fault plans, checkpoint snapshots, commit
  // cursors, counted-through indices): outlives every incarnation.
  std::vector<std::unique_ptr<DurableSlot>> task_slots;
  for (int t = 0; t < T; ++t) {
    task_slots.push_back(std::make_unique<DurableSlot>());
    DurableSlot& slot = *task_slots.back();
    slot.index = t;
    slot.id = stage_id("rt-task-" + std::to_string(t));
    slot.chaos = SlotChaos(plan.task_faults[static_cast<size_t>(t)]);
    slot.counted_through.assign(static_cast<size_t>(S), 0);
  }
  const StageId sink_id = stage_id("rt-sink");
  if (profiler.has_value()) {
    for (int s = 0; s < S; ++s) {
      for (int t = 0; t < T; ++t) {
        SpscRing<Envelope>* ring = &ctx.data_ring(s, t);
        profiler->AddRing(
            "src" + std::to_string(s) + "-task" + std::to_string(t),
            ring->capacity(), [ring] { return ring->SizeApprox(); });
      }
    }
    for (int t = 0; t < T; ++t) {
      SpscRing<std::vector<OutputRecord>>* ring =
          ctx.sink_rings[static_cast<size_t>(t)].get();
      profiler->AddRing("task" + std::to_string(t) + "-sink", ring->capacity(),
                        [ring] { return ring->SizeApprox(); });
    }
  }

  Executor::Options exec_options;
  // One stage thread per CPU at most: with more stage threads than CPUs,
  // round-robin pins would put a task on a source's CPU, and every wake
  // of the napping task would preempt that source. Unpinned, the kernel
  // spreads them.
  exec_options.pin_threads =
      config.pin_threads &&
      S + T + 1 <= static_cast<int>(std::thread::hardware_concurrency());
  exec_options.trace_clock = config.trace ? &ctx.clock : nullptr;
  exec_options.profiler = profiler.has_value() ? &*profiler : nullptr;
  Executor executor(exec_options);

  std::optional<Supervisor> supervisor;
  if (run_supervisor) {
    Supervisor::Options sup;
    sup.clock = &ctx.clock;
    sup.executor = &executor;
    sup.poll_period = config.chaos.poll_period;
    sup.stall_timeout = config.chaos.stall_timeout;
    sup.max_restarts = config.chaos.max_restarts;
    sup.backoff_initial = config.chaos.backoff_initial;
    sup.watchdog_timeout = config.watchdog_timeout;
    sup.progress = [&ctx] {
      return ctx.outputs_emitted.load(std::memory_order_relaxed);
    };
    sup.fault_windows = plan.WallWindows(config.fault_grace, supervise_tasks);
    sup.abort_pipeline = [&ctx] { ctx.Abort(); };
    sup.pipeline_done = [&ctx] {
      return ctx.sink_done.load(std::memory_order_acquire);
    };
    supervisor.emplace(std::move(sup));
  }

  ctx.clock.Start();
  if (profiler.has_value()) profiler->Start();
  obs::FlightRecorder::Note("rt.pipeline.start", S, T);

  // Same seed-fork protocol as driver::RunExperiment: one fork per driver
  // (source), in driver order — the record streams are bit-identical.
  Rng root(config.seed);
  for (int s = 0; s < S; ++s) {
    const StageId& id = source_ids[static_cast<size_t>(s)];
    executor.Spawn(id.name, [&, s, rng = root.Fork()] {
      SourceStage(ctx, s, id, generator,
                  plan.source_faults[static_cast<size_t>(s)], rng)
          .Run();
    });
  }
  // Each incarnation is a fresh TaskStage: the supervisor's respawn runs
  // this again for the slot's next one.
  const auto spawn_task = [&executor, &ctx](DurableSlot& slot) {
    return executor.Spawn(slot.id.name,
                          [&ctx, &slot] { TaskStage(ctx, slot).Run(); });
  };
  for (const auto& slot : task_slots) {
    const Executor::WorkerId worker = spawn_task(*slot);
    if (!supervise_tasks) continue;
    supervisor->AddSlot(
        slot->id.name, &slot->ctrl, worker,
        [&ctx, &spawn_task, slot = slot.get()]() -> Executor::WorkerId {
          // Supervisor thread, after joining the dead incarnation (so
          // everything it did happens-before this): rewind each input
          // ring to its ack frontier — the consumed-but-uncommitted
          // suffix replays to the replacement in original FIFO order.
          for (int s = 0; s < ctx.config.num_sources; ++s) {
            SpscRing<Envelope>& ring = ctx.data_ring(s, slot->index);
            slot->replayed += ring.pop_index() - ring.acked_index();
            ring.ReplayFromAcked();
          }
          return spawn_task(*slot);
        });
  }
  executor.Spawn(sink_id.name, [&] {
    SinkStage(ctx, sink_id, sink, config.track_recovery ? &rtracker : nullptr,
              supervisor.has_value() ? &*supervisor : nullptr)
        .Run();
  });

  if (run_supervisor) supervisor->Start();

  // Shutdown protocol: the supervisor exits on its own once the sink
  // drains (or the teardown aborts it); waiting for that BEFORE JoinAll
  // means its targeted Join never races the bulk join below.
  if (run_supervisor) supervisor->AwaitExit();
  executor.JoinAll();
  const SimTime wall = ctx.clock.now();
  obs::FlightRecorder::Note("rt.pipeline.done", static_cast<int64_t>(wall));
  if (profiler.has_value()) {
    result.profiled = true;
    result.profile = profiler->Stop();
  }

  if (run_supervisor) {
    result.failure = supervisor->failure();
    result.restarts = supervisor->total_restarts();
  }
  for (const auto& slot : task_slots) {
    result.checkpoints += slot->checkpoints;
    result.replayed_envelopes += slot->replayed;
  }
  if (result.restarts > 0 || result.checkpoints > 0 ||
      result.replayed_envelopes > 0) {
    obs::Registry& reg = obs::Registry::Default();
    reg.GetCounter("rt.recovery.restarts")
        ->Add(static_cast<uint64_t>(result.restarts));
    reg.GetCounter("rt.recovery.checkpoints")->Add(result.checkpoints);
    reg.GetCounter("rt.recovery.replayed_envelopes")
        ->Add(result.replayed_envelopes);
  }
  if (config.track_recovery) {
    result.recovery = rtracker.Finalize(warmup_end, wall);
    result.observed_outputs = rtracker.observed();
  }

  result.input_records = ctx.input_records.load(std::memory_order_relaxed);
  result.input_tuples = ctx.input_tuples.load(std::memory_order_relaxed);
  result.late_dropped_tuples = ctx.late_tuples.load(std::memory_order_relaxed);
  result.output_records = sink.total_outputs();
  result.output_tuples = sink.total_output_tuples();
  obs::Registry::Default()
      .GetCounter("rt.sink.output_tuples")
      ->Add(result.output_tuples);
  result.output_value = sink.total_output_value();
  result.wall_seconds = ToSeconds(wall);
  if (result.wall_seconds > 0) {
    result.records_per_s =
        static_cast<double>(result.input_records) / result.wall_seconds;
    result.tuples_per_s =
        static_cast<double>(result.input_tuples) / result.wall_seconds;
  }
  const obs::QuantileSketch& sketch = sink.event_latency_sketch();
  if (sketch.count() > 0) {
    result.event_p50_s = sketch.Quantile(0.50);
    result.event_p95_s = sketch.Quantile(0.95);
    result.event_p99_s = sketch.Quantile(0.99);
  }
  result.outputs = std::move(captured);
  return result;
}

}  // namespace sdps::rt
