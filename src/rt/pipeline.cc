#include "rt/pipeline.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
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
using engine::Message;
using engine::OutputRecord;
using engine::Record;

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

/// Round-robin pop across several rings with the ring's spin-then-nap
/// backoff (BackoffStep), serving both the data and the sink rings. On
/// success `*out` holds the popped element and the ring slot holds what
/// `*out` held before (SpscRing::TryPopSwap): the consumer's spent element
/// goes back into circulation. Returns false only once every ring is
/// closed AND drained (a final sweep after observing closed catches the
/// push-then-close race: the close's release makes the last push visible)
/// — or, on the supervised/chaos path, when the slot was ordered out
/// (`ctrl->kill`) or the pipeline aborted. With `ctrl` set, each sweep
/// bumps the slot heartbeat so an idle-but-alive consumer never looks
/// wedged. With `deadline` >= 0, an idle wait past it (checked on each
/// empty sweep) returns false with `*timed_out` set — the transactional
/// (Flink) task uses this to commit a checkpoint while idle: its producers
/// may be blocked on the retained ring waiting for exactly that ack, so
/// waiting for an envelope first would deadlock. With `counters`/`clock`
/// set, wall time spent past the first empty sweep is charged to
/// counters->pop_wait_us (the profiler's "wait" bucket); the instant-hit
/// fast path never reads the clock.
///
/// With `bell` set, the consumer parks on it instead of napping once the
/// spins run out: every push into `rings`, every Close() of one and the
/// abort must ring it (fetch_add, then notify_one). The bell is read
/// before each sweep, so a push, close or abort between that read and the
/// park has changed its value and the wait returns at once — no wake is
/// lost. It exists for
/// rings that see a few pushes per second (the sink's, one per window
/// fire): their consumer then costs no CPU while idle. The data rings take
/// ~1e5 envelopes/s, where a notify per push would cost more than the
/// naps it saves, so tasks keep the nap. A bell rules out `ctrl` and
/// `deadline`: a parked consumer neither beats its heartbeat nor sees a
/// deadline pass.
template <typename T>
bool PopAny(std::vector<SpscRing<T>*>& rings, size_t* rr, T* out,
            Profiler::StageCounters* counters = nullptr,
            const Clock* clock = nullptr, Supervisor::SlotCtrl* ctrl = nullptr,
            const std::atomic<bool>* aborted = nullptr, SimTime deadline = -1,
            bool* timed_out = nullptr,
            const std::atomic<uint32_t>* bell = nullptr) {
  SDPS_CHECK(bell == nullptr || (ctrl == nullptr && deadline < 0));
  int spins = 0;
  SimTime wait_begin = -1;
  const auto done = [&](bool popped) {
    if (wait_begin >= 0 && counters != nullptr) {
      counters->pop_wait_us.fetch_add(clock->now() - wait_begin,
                                      std::memory_order_relaxed);
    }
    return popped;
  };
  for (;;) {
    const uint32_t rung =
        bell != nullptr ? bell->load(std::memory_order_acquire) : 0;
    if (ctrl != nullptr) {
      ctrl->heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (ctrl->kill.load(std::memory_order_acquire)) return done(false);
    }
    if (aborted != nullptr && aborted->load(std::memory_order_acquire)) {
      return done(false);
    }
    bool all_closed = true;
    for (size_t k = 0; k < rings.size(); ++k) {
      SpscRing<T>& ring = *rings[(*rr + k) % rings.size()];
      if (ring.TryPopSwap(*out)) {
        *rr = (*rr + k + 1) % rings.size();
        return done(true);
      }
      if (!ring.closed()) all_closed = false;
    }
    if (all_closed) {
      for (SpscRing<T>* ring : rings) {
        if (ring->TryPopSwap(*out)) return done(true);
      }
      return done(false);
    }
    if (counters != nullptr && clock != nullptr && wait_begin < 0) {
      wait_begin = clock->now();
    }
    if (deadline >= 0 && clock != nullptr && clock->now() >= deadline) {
      if (timed_out != nullptr) *timed_out = true;
      return done(false);
    }
    if (bell != nullptr && spins >= kBackoffSpins) {
      bell->wait(rung, std::memory_order_acquire);
    } else {
      BackoffStep(spins);
    }
  }
}

/// A task's logical window state, one alternative per engine model and
/// query: flink incremental aggregates, storm buffered windows, the join
/// buffers (flink and storm), spark bucket partials.
using WindowState =
    std::variant<engine::AggWindowState, engine::BufferedWindowState,
                 engine::JoinWindowState, engine::BucketWindowState>;

/// Fired outputs, whichever state fired them.
std::vector<OutputRecord> OutputsOf(std::vector<OutputRecord> outs) { return outs; }
template <typename Fired>
std::vector<OutputRecord> OutputsOf(Fired fired) {
  return std::move(fired.outputs);
}

/// The Flink model's committed checkpoint: a deep copy of the window state
/// + watermark tracker at the commit point. Restoring it and replaying the
/// ring suffix above the ack frontier reconstructs the crashed incarnation
/// exactly (replay re-folds exactly the post-checkpoint envelopes).
struct FlinkSnapshot {
  WindowState state;
  engine::WatermarkTracker tracker;
  uint64_t late = 0;
};

/// Durable per-task-slot state shared by every incarnation of the slot.
/// The supervisor's join serializes incarnations (and the respawn path),
/// so the non-atomic fields need no locks.
struct TaskSlot {
  Supervisor::SlotCtrl ctrl;
  SlotChaos chaos;
  std::optional<FlinkSnapshot> flink_ckpt;  // Flink: last committed checkpoint
  int64_t spark_committed = -1;             // Spark: committed boundary cursor
  uint64_t replayed = 0;                    // envelopes re-delivered on restarts
  uint64_t checkpoints = 0;                 // Flink checkpoints committed
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
  const size_t batch = static_cast<size_t>(config.batch);
  RtResult result;

  // Compile the fault plan against this pipeline shape before anything
  // spawns: a bad plan is a config error, not a mid-run surprise.
  Result<RtChaosPlan> plan_or = RtChaosPlan::Compile(config.faults, S, T);
  if (!plan_or.ok()) {
    result.failure = plan_or.status();
    return result;
  }
  const RtChaosPlan plan = std::move(plan_or).value();
  const auto task_fault = [&plan](chaos::FaultKind kind) {
    for (const auto& faults : plan.task_faults) {
      for (const RtFault& f : faults) {
        if (f.kind == kind) return true;
      }
    }
    return false;
  };
  // Crash/wedge on a task makes its input rings a replayable log; the
  // plain pipeline (and straggle-only runs) keeps the original move-out
  // pop with no ack bookkeeping.
  const bool retain = task_fault(chaos::FaultKind::kCrash) ||
                      task_fault(chaos::FaultKind::kWedge);
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

  Clock clock;
  // Telemetry time = this pipeline's wall clock: spans recorded by any
  // component during the run get hardware-truth timestamps.
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::ClockGuard clock_guard(tracer, [&clock] { return clock.now(); });

  // Rings: S x T data edges, T sink edges.
  std::vector<std::unique_ptr<SpscRing<Envelope>>> data_rings;
  data_rings.reserve(static_cast<size_t>(S * T));
  for (int i = 0; i < S * T; ++i) {
    data_rings.push_back(std::make_unique<SpscRing<Envelope>>(config.ring_capacity));
    if (retain) data_rings.back()->set_retain(true);
  }
  auto ring_of = [&](int s, int t) -> SpscRing<Envelope>& {
    return *data_rings[static_cast<size_t>(s * T + t)];
  };
  std::vector<std::unique_ptr<SpscRing<std::vector<OutputRecord>>>> sink_rings;
  for (int t = 0; t < T; ++t) {
    sink_rings.push_back(
        std::make_unique<SpscRing<std::vector<OutputRecord>>>(config.ring_capacity));
  }

  // Same seed-fork protocol as driver::RunExperiment: one fork per driver
  // (source), in driver order — the record streams are bit-identical.
  Rng root(config.seed);
  std::vector<Rng> source_rngs;
  source_rngs.reserve(static_cast<size_t>(S));
  for (int s = 0; s < S; ++s) source_rngs.push_back(root.Fork());

  std::vector<driver::GeneratorConfig> gen_configs(static_cast<size_t>(S),
                                                   config.generator);
  for (auto& gen : gen_configs) {
    gen.duration = config.duration;
    gen.rate = driver::ConstantRate(config.total_rate / static_cast<double>(S));
  }

  const SimTime warmup_end =
      config.paced ? static_cast<SimTime>(config.warmup_fraction *
                                          static_cast<double>(config.duration))
                   : 0;
  driver::LatencySink sink(clock, warmup_end);
  chaos::RecoveryTracker rtracker;
  if (config.track_recovery) sink.set_recovery_tracker(&rtracker);
  std::vector<OutputRecord> captured;
  if (config.capture_outputs) {
    sink.SetOutputListener(
        [&captured](const OutputRecord& out) { captured.push_back(out); });
  }

  std::atomic<uint64_t> input_records{0};
  std::atomic<uint64_t> input_tuples{0};
  std::atomic<uint64_t> late_tuples{0};
  // Teardown + watchdog plane: one flag every blocking loop checks, one
  // monotone counter the watchdog reads as sink progress, one flag that
  // tells the supervisor the sink drained (its exit condition).
  std::atomic<bool> pipeline_aborted{false};
  std::atomic<bool> sink_done{false};
  std::atomic<uint64_t> outputs_emitted{0};
  // The sink's bell (PopAny): rung after every push into a sink ring, every
  // Close() of one, and the abort, so the idle sink parks instead of
  // polling.
  std::atomic<uint32_t> sink_bell{0};
  const auto ring_sink_bell = [&sink_bell] {
    sink_bell.fetch_add(1, std::memory_order_release);
    sink_bell.notify_one();
  };
  const auto abort_pipeline = [&] {
    pipeline_aborted.store(true, std::memory_order_release);
    for (auto& ring : data_rings) ring->Abort();
    for (auto& ring : sink_rings) ring->Abort();
    ring_sink_bell();
  };

  // Durable slot state (fault plans, checkpoint snapshots, commit
  // cursors): outlives every incarnation.
  std::vector<std::unique_ptr<TaskSlot>> task_slots;
  task_slots.reserve(static_cast<size_t>(T));
  for (int t = 0; t < T; ++t) {
    task_slots.push_back(std::make_unique<TaskSlot>());
    task_slots.back()->chaos =
        SlotChaos(plan.task_faults[static_cast<size_t>(t)]);
  }

  // Observability plane (DESIGN.md §6): optional sampler profiling every
  // ring and stage thread, optional wall-clock span tracing on every
  // worker. Both default off — the measured pipeline is the plain one.
  std::optional<Profiler> profiler;
  std::vector<Profiler::StageCounters*> src_counters(static_cast<size_t>(S),
                                                     nullptr);
  std::vector<Profiler::StageCounters*> task_counters(static_cast<size_t>(T),
                                                      nullptr);
  Profiler::StageCounters* sink_counters = nullptr;
  if (config.profile) {
    profiler.emplace(Profiler::Options{config.profile_period});
    for (int s = 0; s < S; ++s) {
      src_counters[static_cast<size_t>(s)] =
          profiler->AddStage("rt-src-" + std::to_string(s));
    }
    for (int t = 0; t < T; ++t) {
      task_counters[static_cast<size_t>(t)] =
          profiler->AddStage("rt-task-" + std::to_string(t));
    }
    sink_counters = profiler->AddStage("rt-sink");
    for (int s = 0; s < S; ++s) {
      for (int t = 0; t < T; ++t) {
        SpscRing<Envelope>* ring = &ring_of(s, t);
        profiler->AddRing(
            "src" + std::to_string(s) + "-task" + std::to_string(t),
            ring->capacity(), [ring] { return ring->SizeApprox(); });
      }
    }
    for (int t = 0; t < T; ++t) {
      SpscRing<std::vector<OutputRecord>>* ring =
          sink_rings[static_cast<size_t>(t)].get();
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
  exec_options.trace_clock = config.trace ? &clock : nullptr;
  exec_options.profiler = profiler.has_value() ? &*profiler : nullptr;
  Executor executor(exec_options);

  std::optional<Supervisor> supervisor;
  if (run_supervisor) {
    Supervisor::Options sup;
    sup.clock = &clock;
    sup.executor = &executor;
    sup.poll_period = config.chaos.poll_period;
    sup.stall_timeout = config.chaos.stall_timeout;
    sup.max_restarts = config.chaos.max_restarts;
    sup.backoff_initial = config.chaos.backoff_initial;
    sup.watchdog_timeout = config.watchdog_timeout;
    sup.progress = [&outputs_emitted] {
      return outputs_emitted.load(std::memory_order_relaxed);
    };
    sup.fault_windows = plan.WallWindows(config.fault_grace, supervise_tasks);
    sup.abort_pipeline = abort_pipeline;
    sup.pipeline_done = [&sink_done] {
      return sink_done.load(std::memory_order_acquire);
    };
    supervisor.emplace(std::move(sup));
  }

  clock.Start();
  if (profiler.has_value()) profiler->Start();
  obs::FlightRecorder::Note("rt.pipeline.start", S, T);

  // -- Sources --------------------------------------------------------------
  for (int s = 0; s < S; ++s) {
    Profiler::StageCounters* const counters = src_counters[static_cast<size_t>(s)];
    executor.Spawn("rt-src-" + std::to_string(s), [&, s, counters] {
      Generator gen(gen_configs[static_cast<size_t>(s)],
                    source_rngs[static_cast<size_t>(s)]);
      SlotChaos schaos(plan.source_faults[static_cast<size_t>(s)]);
      // Per-task open envelope: records accumulate in place and the whole
      // envelope swaps into the ring on flush.
      std::vector<Envelope> open(static_cast<size_t>(T));
      uint64_t records = 0, tuples = 0, watermarks = 0;
      SimTime max_event = engine::kNoWatermark;
      SimTime next_wm = config.watermark_every;
      SimTime straggle_last = clock.now();
      bool alive = true;
      // The worker's thread-local tracer (enabled by the executor when
      // config.trace); disabled, the spans below are a branch each.
      obs::Tracer& tracer = obs::Tracer::Default();
      const obs::TrackId track =
          tracer.Track("rt", "rt-src-" + std::to_string(s));

      // Swaps `env` into the ring and leaves it holding the slot's
      // drained envelope, reset for refilling.
      auto push_blocking = [&](int t, Envelope& env) {
        SpscRing<Envelope>& ring = ring_of(s, t);
        env.origin = s;
        if (!ring.TryPushSwap(env)) {  // env untouched on failure
          const SimTime t0 = clock.now();
          {
            obs::ScopedSpan blocked(tracer, track, "ring.push_block");
            // A false return means the ring was aborted (supervisor
            // teardown): stop producing, the run is over.
            if (!ring.PushSwap(env)) alive = false;
          }
          if (counters != nullptr) {
            counters->blocked_us.fetch_add(clock.now() - t0,
                                           std::memory_order_relaxed);
          }
        }
        env.records.Clear();
        env.has_watermark = false;
      };
      // Shuffle fabric (engine/columnar.h): records stage into one batch,
      // radix-scatter to the per-task open runs in a single pass (a batch
      // bound for one task whose run is empty moves whole), and — with
      // the combiner on — each flushed run collapses into
      // per-(key, bucket) partials before the ring push.
      const engine::Partitioner partitioner(T);
      engine::RecordBatch staging;
      engine::ColumnarBatch cols;
      engine::PartitionPlan plan_scratch;
      Envelope side;  // combiner output and watermarks
      std::optional<engine::ShuffleCombiner> combiner;
      if (combine) {
        combiner.emplace(config.model == RtPipelineConfig::Model::kSpark
                             ? config.batch_interval
                             : config.query.window.slide);
      }
      auto flush = [&](int t) {
        Envelope& env = open[static_cast<size_t>(t)];
        if (env.records.empty()) return;
        obs::ScopedSpan span(tracer, track, "src.flush");
        span.Arg("records", static_cast<double>(env.records.size()));
        if (combiner.has_value()) {
          combiner->Combine(env.records.begin(), env.records.size(),
                            &side.records);
          env.records.Clear();
          push_blocking(t, side);
        } else {
          push_blocking(t, env);
        }
      };
      auto scatter = [&] {
        const size_t n = staging.size();
        if (n == 0) return;
        // One task: the plan is the identity and reads no keys.
        if (T > 1) cols.LoadKeys(staging.begin(), n);
        engine::RadixPartition(cols.keys.data(), n, partitioner,
                               &plan_scratch);
        if (plan_scratch.active.size() == 1) {
          // The whole batch goes to one task. If that task's envelope is
          // empty, the staging batch becomes it by swap and staging takes
          // the envelope's spent storage: no record is copied. With one
          // task every batch goes this way.
          const int t = plan_scratch.active.front();
          engine::RecordBatch& b = open[static_cast<size_t>(t)].records;
          if (b.empty()) {
            std::swap(b, staging);
            if (b.size() >= batch) flush(t);
            return;
          }
        }
        const Record* rows = staging.begin();
        for (int t = 0; t < T; ++t) {
          const uint32_t run = plan_scratch.RunSize(t);
          if (run == 0) continue;
          engine::RecordBatch& b = open[static_cast<size_t>(t)].records;
          b.Reserve(b.size() + run);
          for (const uint32_t* it = plan_scratch.Begin(t);
               it != plan_scratch.End(t); ++it) {
            b.PushBack(rows[*it]);
          }
          if (b.size() >= batch) flush(t);
        }
        staging.Clear();
      };
      auto broadcast_wm = [&](SimTime wm) {
        scatter();  // records first: the watermark must not overtake them
        for (int t = 0; t < T; ++t) {
          flush(t);
          side.has_watermark = true;
          side.watermark = wm;
          push_blocking(t, side);
        }
        ++watermarks;
        obs::FlightRecorder::Note("src.wm", s, wm);
      };

      // Ingest stamp: the source's most recent clock read. Paced, that is
      // PaceTo's read — one per wake: the wake after a nap, shared by every
      // record that fell due during the nap, never before a record's
      // planned event time. Unpaced, one read per staging batch, taken as
      // the batch opens (per record at batch 1). Either way a stamp never
      // postdates the record's true ingest, so latency measured from it is
      // never understated.
      SimTime stamp = 0;
      for (;;) {
        auto rec = gen.Next();
        if (!rec.has_value() || !alive) break;
        const SimTime planned = gen.planned_time();
        if (config.paced) stamp = gen.PaceTo(clock);
        if (planned >= next_wm && max_event != engine::kNoWatermark) {
          broadcast_wm(max_event);
          while (next_wm <= planned) next_wm += config.watermark_every;
        }
        if (!config.paced && staging.empty()) stamp = clock.now();
        rec->ingest_time = stamp;
        max_event = std::max(max_event, rec->event_time);
        ++records;
        tuples += rec->weight;
        // Batch 1 is a staging batch of one: every record scatters and
        // flushes as it arrives.
        staging.PushBack(*rec);
        if (staging.size() >= batch) scatter();
        if (schaos.armed()) {
          // Source straggle: throttle ingest to `factor` of wall time
          // (sources are unsupervised — slow, never dead).
          const SimTime now = clock.now();
          const SimTime zzz = schaos.StraggleSleep(now, now - straggle_last);
          if (zzz > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(zzz));
          }
          straggle_last = clock.now();
        }
      }
      // Horizon reached: flush everything, flush every window, end the
      // streams. Close after the final watermark so consumers drain it.
      if (alive) broadcast_wm(kFinalWatermark);
      for (int t = 0; t < T; ++t) ring_of(s, t).Close();
      input_records.fetch_add(records, std::memory_order_relaxed);
      input_tuples.fetch_add(tuples, std::memory_order_relaxed);
      if (counters != nullptr) {
        counters->records.fetch_add(records, std::memory_order_relaxed);
      }
      // Fold this worker's totals into the process registry at exit
      // (instruments are atomic + enabled-gated; one resolve per run).
      obs::Registry& reg = obs::Registry::Default();
      const obs::LabelSet labels = {{"source", std::to_string(s)}};
      reg.GetCounter("rt.source.records", labels)->Add(records);
      reg.GetCounter("rt.source.tuples", labels)->Add(tuples);
      reg.GetCounter("rt.source.watermarks", labels)->Add(watermarks);
      obs::FlightRecorder::Note("src.done", s, static_cast<int64_t>(records));
    });
  }

  // -- Tasks ----------------------------------------------------------------
  // The body is a named, durable callable (not a one-shot lambda in Spawn)
  // because the supervisor's respawn path runs the same body again as the
  // slot's next incarnation.
  std::vector<std::function<void()>> task_bodies(static_cast<size_t>(T));
  std::vector<Executor::WorkerId> task_workers(static_cast<size_t>(T), -1);
  for (int t = 0; t < T; ++t) {
    Profiler::StageCounters* const counters = task_counters[static_cast<size_t>(t)];
    task_bodies[static_cast<size_t>(t)] = [&, t, counters] {
      TaskSlot& slot = *task_slots[static_cast<size_t>(t)];
      Supervisor::SlotCtrl* const ctrl = supervise_tasks ? &slot.ctrl : nullptr;
      std::vector<SpscRing<Envelope>*> inputs;
      for (int s = 0; s < S; ++s) inputs.push_back(&ring_of(s, t));
      const bool flink = config.model == RtPipelineConfig::Model::kFlink;
      const bool spark = config.model == RtPipelineConfig::Model::kSpark;
      obs::Tracer& tracer = obs::Tracer::Default();
      const obs::TrackId track =
          tracer.Track("rt", "rt-task-" + std::to_string(t));

      // The engines' own logical state: one WindowState alternative, built
      // once from (model, query). Recovery restore per engine model:
      //   flink  last committed checkpoint snapshot (exactly-once)
      //   spark  committed boundary cursor; bucket recompute from replay
      //          (exactly-once)
      //   storm  fresh state + full replay from the ack frontier
      //          (at-least-once: already-delivered windows refire)
      WindowState state = [&]() -> WindowState {
        const engine::WindowAssigner assigner(config.query.window);
        if (spark) {
          return engine::BucketWindowState(config.query, config.batch_interval,
                                           slot.spark_committed);
        }
        if (config.query.kind == engine::QueryKind::kJoin) {
          return engine::JoinWindowState(assigner);
        }
        if (flink) return engine::AggWindowState(assigner);
        return engine::BufferedWindowState(assigner);
      }();
      engine::WatermarkTracker tracker(S);
      uint64_t late = 0;
      if (flink && slot.flink_ckpt.has_value()) {
        const FlinkSnapshot& ckpt = *slot.flink_ckpt;
        state = ckpt.state;
        tracker = ckpt.tracker;
        late = ckpt.late;
      }

      // Flink under retention runs a transactional sink: fired outputs
      // buffer here and reach the sink ring only when the checkpoint
      // commits (so a crash can never have emitted uncommitted state).
      const bool transactional = flink && retain;
      std::vector<OutputRecord> pending;
      SimTime next_ckpt = clock.now() + config.chaos.checkpoint_every;
      // Storm/Spark ack bookkeeping: per input ring, FIFO entries of
      // (absolute pop index one past the envelope, its max event time).
      // An envelope is acked once no unfired window / uncommitted
      // boundary can still need its records.
      const bool storm_acks =
          retain && config.model == RtPipelineConfig::Model::kStorm;
      const bool spark_acks = retain && spark;
      std::vector<std::deque<std::pair<uint64_t, SimTime>>> ack_log;
      if (storm_acks || spark_acks) ack_log.resize(inputs.size());
      const auto ack_through_frontier = [&](SimTime frontier, bool strict) {
        for (size_t r = 0; r < inputs.size(); ++r) {
          auto& log = ack_log[r];
          uint64_t ack_to = 0;
          bool any = false;
          while (!log.empty() && (strict ? log.front().second < frontier
                                         : log.front().second <= frontier)) {
            ack_to = log.front().first;
            any = true;
            log.pop_front();
          }
          if (any) inputs[r]->AckThrough(ack_to);
        }
      };

      SpscRing<std::vector<OutputRecord>>& out_ring =
          *sink_rings[static_cast<size_t>(t)];
      // Swaps `outs` into the sink ring; it comes back holding the slot's
      // drained vector, cleared.
      auto push_outputs = [&](std::vector<OutputRecord>& outs) {
        if (outs.empty()) return;
        if (!out_ring.TryPushSwap(outs)) {
          const SimTime t0 = clock.now();
          {
            obs::ScopedSpan blocked(tracer, track, "ring.push_block");
            out_ring.PushSwap(outs);  // false only on abort: run over
          }
          if (counters != nullptr) {
            counters->blocked_us.fetch_add(clock.now() - t0,
                                           std::memory_order_relaxed);
          }
        }
        ring_sink_bell();
        outs.clear();
      };
      // Flink checkpoint: commit pending outputs, snapshot state, ack the
      // consumed ring prefix. Runs between envelopes, so it is atomic
      // with respect to injected faults by construction.
      const auto checkpoint = [&](SimTime now) {
        obs::ScopedSpan span(tracer, track, "chaos.checkpoint");
        push_outputs(pending);
        slot.flink_ckpt = FlinkSnapshot{state, tracker, late};
        for (SpscRing<Envelope>* ring : inputs) {
          ring->AckThrough(ring->pop_index());
        }
        ++slot.checkpoints;
        next_ckpt = now + config.chaos.checkpoint_every;
      };

      uint64_t records = 0, fired_outputs = 0;
      std::vector<OutputRecord> fired;
      // The envelope being applied; PopAny swaps the spent one back into
      // the ring slot it takes the next from.
      Envelope env;
      size_t rr = 0;
      bool fault_exit = false;
      for (;;) {
        bool pop_timed_out = false;
        if (!PopAny(inputs, &rr, &env, counters, &clock, ctrl,
                    &pipeline_aborted, transactional ? next_ckpt : SimTime{-1},
                    &pop_timed_out)) {
          if (pop_timed_out) {
            // Idle past the checkpoint cadence: commit now — the sources
            // may be blocked on the retained rings waiting for this ack.
            checkpoint(clock.now());
            continue;
          }
          // nullopt: the streams drained — or the slot was ordered out /
          // the pipeline aborted, which must not look like a clean end.
          fault_exit = (ctrl != nullptr &&
                        ctrl->kill.load(std::memory_order_acquire)) ||
                       pipeline_aborted.load(std::memory_order_acquire);
          break;
        }
        if (slot.chaos.armed()) {
          const RtFault* fault = slot.chaos.Due(clock.now());
          if (fault != nullptr && fault->kind == chaos::FaultKind::kCrash) {
            // Injected crash: the incarnation dies with this envelope
            // popped but unapplied — exactly the mid-batch loss the
            // retained ring replays to the replacement.
            const SimTime now = clock.now();
            slot.ctrl.fault_wall.store(now, std::memory_order_release);
            SDPS_LOG(Warning) << "rt chaos: injected crash on rt-task-" << t
                              << " at t=" << ToSeconds(now) << "s";
            obs::FlightRecorder::Note("rt.chaos.crash", t, now);
            if (const Status dumped =
                    obs::FlightRecorder::Dump("rt chaos: injected crash");
                !dumped.ok()) {
              SDPS_LOG(Warning) << "flight-recorder dump failed: "
                                << dumped.ToString();
            }
            fault_exit = true;
            break;
          }
          if (fault != nullptr && fault->kind == chaos::FaultKind::kWedge) {
            // Injected wedge: stay alive, stop consuming, freeze the
            // heartbeat. Only the supervisor's liveness detector (or the
            // wedge window expiring) gets the slot out of here.
            const SimTime now = clock.now();
            slot.ctrl.fault_wall.store(now, std::memory_order_release);
            SDPS_LOG(Warning) << "rt chaos: injected wedge on rt-task-" << t
                              << " at t=" << ToSeconds(now) << "s";
            obs::FlightRecorder::Note("rt.chaos.wedge", t, now);
            if (const Status dumped =
                    obs::FlightRecorder::Dump("rt chaos: injected wedge");
                !dumped.ok()) {
              SDPS_LOG(Warning) << "flight-recorder dump failed: "
                                << dumped.ToString();
            }
            const SimTime wedge_end =
                fault->duration > 0 ? fault->at + fault->duration
                                    : std::numeric_limits<SimTime>::max();
            bool killed = false;
            for (;;) {
              if (ctrl != nullptr &&
                  ctrl->kill.load(std::memory_order_acquire)) {
                killed = true;
                break;
              }
              if (pipeline_aborted.load(std::memory_order_acquire)) {
                killed = true;
                break;
              }
              if (clock.now() >= wedge_end) break;
              std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
            if (killed) {
              fault_exit = true;
              break;
            }
            // Transient wedge nobody killed: resume, starting with the
            // envelope we froze on.
          }
        }
        const SimTime busy_begin = slot.chaos.armed() ? clock.now() : 0;
        if (!env.records.empty()) {
          records += env.records.size();
          obs::ScopedSpan apply(tracer, track, "window.apply");
          apply.Arg("records", static_cast<double>(env.records.size()));
          const auto add = [&env](auto& s) {
            return engine::AddBatch(s, env.records.begin(), env.records.size());
          };
          late += std::visit(add, state).late_tuples;
        }
        if (!ack_log.empty()) {
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
          ack_log[static_cast<size_t>(env.origin)].emplace_back(
              inputs[static_cast<size_t>(env.origin)]->pop_index(), ack_event);
        }
        if (env.has_watermark && tracker.Update(env.origin, env.watermark)) {
          const SimTime wm = tracker.current();
          obs::ScopedSpan fire(tracer, track, "window.fire");
          fired = std::visit([wm](auto& s) { return OutputsOf(s.FireUpTo(wm)); },
                             state);
          fire.Arg("outputs", static_cast<double>(fired.size()));
          obs::FlightRecorder::Note("task.fire", t,
                                    static_cast<int64_t>(fired.size()));
          if (!fired.empty()) {
            fired_outputs += fired.size();
            if (transactional) {
              pending.insert(pending.end(), fired.begin(), fired.end());
            } else {
              push_outputs(fired);
            }
          }
          if (storm_acks) {
            // At-least-once ack frontier: every window containing a record
            // with event time e has end > e, and fires once end <= wm — so
            // an envelope whose max event <= wm - range can no longer
            // reach an unfired window. Its outputs were pushed above
            // (before the ack), hence at-least-once: a crash after the
            // push refires those windows from replay as duplicates.
            ack_through_frontier(wm - config.query.window.range,
                                 /*strict=*/false);
          } else if (spark_acks) {
            // Committed-cursor commit: boundaries below next_boundary()
            // are emitted; a restart resumes the cursor there and only
            // needs buckets >= cursor - range_batches + 1, i.e. records
            // with event time >= (cursor - range_batches) * interval.
            const auto& buckets = std::get<engine::BucketWindowState>(state);
            slot.spark_committed = buckets.next_boundary();
            const SimTime frontier =
                (slot.spark_committed - buckets.range_buckets()) *
                config.batch_interval;
            ack_through_frontier(frontier, /*strict=*/true);
          }
        }
        if (slot.chaos.armed()) {
          // Straggle throttle: stretch this envelope's processing time to
          // busy / factor, sleeping in short chunks that keep the
          // heartbeat live (a straggler is slow, not wedged) and stay
          // responsive to kill/abort.
          const SimTime now = clock.now();
          SimTime zzz = slot.chaos.StraggleSleep(now, now - busy_begin);
          while (zzz > 0) {
            if (ctrl != nullptr && ctrl->kill.load(std::memory_order_acquire)) {
              break;
            }
            if (pipeline_aborted.load(std::memory_order_acquire)) break;
            const SimTime chunk = std::min<SimTime>(zzz, Millis(5));
            std::this_thread::sleep_for(std::chrono::microseconds(chunk));
            if (ctrl != nullptr) {
              ctrl->heartbeat.fetch_add(1, std::memory_order_relaxed);
            }
            zzz -= chunk;
          }
        }
        if (transactional) {
          const SimTime now = clock.now();
          if (now >= next_ckpt) checkpoint(now);
        }
      }

      if (fault_exit) {
        obs::FlightRecorder::Note("rt.task.exit", t, clock.now());
        if (ctrl != nullptr) {
          // Hand the slot to the supervisor: it joins this thread, rewinds
          // the rings to the ack frontier, and respawns the body.
          ctrl->exited.store(true, std::memory_order_release);
        }
        return;
      }
      // Clean drain: commit the tail, close downstream, fold metrics.
      // Folding happens only here — a restarted incarnation re-processes
      // replayed envelopes, so per-incarnation folding would double-count.
      if (transactional) push_outputs(pending);
      out_ring.Close();
      ring_sink_bell();
      slot.ctrl.done.store(true, std::memory_order_release);
      late_tuples.fetch_add(late, std::memory_order_relaxed);
      if (counters != nullptr) {
        counters->records.fetch_add(records, std::memory_order_relaxed);
      }
      obs::Registry& reg = obs::Registry::Default();
      const obs::LabelSet labels = {{"task", std::to_string(t)}};
      reg.GetCounter("rt.task.records", labels)->Add(records);
      reg.GetCounter("rt.task.fired_outputs", labels)->Add(fired_outputs);
      reg.GetCounter("rt.task.late_tuples", labels)->Add(late);
      obs::FlightRecorder::Note("task.done", t, static_cast<int64_t>(records));
    };
    task_workers[static_cast<size_t>(t)] = executor.Spawn(
        "rt-task-" + std::to_string(t), task_bodies[static_cast<size_t>(t)]);
  }

  if (supervise_tasks) {
    for (int t = 0; t < T; ++t) {
      TaskSlot* const slot = task_slots[static_cast<size_t>(t)].get();
      supervisor->AddSlot(
          "rt-task-" + std::to_string(t), &slot->ctrl,
          task_workers[static_cast<size_t>(t)],
          [&, t, slot]() -> Executor::WorkerId {
            // Supervisor thread, after joining the dead incarnation (so
            // everything it did happens-before this): rewind each input
            // ring to its ack frontier — the consumed-but-uncommitted
            // suffix replays to the replacement in original FIFO order.
            for (int s = 0; s < S; ++s) {
              SpscRing<Envelope>& ring = ring_of(s, t);
              slot->replayed += ring.pop_index() - ring.acked_index();
              ring.ReplayFromAcked();
            }
            return executor.Spawn("rt-task-" + std::to_string(t),
                                  task_bodies[static_cast<size_t>(t)]);
          });
    }
  }

  // -- Sink -----------------------------------------------------------------
  executor.Spawn("rt-sink", [&] {
    std::vector<SpscRing<std::vector<OutputRecord>>*> inputs;
    for (auto& ring : sink_rings) inputs.push_back(ring.get());
    obs::Tracer& tracer = obs::Tracer::Default();
    const obs::TrackId track = tracer.Track("rt", "rt-sink");
    uint64_t outputs = 0;
    size_t rr = 0;
    bool crash_noted = false;
    std::vector<OutputRecord> outs;
    while (PopAny(inputs, &rr, &outs, sink_counters, &clock, nullptr,
                  &pipeline_aborted, /*deadline=*/-1, nullptr, &sink_bell)) {
      outputs += outs.size();
      outputs_emitted.fetch_add(outs.size(), std::memory_order_relaxed);
      if (config.track_recovery && !crash_noted && supervisor.has_value()) {
        // Register the measured crash window (worker fault instant →
        // supervisor respawn instant) before observing these emissions so
        // the tracker attributes first-output-after correctly.
        const SimTime crash = supervisor->first_fault_wall();
        const SimTime restart = supervisor->first_restart_wall();
        if (crash >= 0 && restart >= 0) {
          rtracker.NoteCrashWindow(crash, restart);
          crash_noted = true;
        }
      }
      obs::ScopedSpan emit(tracer, track, "sink.emit");
      emit.Arg("outputs", static_cast<double>(outs.size()));
      for (const OutputRecord& out : outs) sink.Emit(out);
    }
    if (sink_counters != nullptr) {
      sink_counters->records.fetch_add(outputs, std::memory_order_relaxed);
    }
    obs::Registry::Default()
        .GetCounter("rt.sink.outputs")
        ->Add(outputs);
    sink_done.store(true, std::memory_order_release);
    obs::FlightRecorder::Note("sink.done", static_cast<int64_t>(outputs));
  });

  if (run_supervisor) supervisor->Start();

  // Shutdown protocol: the supervisor exits on its own once the sink
  // drains (or the teardown aborts it); waiting for that BEFORE JoinAll
  // means its targeted Join never races the bulk join below.
  if (run_supervisor) supervisor->AwaitExit();
  executor.JoinAll();
  const SimTime wall = clock.now();
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

  result.input_records = input_records.load(std::memory_order_relaxed);
  result.input_tuples = input_tuples.load(std::memory_order_relaxed);
  result.late_dropped_tuples = late_tuples.load(std::memory_order_relaxed);
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
