// The realtime pipeline: the engines' logical layer (window states,
// watermark tracking, key partitioning, record streams) executed on real
// threads with wall-clock time instead of on the DES event loop with
// simulated time — the other half of the runtime duality (DESIGN.md §6).
//
// Topology (one OS thread per box, SPSC rings on every edge):
//
//   source 0 ──ring──▸ task 0 ──ring──▸
//          ╲╱                           sink ── LatencySink(rt::Clock)
//          ╱╲                          ▸
//   source 1 ──ring──▸ task 1 ──ring──▸
//
// Sources replay the deterministic RecordStream (same seed-fork order as
// driver::RunExperiment), key-partition each record to a task ring, and
// emit in-band per-source watermarks; tasks fold records into the same
// engine::*WindowState the DES engines use (or the Spark model's
// event-time bucket partials) and fire on the combined watermark; the
// sink measures wall-clock latency through the same LatencySink the DES
// driver uses, via the des::TimeSource seam. Each box is one stage type
// (source, task, sink) in pipeline.cc; a task stage is one incarnation of
// a durable task slot, so a supervised restart builds a fresh one.
//
// Task counters (rt.task.records / late_tuples / fired_outputs and the
// profiler's task records) count each record once across restarts: every
// incarnation folds them at exit, crash included, and a replayed envelope
// is applied again but not counted again. fired_outputs counts outputs
// that reached the sink ring, so the task sums equal
// RtResult::input_records and output_records (shuffle_combine off).
//
// What carries over from a same-seed DES run and what doesn't:
//   exact      — record sequence, window contents, the output multiset of
//                (key, window_end, weight); value sums up to FP ordering
//   backend's  — latencies, rates, thread placement, all timing
// The identity tests in tests/rt/identity_test.cc assert the first row.
#ifndef SDPS_RT_PIPELINE_H_
#define SDPS_RT_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "chaos/fault_schedule.h"
#include "chaos/recovery.h"
#include "common/status.h"
#include "common/time_util.h"
#include "driver/generator.h"
#include "engine/query.h"
#include "engine/record.h"
#include "rt/profiler.h"

namespace sdps::rt {

/// Knobs for the fault/recovery path (rt::chaos + rt::Supervisor); all
/// ignored when RtPipelineConfig::faults is empty and watchdog_timeout
/// is 0 — the plain pipeline pays nothing for them.
struct RtChaosOptions {
  /// Supervision cadence.
  SimTime poll_period = Millis(2);
  /// Heartbeat frozen this long ⇒ the slot is wedged ⇒ kill + restart.
  SimTime stall_timeout = Millis(500);
  /// Restarts per slot before the run fails with Status::Aborted.
  int max_restarts = 3;
  /// First restart delay; doubles per further restart of the same slot.
  SimTime backoff_initial = Millis(25);
  /// Flink model: wall-clock checkpoint cadence. Each checkpoint commits
  /// buffered outputs to the sink (transactional), snapshots window
  /// state, and acks the consumed ring region.
  SimTime checkpoint_every = Millis(250);
  /// false: compile + inject faults but run no supervision thread slots —
  /// the watchdog-only regression path (a wedge nobody rescues must trip
  /// the wall-clock watchdog, not hang).
  bool supervise = true;
};

struct RtPipelineConfig {
  /// Which engine's task model runs on the threads: Flink = incremental
  /// per-(window,key) aggregates, Storm = full-record window buffers with
  /// bulk evaluation, Spark = event-time micro-batch bucket partials
  /// merged at batch-aligned boundaries. The join query uses the shared
  /// two-sided window buffer for Flink/Storm and bucket buffers for
  /// Spark, mirroring the DES engines.
  enum class Model { kFlink, kStorm, kSpark };
  Model model = Model::kFlink;
  engine::QueryConfig query;

  /// Generator template (rate/duration fields are overridden below). Must
  /// match the DES ExperimentConfig::generator for identity comparisons.
  driver::GeneratorConfig generator;
  /// Offered load across all sources, tuples/s; split evenly.
  double total_rate = 1e5;
  /// Source threads. Identity with a DES run requires this to equal the
  /// DES cluster's driver count (the seed-fork order is per driver).
  int num_sources = 2;
  /// Task threads. The output multiset is partition-count independent
  /// (every key is wholly owned by one task), so this is free to match
  /// the host rather than the simulated cluster.
  int num_tasks = 4;
  uint64_t seed = 42;
  SimTime duration = Seconds(10);
  double warmup_fraction = 0.25;

  /// Records per ring envelope — the realtime face of the batched data
  /// plane (--batch=N): sources coalesce up to this many same-partition
  /// records per push, tasks fold them with one engine::AddBatch.
  int batch = 32;
  /// Ring capacity in envelopes. Full ring = producer blocks = real
  /// backpressure.
  size_t ring_capacity = 1024;
  /// true: pace emissions to the planned schedule with SleepUntil
  /// (hardware-truth latency runs; sources sleep until records fall due,
  /// so emission runs up to the OS timer slack late, never early, and
  /// make one clock read per wake, which stamps every record then due).
  /// false: emit as fast as the pipeline accepts (throughput measurement,
  /// fast identity tests) — outputs are identical either way because
  /// event times come from the planned schedule.
  bool paced = false;
  /// Spark model only: micro-batch bucket width. Window range and slide
  /// must be multiples (same validation as the DES SparkSut).
  SimTime batch_interval = Seconds(4);
  /// Shuffle-side combiner on the source fan-out (the rt face of the DES
  /// engines' shuffle_combine): each flushed run is pre-aggregated into
  /// per-(key, bucket) partials before the ring push, so a partial rides
  /// the ring as one physical record. Bucket width is the window slide
  /// (Flink/Storm models) or batch_interval (Spark model), keeping the
  /// partials window/bucket-pure — the output multiset is unchanged, so
  /// same-seed DES<->rt identity holds with the combiner on or off.
  /// Aggregation query + batch > 1 only; incompatible with task fault
  /// injection (retained-ring replay accounts per raw envelope).
  bool shuffle_combine = false;
  /// In-band watermark cadence, in planned-schedule time.
  SimTime watermark_every = Millis(200);
  /// Collect every OutputRecord into RtResult::outputs (identity tests).
  bool capture_outputs = false;
  /// Pin the stage threads round-robin to CPUs — only when there are no
  /// more of them (num_sources + num_tasks + 1) than CPUs; otherwise none
  /// is pinned.
  bool pin_threads = true;

  /// Record wall-clock spans (source flushes, ring push-blocks, window
  /// apply/fire, sink emits) into each worker's tracer and merge them —
  /// with real OS tids — into the caller's tracer at join. Off by
  /// default: deterministic DES trace dumps stay byte-identical.
  bool trace = false;
  /// Run the sampling profiler: ring occupancy + per-thread CPU at
  /// profile_period cadence, stall/compute/idle breakdown in
  /// RtResult::profile.
  bool profile = false;
  SimTime profile_period = Millis(10);

  /// Wall-clock fault plan (same spec grammar as the DES injector; see
  /// rt/chaos.h for the node-name → slot mapping). Crash/wedge on a task
  /// slot switches its input rings into retained mode and arms the
  /// supervisor; an invalid plan fails the run with
  /// RtResult::failure before any thread spawns.
  chaos::FaultSchedule faults;
  RtChaosOptions chaos;
  /// The rt face of ExperimentConfig::watchdog_timeout: wall-clock µs the
  /// sink may make no progress (outside scheduled fault windows + grace)
  /// before the run fails with DeadlineExceeded and a flight dump. 0 off.
  SimTime watchdog_timeout = 0;
  /// Watchdog excusal pad around each fault window (crashes have no
  /// scheduled restart instant on hardware, so the window extends by
  /// this much).
  SimTime fault_grace = Seconds(15);
  /// Observe every sink emission in a chaos::RecoveryTracker and report
  /// RtResult::recovery / observed_outputs.
  bool track_recovery = false;
};

struct RtResult {
  uint64_t input_records = 0;
  uint64_t input_tuples = 0;
  uint64_t output_records = 0;
  uint64_t output_tuples = 0;
  double output_value = 0.0;
  uint64_t late_dropped_tuples = 0;
  /// Wall-clock run time (first source start to sink drain), seconds.
  double wall_seconds = 0.0;
  /// MEASURED throughput: input records (and logical tuples) over wall
  /// time — hardware truth, not a model prediction.
  double records_per_s = 0.0;
  double tuples_per_s = 0.0;
  /// Sink event-time latency percentiles, seconds (obs::QuantileSketch;
  /// meaningful in paced mode where the planned schedule is real time).
  double event_p50_s = 0.0;
  double event_p95_s = 0.0;
  double event_p99_s = 0.0;
  std::vector<engine::OutputRecord> outputs;  // when capture_outputs
  /// Stall/compute/idle breakdown (when RtPipelineConfig::profile).
  bool profiled = false;
  Profiler::Report profile;

  /// OK on a clean run; DeadlineExceeded (watchdog), Aborted (a slot
  /// exhausted its restarts), or InvalidArgument (bad fault plan).
  Status failure;
  /// Recovery-path counters: slot restarts performed, Flink checkpoints
  /// committed, envelopes re-delivered from retained ring regions.
  int restarts = 0;
  uint64_t checkpoints = 0;
  uint64_t replayed_envelopes = 0;
  /// Wall-clock recovery metrics (when track_recovery): crash/restart
  /// instants, recovery time, output gap, availability, duplicates.
  /// `lost` needs an oracle — apply RecoveryTracker::ApplyOracle with a
  /// DES twin's output counts to observed_outputs.
  chaos::RecoveryStats recovery;
  chaos::RecoveryTracker::OutputCounts observed_outputs;
};

/// Runs one realtime pipeline to completion (sources exhaust their
/// schedules, tasks drain, final watermarks flush every window) and
/// returns the measurements. Spawns num_sources + num_tasks + 1 threads;
/// the caller should not run concurrent trials (the whole point is
/// hardware truth on an unshared machine).
RtResult RunRtPipeline(const RtPipelineConfig& config);

}  // namespace sdps::rt

#endif  // SDPS_RT_PIPELINE_H_
