// Apache Spark Streaming 2.0 execution model (see DESIGN.md substitution
// table):
//
//  * mini-batch (DStream) execution: single-threaded receivers accumulate
//    records into blocks every block_interval; every batch_interval the
//    driver creates a job over the sealed blocks (#RDD partitions =
//    batchInterval/blockInterval per receiver, the paper's tuning knob);
//  * a DAG scheduler on the master dispatches tasks serially (milliseconds
//    per task — the paper's Fig. 11 scheduler-delay bottleneck); stages
//    are BLOCKING: the reduce stage waits for every map task;
//  * tree-aggregate (map-side combine) makes the shuffle carry per-key
//    partials instead of raw tuples — the mechanism behind Spark's skew
//    robustness in the paper's Experiment 4;
//  * windows are batch-aligned (processing-time), combined from per-batch
//    partials; Experiment 3 modes: cache_window retains raw window tuples
//    in the block manager (aggressive memory use -> spill slowdown),
//    inverse_reduce maintains a running aggregate with eviction (the
//    paper's fix), neither -> full recomputation each slide;
//  * PID-style backpressure: the receiver rate limit is adjusted after
//    every job from the observed processing rate.
#ifndef SDPS_ENGINES_SPARK_SPARK_H_
#define SDPS_ENGINES_SPARK_SPARK_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/time_util.h"
#include "driver/sut.h"
#include "engine/query.h"

namespace sdps::engines {

struct SparkConfig {
  engine::QueryConfig query;

  /// Mini-batch interval. The paper uses 4 s ("we use a four second
  /// batch-size for Spark, as it can sustain the maximum throughput with
  /// this configuration"). Window range and slide must be multiples.
  SimTime batch_interval = Seconds(4);
  /// Block interval: one RDD partition per receiver per block.
  SimTime block_interval = Millis(100);

  // -- Per-logical-tuple CPU costs, microseconds of one CPU slot ----------
  /// Receiver ingest loop (single-threaded per receiver!). This serial
  /// cost is Spark's binding ingest constraint (deployments scale by
  /// adding receivers; with the coordination overhead table below it
  /// yields Table I's 0.38 / 0.64 / 0.91 M/s).
  double receiver_cost_us = 4.4;
  /// The receiver's long-running task still shares the machine with batch
  /// tasks (memory bandwidth, context switches): its per-tuple cost is
  /// inflated by (1 + receiver_contention x busy-slot fraction). This is
  /// what couples the pull rate to the job schedule — the paper's Fig. 9
  /// oscillating Spark ingest.
  double receiver_contention = 0.55;
  /// Stage-1 map + combine + shuffle write, per tuple. Deliberately heavy
  /// (~2.7x Flink per tuple, consistent with Fig. 10's CPU/throughput
  /// ratio — the paper attributes it to RDD creation, block-manager
  /// transfer and stage pipelining): at the sustainable rate the job
  /// runtime hovers at ~3.3 s, just under the 4 s batch interval, so GC or
  /// an extra task wave occasionally pushes a job over the interval — the
  /// paper's Fig. 11 scheduler-delay spikes.
  double map_cost_us = 46.0;
  /// Stage-1 map cost for the join query (no combiner; plain shuffle
  /// write is cheaper per tuple than the aggregation's map+combine).
  double join_map_cost_us = 28.0;
  /// Stage-2 merge, per partial-aggregate entry (tree aggregate on).
  double reduce_entry_cost_us = 2.0;
  /// Stage-2 merge, per tuple (tree aggregate off): deserializing and
  /// folding raw shuffled tuples is substantially costlier than merging
  /// pre-combined partials.
  double reduce_tuple_cost_us = 2.6;
  /// Join evaluation (build + probe), per tuple per evaluation.
  double join_tuple_cost_us = 1.0;
  double emit_cost_us = 25.0;

  // -- Scheduler ------------------------------------------------------------
  /// Master-side serial dispatch per task (DAG scheduler).
  double task_dispatch_ms = 3.0;
  /// Executor-side task launch/teardown.
  double task_overhead_ms = 15.0;
  int reduce_tasks_per_worker = 2;

  // -- Features ---------------------------------------------------------
  bool tree_aggregate = true;
  bool cache_window = true;
  bool inverse_reduce = false;
  /// Deterministic batch membership: each reduce partition keeps an
  /// engine::BucketWindowState, which buckets records by EVENT time
  /// (bucket b covers [(b-1)*batch_interval, b*batch_interval)) instead of
  /// by which job their block happened to land in, and evaluates a window
  /// boundary only once the jobs' sealed event-time frontier reaches its
  /// end — so the output multiset is a pure function of the input stream,
  /// not of arrival timing. The realtime backend's Spark task runs the
  /// same bucket state, which is what makes Spark's outputs comparable
  /// across the two backends (DESIGN.md §6); it assumes in-order event
  /// times per receiver (max_event_lag == 0). Off by default: the
  /// arrival-batched behaviour above is the faithful Spark Streaming
  /// model, with its timing-dependent startup/partial windows.
  bool deterministic_batching = false;
  /// Shuffle-side combiner (large-cardinality shuffle fabric): map tasks
  /// pre-aggregate each block's records into per-(key, batch-bucket)
  /// partials before the shuffle transfer, and the deterministic-mode
  /// reduce tree-combines the per-map partial groups before folding them
  /// into its buckets. A partial crosses the wire as one physical tuple.
  /// Aggregation query only (ignored for the join); works in both classic
  /// and deterministic modes — unlike tree_aggregate's map-side combine,
  /// the partials stay bucket-pure, so event-time bucketing survives.
  /// Logical outputs are unchanged (DESIGN §6); incompatible with
  /// recovery_enabled to keep recompute accounting per raw record.
  bool shuffle_combine = false;

  // -- Backpressure (simplified PID rate estimator) -----------------------
  /// Fraction of the observed processing rate the controller targets when
  /// a batch overruns its interval.
  double backpressure_headroom = 0.9;
  /// Multiplicative ramp-up applied while batches finish inside the
  /// interval.
  double rate_ramp_up = 1.2;

  // -- Memory -----------------------------------------------------------
  /// Executor heap per node (out of the paper's 16 GB nodes).
  int64_t executor_heap_bytes = 8LL * 1024 * 1024 * 1024;
  /// Fraction of the heap available to the block manager before spilling.
  double storage_fraction = 0.3;
  double spill_slowdown = 2.5;
  int64_t alloc_bytes_per_tuple = 110;

  /// Lumped coordination overhead vs. worker count applied to the
  /// RECEIVER path (block push / replication chatter grows with the
  /// cluster); calibrated against Table I's sublinear Spark scaling.
  std::vector<std::pair<int, double>> receiver_scaling_overhead = {
      {2, 1.0}, {4, 1.18}, {8, 1.67}};
  /// Overhead table for the job path (kept flat: job cost growth with
  /// cluster size is already captured by task-count-proportional dispatch).
  std::vector<std::pair<int, double>> scaling_overhead = {{2, 1.0}, {8, 1.0}};

  // -- Crash recovery (sdps::chaos) -------------------------------------
  /// Micro-batch recovery (receiver-WAL model): received blocks survive a
  /// worker crash, so a failed batch is recomputed from them — the CPU
  /// bill is paid again and the batch's outputs commit late, but exactly
  /// once (at batch granularity). No driver-queue replay is needed. Off
  /// by default: fault-free runs are bit-identical to the recovery-less
  /// model.
  bool recovery_enabled = false;
};

std::unique_ptr<driver::Sut> MakeSpark(SparkConfig config);

}  // namespace sdps::engines

#endif  // SDPS_ENGINES_SPARK_SPARK_H_
