#include "engines/spark/spark.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

#include "cluster/cluster.h"
#include "common/check.h"
#include "des/channel.h"
#include "des/latch.h"
#include "des/resource.h"
#include "des/task.h"
#include "engine/batch.h"
#include "engine/columnar.h"
#include "engine/partition.h"
#include "engine/rate_limiter.h"
#include "engine/record.h"
#include "engine/telemetry.h"
#include "engine/watermark.h"
#include "engine/window_state.h"
#include "engines/dataflow.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sdps::engines {

namespace {

using des::Latch;
using des::Task;
using engine::BucketPartial;
using engine::kFinalWatermark;
using engine::kNoWatermark;
using engine::Record;
using engine::WindowKeyAgg;

/// Serialized size of one shuffled partial-aggregate entry.
constexpr int64_t kPartialWireBytes = 64;
/// JVM-heap size of one partial-aggregate entry / one buffered raw tuple.
constexpr int64_t kPartialHeapBytes = 96;
constexpr int64_t kRawTupleHeapBytes = 160;
/// A cached deserialized RDD row (MEMORY_ONLY java objects) is several
/// times its wire size — this is what makes caching windowed results
/// "consume the memory aggressively" (paper Experiment 3).
constexpr int64_t kCachedRddBytesPerTuple = 400;

/// Block-manager bytes of one retained bucket partial (before caching).
int64_t PartialHeapBytes(const BucketPartial& p) {
  return static_cast<int64_t>(p.aggs.size()) * kPartialHeapBytes +
         static_cast<int64_t>(p.purchases.size() + p.ads.size()) * kRawTupleHeapBytes;
}

/// Folds the shuffled records [begin, end) into the deterministic reduce's
/// buckets; returns the physical tuples folded (the merge CPU charge).
uint64_t FoldRun(engine::BucketWindowState& buckets, const Record* begin,
                 const Record* end) {
  uint64_t tuples = 0;
  for (const Record* it = begin; it != end; ++it) {
    buckets.Add(*it);
    tuples += engine::PhysicalTuples(*it);
  }
  return tuples;
}

struct SparkBlock {
  std::vector<Record> records;
  int home_worker = 0;
  uint64_t tuples = 0;
};

struct MapOutput {
  int home_worker = 0;
  // Per reduce partition: combined partials (tree aggregate) or the flat
  // destination-major shuffle rows below.
  std::vector<engine::GroupedKeyMap<WindowKeyAgg>> combined;
  // Raw path: one flat buffer (single allocation, sequential writes);
  // partition r's records are rows[run_offsets[r] .. run_offsets[r+1]),
  // in arrival order — identical content and order to the per-partition
  // vectors this layout replaced.
  std::vector<Record> rows;
  std::vector<uint32_t> run_offsets;  // num_reduce + 1 when rows are in use

  bool has_rows() const { return !run_offsets.empty(); }
  const Record* RunBegin(int r) const {
    return rows.data() + run_offsets[static_cast<size_t>(r)];
  }
  const Record* RunEnd(int r) const {
    return rows.data() + run_offsets[static_cast<size_t>(r) + 1];
  }
  size_t RunSize(int r) const {
    return run_offsets[static_cast<size_t>(r) + 1] -
           run_offsets[static_cast<size_t>(r)];
  }
};

struct SparkJob {
  int64_t batch_index = 0;
  SimTime created = 0;
  std::vector<SparkBlock> blocks;
  std::vector<MapOutput> map_outputs;
  uint64_t tuples = 0;
  // -- Recovery accounting (populated only when recovery is enabled) ----
  /// Outputs held back until the batch commits (per reduce partition).
  std::vector<std::vector<engine::OutputRecord>> staged;
  /// CPU microseconds this job charged per worker — the recompute bill.
  std::vector<double> cpu_us;
  /// Sum of worker crash epochs at job start; a change means a worker
  /// died mid-batch and the batch must be recomputed.
  int64_t crash_epochs = 0;
  /// Deterministic batching only: min over receivers of the sealed
  /// event-time frontier at job creation. Every sealed record with a
  /// smaller event time is in this or an earlier job, so window
  /// boundaries at or below the frontier are complete (kNoWatermark: no
  /// sealed record yet). kFinalWatermark once all receivers drained and
  /// every block was sealed into a job.
  SimTime det_frontier = kNoWatermark;
};

struct PartitionState {
  std::deque<BucketPartial> history;  // one partial per job, newest at back
  engine::RunningAggregate running;    // inverse-reduce mode
  int64_t heap_bytes = 0;
  /// Deterministic batching: the event-time bucket partials and boundary
  /// cursor. Replaces `history` in det mode.
  std::optional<engine::BucketWindowState> det;
};

class SparkSut : public driver::Sut {
 public:
  explicit SparkSut(SparkConfig config) : config_(config) {}

  std::string name() const override { return "spark"; }

  Status Start(const driver::SutContext& ctx) override {
    const auto& w = config_.query.window;
    if (w.range % config_.batch_interval != 0 || w.slide % config_.batch_interval != 0) {
      return Status::InvalidArgument(
          "spark: window range and slide must be multiples of the batch interval");
    }
    range_batches_ = w.range / config_.batch_interval;
    slide_batches_ = w.slide / config_.batch_interval;

    ctx_ = ctx;
    cluster::Cluster& cluster = *ctx.cluster;
    const int workers = cluster.num_workers();
    overhead_ = cluster::InterpolateOverhead(config_.scaling_overhead, workers);
    receiver_overhead_ =
        cluster::InterpolateOverhead(config_.receiver_scaling_overhead, workers);
    num_receivers_ = static_cast<int>(ctx.queues.size());
    num_reduce_ = workers * config_.reduce_tasks_per_worker;
    partitioner_.emplace(num_reduce_);
    // Shuffle-side combining: aggregation shuffles only. Partials stay
    // pure per batch-interval bucket, so both classic and deterministic
    // reduces fold them exactly (engine/columnar.h).
    combine_ = config_.shuffle_combine &&
               config_.query.kind == engine::QueryKind::kAggregation;
    if (combine_ && config_.recovery_enabled) {
      return Status::InvalidArgument(
          "spark: shuffle_combine is incompatible with recovery_enabled");
    }
    partitions_.resize(static_cast<size_t>(num_reduce_));
    if (config_.deterministic_batching) {
      for (PartitionState& st : partitions_) {
        st.det.emplace(config_.query, config_.batch_interval);
      }
    }
    block_manager_bytes_.assign(static_cast<size_t>(workers), 0);
    current_blocks_.resize(static_cast<size_t>(num_receivers_));
    sealed_frontier_.assign(static_cast<size_t>(num_receivers_), kNoWatermark);
    receivers_done_ = 0;

    for (int r = 0; r < num_receivers_; ++r) {
      // Backpressure starts effectively uncapped: the first overrunning
      // batch triggers the controller (the paper's Fig. 11: "Initially,
      // Spark ingests more tuples than it can sustain").
      // Modest burst: a throttled receiver must not coast on banked
      // tokens (guava RateLimiter semantics).
      limiters_.push_back(std::make_unique<engine::RateLimiter>(
          *ctx.sim, 1e12, /*burst=*/5e4));
    }
    job_channel_ =
        std::make_unique<des::Channel<std::unique_ptr<SparkJob>>>(*ctx.sim, 1024);

    constexpr int kFetchersPerReceiver = 6;  // in-flight TCP segments
    fetchers_left_.assign(static_cast<size_t>(num_receivers_), kFetchersPerReceiver);
    for (int r = 0; r < num_receivers_; ++r) {
      fetch_bufs_.push_back(std::make_unique<des::Channel<Record>>(*ctx.sim, 32));
      receiver_cores_.push_back(std::make_unique<des::Resource>(*ctx.sim, 1));
    }
    // Data-plane batch size: the most records one fetcher pop or receiver
    // drain takes (1 = a batch of one).
    batch_ = static_cast<size_t>(std::max(1, ctx.batch));
    for (int r = 0; r < num_receivers_; ++r) {
      for (int f = 0; f < kFetchersPerReceiver; ++f) ctx.sim->Spawn(FetcherProcess(r));
      ctx.sim->Spawn(ReceiverProcess(r));
      ctx.sim->Spawn(BlockSealer(r));
    }
    recovery_ = config_.recovery_enabled;
    metrics_ = engine::EngineMetrics(name());
    obs::Registry& registry = obs::Registry::Default();
    obs_jobs_ = registry.GetCounter("engine.batch.jobs", {{"engine", name()}});
    if (recovery_) {
      obs_recomputed_ =
          registry.GetCounter("engine.batch.recomputed", {{"engine", name()}});
    }
    obs_shuffle_bytes_ =
        registry.GetCounter("engine.shuffle.bytes", {{"engine", name()}});
    obs_rate_limit_ =
        registry.GetGauge("engine.receiver.rate_limit", {{"engine", name()}});
    obs_sched_delay_ =
        registry.GetGauge("engine.scheduler.delay_s", {{"engine", name()}});
    scheduler_track_ =
        obs::Tracer::Default().Track(cluster.master().name(), "spark/scheduler");

    ctx.sim->Spawn(JobTrigger());
    ctx.sim->Spawn(JobRunner());
    return Status::OK();
  }

  void Stop() override { job_channel_->Close(); }

  void ExportSeries(std::map<std::string, driver::TimeSeries>* out) const override {
    (*out)["scheduler_delay_s"] = scheduler_delay_series_;
    (*out)["job_runtime_s"] = job_runtime_series_;
    (*out)["receiver_rate_limit"] = rate_limit_series_;
  }

 private:
  cluster::Node& WorkerOfReceiver(int r) {
    return ctx_.cluster->worker(r % ctx_.cluster->num_workers());
  }
  cluster::Node& WorkerOfReduce(int r) {
    return ctx_.cluster->worker(r % ctx_.cluster->num_workers());
  }

  double SpillFactor(const cluster::Node& worker) const {
    const size_t idx = static_cast<size_t>(worker.id()) - 1 -
                       static_cast<size_t>(ctx_.cluster->num_drivers());
    const double budget =
        config_.storage_fraction * static_cast<double>(config_.executor_heap_bytes);
    return static_cast<double>(block_manager_bytes_[idx]) > budget
               ? config_.spill_slowdown
               : 1.0;
  }
  void SetPartitionHeap(int partition, int64_t bytes) {
    PartitionState& st = partitions_[static_cast<size_t>(partition)];
    const size_t widx =
        static_cast<size_t>(partition) % static_cast<size_t>(ctx_.cluster->num_workers());
    block_manager_bytes_[widx] += bytes - st.heap_bytes;
    st.heap_bytes = bytes;
  }

  /// Network fetch pipeline: several in-flight TCP segments per receiver
  /// connection, so transfer latency overlaps receiver CPU. The rate
  /// limiter gates the pops: a throttled receiver leaves data in the
  /// driver queue (the externally observable backpressure signal).
  ///
  /// One rate-limiter settlement / PopBatch / coalesced ingest transfer per
  /// run of up to `batch_` records. The first record's tokens are acquired
  /// before the pop; the rest of the run settles right after, so the token
  /// stream the limiter sees is unchanged in total. Per-record ingest
  /// stamps come from the exact per-record link completion times.
  Task<> FetcherProcess(int r) {
    cluster::Node& my_worker = WorkerOfReceiver(r);
    cluster::Node& queue_node = ctx_.cluster->driver(r);
    driver::DriverQueue& queue = *ctx_.queues[static_cast<size_t>(r)];
    engine::RateLimiter& limiter = *limiters_[static_cast<size_t>(r)];
    des::Channel<Record>& buf = *fetch_bufs_[static_cast<size_t>(r)];

    // Tokens per record (the generator's batching weight) are learned from
    // the first record; the initial rate limit is uncapped anyway.
    double tokens_per_record = 0.0;
    engine::RecordBatch recs;
    IngestHop ingest;
    for (;;) {
      if (tokens_per_record > 0) co_await limiter.Acquire(tokens_per_record);
      if (!co_await queue.PopBatch(&recs, batch_)) break;
      const size_t k = recs.size();
      tokens_per_record = static_cast<double>(recs[0].weight);
      if (k > 1) {
        co_await limiter.Acquire(tokens_per_record * static_cast<double>(k - 1));
      }
      co_await ingest.Move(*ctx_.cluster, queue_node, my_worker, recs);
      for (const Record& rec : recs) {
        if (!co_await buf.Send(rec)) co_return;
      }
    }
    if (--fetchers_left_[static_cast<size_t>(r)] == 0) buf.Close();
  }

  /// Receiver: drains up to `batch_` fetched records per resume and charges
  /// the single-threaded receiver loop as one coalesced FIFO admission on
  /// the dedicated receiver core. Spark receivers run as long-running tasks
  /// that permanently occupy one executor core — they do not queue behind
  /// batch tasks. This serial cost caps per-receiver ingest (Spark
  /// deployments scale by adding receivers); contention with running batch
  /// tasks, sampled once per run, slows the pull while a job executes.
  Task<> ReceiverProcess(int r) {
    cluster::Node& my_worker = WorkerOfReceiver(r);
    des::Channel<Record>& buf = *fetch_bufs_[static_cast<size_t>(r)];
    des::Resource& my_core = *receiver_cores_[static_cast<size_t>(r)];
    std::vector<Record> recs;
    std::vector<SimTime> costs;
    for (;;) {
      if (!co_await buf.RecvMany(&recs, batch_)) break;
      const double busy_frac =
          static_cast<double>(my_worker.cpu().busy()) /
          static_cast<double>(my_worker.cpu().servers());
      costs.clear();
      int64_t alloc = 0;
      uint64_t tuples = 0;
      for (const Record& rec : recs) {
        costs.push_back(
            CostUs(config_.receiver_cost_us * receiver_overhead_ *
                   (1.0 + config_.receiver_contention * busy_frac) * rec.weight));
        alloc += config_.alloc_bytes_per_tuple * rec.weight;
        tuples += rec.weight;
      }
      co_await my_core.UseBatch(costs);
      my_worker.RecordAllocation(alloc);
      metrics_.records->Add(tuples);
      SparkBlock& block = current_blocks_[static_cast<size_t>(r)];
      block.home_worker = r % ctx_.cluster->num_workers();
      for (Record& rec : recs) block.records.push_back(std::move(rec));
      block.tuples += tuples;
    }
    ++receivers_done_;
  }

  Task<> BlockSealer(int r) {
    for (;;) {
      co_await des::Delay(*ctx_.sim, config_.block_interval);
      SparkBlock& block = current_blocks_[static_cast<size_t>(r)];
      if (!block.records.empty()) {
        if (config_.deterministic_batching) {
          // The receiver's sealed event-time frontier: with in-order
          // input, every future record of this receiver has event time >=
          // the max sealed so far.
          SimTime& frontier = sealed_frontier_[static_cast<size_t>(r)];
          for (const Record& rec : block.records) {
            frontier = std::max(frontier, rec.event_time);
          }
        }
        pending_blocks_.push_back(std::move(block));
        block = SparkBlock{};
      }
      if (receivers_done_ == num_receivers_) co_return;
    }
  }

  Task<> JobTrigger() {
    for (;;) {
      co_await des::Delay(*ctx_.sim, config_.batch_interval);
      auto job = std::make_unique<SparkJob>();
      job->batch_index = ++batch_index_;
      job->created = ctx_.sim->now();
      job->blocks = std::move(pending_blocks_);
      pending_blocks_.clear();
      for (const SparkBlock& b : job->blocks) job->tuples += b.tuples;
      if (config_.deterministic_batching) {
        // Frontier snapshot: this job carries every sealed block, so once
        // all receivers drained AND nothing is left unsealed, every record
        // of the run rides in this or an earlier job.
        bool drained = receivers_done_ == num_receivers_;
        for (const SparkBlock& b : current_blocks_) {
          if (!b.records.empty()) drained = false;
        }
        if (drained) {
          job->det_frontier = kFinalWatermark;
        } else {
          job->det_frontier = *std::min_element(sealed_frontier_.begin(),
                                                sealed_frontier_.end());
        }
      }
      // The channel owns queued jobs, so jobs stranded by a teardown
      // mid-run (crash/abort) are reclaimed with it.
      if (!co_await job_channel_->Send(std::move(job))) co_return;
    }
  }

  Task<> JobRunner() {
    for (;;) {
      auto job = co_await job_channel_->Recv();
      if (!job.has_value()) co_return;
      SparkJob* j = job->get();
      const SimTime delay = ctx_.sim->now() - j->created;
      scheduler_delay_series_.Add(ctx_.sim->now(), ToSeconds(delay));
      obs_sched_delay_->Set(ToSeconds(delay));
      const SimTime start = ctx_.sim->now();
      {
        obs::ScopedSpan span(obs::Tracer::Default(), scheduler_track_, "spark.job");
        span.Arg("batch", static_cast<double>(j->batch_index));
        span.Arg("tuples", static_cast<double>(j->tuples));
        co_await ExecuteJob(*j);
      }
      obs_jobs_->Add(1);
      const SimTime runtime = ctx_.sim->now() - start;
      job_runtime_series_.Add(ctx_.sim->now(), ToSeconds(runtime));
      UpdateRateController(j->tuples, runtime, delay);
    }
  }

  /// Sum of worker crash epochs: cheap crash detector for a running batch.
  int64_t CrashEpochSum() {
    int64_t sum = 0;
    for (int w = 0; w < ctx_.cluster->num_workers(); ++w) {
      sum += ctx_.cluster->worker(w).crash_epoch();
    }
    return sum;
  }

  Task<> RechargeTask(int w, double us, Latch& done) {
    co_await ctx_.cluster->worker(w).cpu().Use(CostUs(us));
    done.CountDown();
  }

  Task<> ExecuteJob(SparkJob& job) {
    des::Simulator& sim = *ctx_.sim;
    if (recovery_) {
      job.staged.assign(static_cast<size_t>(num_reduce_), {});
      job.cpu_us.assign(static_cast<size_t>(ctx_.cluster->num_workers()), 0.0);
      job.crash_epochs = CrashEpochSum();
    }
    const int n_map = static_cast<int>(job.blocks.size());
    // Serial task dispatch on the master (DAG scheduler).
    co_await ctx_.cluster->master().cpu().Use(
        CostUs(config_.task_dispatch_ms * 1000.0 * overhead_ *
               static_cast<double>(n_map + num_reduce_)));

    // -- Stage 1: map / combine / shuffle write (blocking stage) ------------
    job.map_outputs.resize(static_cast<size_t>(n_map));
    if (n_map > 0) {
      obs::ScopedSpan span(obs::Tracer::Default(), scheduler_track_, "stage.map");
      span.Arg("tasks", static_cast<double>(n_map));
      Latch stage1(sim, n_map);
      for (int i = 0; i < n_map; ++i) sim.Spawn(MapTask(job, i, stage1));
      co_await stage1.Wait();
    }

    // -- Shuffle: one aggregated transfer per (map worker, reduce worker) --
    const int workers = ctx_.cluster->num_workers();
    std::vector<int64_t> bytes_matrix(static_cast<size_t>(workers * workers), 0);
    for (const MapOutput& mo : job.map_outputs) {
      for (int r = 0; r < num_reduce_; ++r) {
        const int to = r % workers;
        int64_t bytes = 0;
        if (!mo.combined.empty()) {
          bytes = static_cast<int64_t>(mo.combined[static_cast<size_t>(r)].size()) *
                  kPartialWireBytes;
        } else if (mo.has_rows()) {
          for (const Record* rec = mo.RunBegin(r); rec != mo.RunEnd(r); ++rec) {
            bytes += engine::WireBytes(*rec);
          }
        }
        bytes_matrix[static_cast<size_t>(mo.home_worker * workers + to)] += bytes;
      }
    }
    int transfers = 0;
    for (int f = 0; f < workers; ++f) {
      for (int t = 0; t < workers; ++t) {
        if (f != t && bytes_matrix[static_cast<size_t>(f * workers + t)] > 0) ++transfers;
      }
    }
    if (transfers > 0) {
      obs::ScopedSpan span(obs::Tracer::Default(), scheduler_track_, "shuffle");
      span.Arg("transfers", static_cast<double>(transfers));
      int64_t total_bytes = 0;
      for (const int64_t b : bytes_matrix) total_bytes += b;
      span.Arg("bytes", static_cast<double>(total_bytes));
      obs_shuffle_bytes_->Add(static_cast<uint64_t>(total_bytes));
      Latch shuffle(sim, transfers);
      for (int f = 0; f < workers; ++f) {
        for (int t = 0; t < workers; ++t) {
          const int64_t bytes = bytes_matrix[static_cast<size_t>(f * workers + t)];
          if (f == t || bytes == 0) continue;
          sim.Spawn(ShuffleTransfer(f, t, bytes, shuffle));
        }
      }
      co_await shuffle.Wait();
    }

    // -- Stage 2: reduce + window + output (blocking stage) -----------------
    {
      obs::ScopedSpan span(obs::Tracer::Default(), scheduler_track_, "stage.reduce");
      span.Arg("tasks", static_cast<double>(num_reduce_));
      Latch stage2(sim, num_reduce_);
      for (int r = 0; r < num_reduce_; ++r) sim.Spawn(ReduceTask(job, r, stage2));
      co_await stage2.Wait();
    }

    if (!recovery_) co_return;
    // A worker died mid-batch: Spark re-runs the lost tasks from the
    // WAL'd receiver blocks. The deterministic recompute rebuilds
    // identical state, so only the CPU bill is paid again — on the
    // restarted workers, delaying this batch (and the jobs queued behind
    // it: the scheduler-delay spike the PID controller reacts to).
    while (CrashEpochSum() != job.crash_epochs) {
      job.crash_epochs = CrashEpochSum();
      ++batches_recomputed_;
      obs_recomputed_->Add(1);
      int pending = 0;
      for (const double us : job.cpu_us) {
        if (us > 0) ++pending;
      }
      if (pending > 0) {
        obs::ScopedSpan span(obs::Tracer::Default(), scheduler_track_,
                             "stage.recompute");
        span.Arg("batch", static_cast<double>(job.batch_index));
        Latch redo(sim, pending);
        for (int w = 0; w < ctx_.cluster->num_workers(); ++w) {
          const double us = job.cpu_us[static_cast<size_t>(w)];
          if (us > 0) sim.Spawn(RechargeTask(w, us, redo));
        }
        co_await redo.Wait();
      }
    }
    // Output commit: the batch's results become visible atomically, and
    // exactly once, only after every (re)computation finished.
    for (int r = 0; r < num_reduce_; ++r) {
      auto& outs = job.staged[static_cast<size_t>(r)];
      if (outs.empty()) continue;
      co_await SinkHop(ctx_, WorkerOfReduce(r), outs, config_.emit_cost_us);
      for (const auto& out : outs) ctx_.sink->Emit(out);
    }
  }

  Task<> MapTask(SparkJob& job, int i, Latch& done) {
    SparkBlock& block = job.blocks[static_cast<size_t>(i)];
    MapOutput& out = job.map_outputs[static_cast<size_t>(i)];
    out.home_worker = block.home_worker;
    cluster::Node& w = ctx_.cluster->worker(block.home_worker);
    const double slow = SpillFactor(w);
    const double map_cost = config_.query.kind == engine::QueryKind::kJoin
                                ? config_.join_map_cost_us
                                : config_.map_cost_us;
    const double cost_us =
        config_.task_overhead_ms * 1000.0 +
        map_cost * overhead_ * slow * static_cast<double>(block.tuples);
    co_await w.cpu().Use(CostUs(cost_us));
    if (recovery_) job.cpu_us[static_cast<size_t>(block.home_worker)] += cost_us;
    w.RecordAllocation(config_.alloc_bytes_per_tuple *
                       static_cast<int64_t>(block.tuples));
    for (const Record& rec : block.records) {
      obs::LineageTracker::Default().StampOperator(rec.lineage, ctx_.sim->now());
    }

    // Deterministic batching needs raw records on the reduce side (the
    // map-side combine would merge event-time buckets together). The
    // shuffle-fabric combiner supersedes it: its partials stay bucket-pure,
    // so they survive the deterministic reduce's event-time re-bucketing.
    const bool map_combine = config_.tree_aggregate &&
                             config_.query.kind == engine::QueryKind::kAggregation &&
                             !config_.deterministic_batching && !combine_;
    if (map_combine) {
      out.combined.resize(static_cast<size_t>(num_reduce_));
      for (const Record& rec : block.records) {
        bool inserted;
        out.combined[static_cast<size_t>((*partitioner_)(rec.key))]
            .FindOrInsert(rec.key, &inserted)
            .Merge(rec);
      }
    } else {
      // Columnar shuffle write: radix-partition the block in one pass and
      // emit destination-major. Per destination the contents and relative
      // order match the per-record PartitionForKey loop exactly (stable
      // scatter), so downstream behaviour is unchanged.
      engine::ColumnarBatch cols;
      engine::PartitionPlan plan;
      const size_t n = block.records.size();
      cols.LoadKeys(block.records.data(), n);
      engine::RadixPartition(cols.keys.data(), n, *partitioner_, &plan);
      if (combine_) {
        // Pre-aggregate each destination run into per-(key, bucket)
        // partials; a partial crosses the shuffle as one physical tuple.
        // Bucket width: the deterministic reduce re-buckets by
        // batch_interval, so partials must not straddle those boundaries;
        // the classic reduce folds whole partitions per job, where any
        // bucketing is exact (slide matches the other engines).
        engine::ShuffleCombiner combiner(config_.deterministic_batching
                                             ? config_.batch_interval
                                             : config_.query.window.slide);
        out.run_offsets.assign(static_cast<size_t>(num_reduce_) + 1, 0);
        for (int p = 0; p < num_reduce_; ++p) {
          if (plan.RunSize(p) > 0) {
            combiner.Reset();
            // Fold the whole destination run through the batched key
            // probe; index order matches the per-record loop.
            combiner.AddPermuted(block.records.data(), plan.Begin(p),
                                 plan.RunSize(p));
            combiner.Emit(&out.rows);
          }
          out.run_offsets[static_cast<size_t>(p) + 1] =
              static_cast<uint32_t>(out.rows.size());
        }
      } else {
        engine::GatherRows(block.records.data(), plan, &out.rows);
        out.run_offsets.assign(plan.offsets.begin(), plan.offsets.end());
      }
    }
    block.records.clear();
    done.CountDown();
  }

  /// Under recovery, books CPU that reduce partition r charged to the
  /// job's recompute bill.
  void Bill(SparkJob& job, int r, double us) {
    if (!recovery_) return;
    job.cpu_us[static_cast<size_t>(r) %
               static_cast<size_t>(ctx_.cluster->num_workers())] += us;
  }

  Task<> ShuffleTransfer(int from, int to, int64_t bytes, Latch& done) {
    co_await ctx_.cluster->Send(ctx_.cluster->worker(from), ctx_.cluster->worker(to),
                                bytes);
    done.CountDown();
  }

  Task<> ReduceTask(SparkJob& job, int r, Latch& done) {
    cluster::Node& w = WorkerOfReduce(r);
    PartitionState& st = partitions_[static_cast<size_t>(r)];
    const double slow = SpillFactor(w);

    if (config_.deterministic_batching) {
      co_await ReduceTaskDet(job, r, w, st, slow);
      done.CountDown();
      co_return;
    }

    // Merge this batch's inputs into a new partial.
    BucketPartial partial;
    uint64_t merged_entries = 0;
    for (const MapOutput& mo : job.map_outputs) {
      if (!mo.combined.empty()) {
        mo.combined[static_cast<size_t>(r)].ForEach(
            [&](uint64_t key, const WindowKeyAgg& agg) { partial.Merge(key, agg); });
        merged_entries += mo.combined[static_cast<size_t>(r)].size();
      } else if (mo.has_rows()) {
        for (const Record* it = mo.RunBegin(r); it != mo.RunEnd(r); ++it) {
          partial.Add(*it, config_.query.kind);
        }
      }
    }
    const bool entry_merge = config_.tree_aggregate &&
                             config_.query.kind == engine::QueryKind::kAggregation &&
                             !combine_;
    const double merge_cost =
        entry_merge
            ? config_.reduce_entry_cost_us * static_cast<double>(merged_entries)
            : config_.reduce_tuple_cost_us * static_cast<double>(partial.tuples);
    const double merge_cost_us =
        config_.task_overhead_ms * 1000.0 + merge_cost * overhead_ * slow;
    co_await w.cpu().Use(CostUs(merge_cost_us));
    Bill(job, r, merge_cost_us);

    // Inverse-reduce: fold into the running window aggregate.
    if (config_.inverse_reduce && config_.query.kind == engine::QueryKind::kAggregation) {
      st.running.Fold(partial);
    }
    st.history.push_back(std::move(partial));

    // Evict batches that fell out of the window.
    while (static_cast<int64_t>(st.history.size()) > range_batches_) {
      BucketPartial& old = st.history.front();
      if (config_.inverse_reduce &&
          config_.query.kind == engine::QueryKind::kAggregation) {
        const double evict_cost_us = config_.reduce_entry_cost_us * overhead_ *
                                     static_cast<double>(old.aggs.size());
        co_await w.cpu().Use(CostUs(evict_cost_us));
        Bill(job, r, evict_cost_us);
        st.running.Evict(old);
      }
      st.history.pop_front();
    }

    // Block-manager accounting for this partition's retained state.
    int64_t heap = 0;
    for (const BucketPartial& p : st.history) {
      heap += PartialHeapBytes(p);
      if (config_.cache_window && !config_.inverse_reduce) {
        // Caching windowed results retains the raw window tuples as
        // deserialized java objects.
        heap += static_cast<int64_t>(p.tuples) * kCachedRddBytesPerTuple;
      }
    }
    heap += static_cast<int64_t>(st.running.live_keys()) * kPartialHeapBytes;
    SetPartitionHeap(r, heap);

    // Window evaluation at slide boundaries. Spark Streaming computes
    // windows from the batches available so far, so start-up windows are
    // partial rather than skipped.
    if (job.batch_index % slide_batches_ == 0) {
      metrics_.windows_fired->Add(1);
      co_await EvaluateWindow(w, st, slow, job, r);
    }
    done.CountDown();
  }

  /// Deterministic-batching reduce: fold this job's shuffled records into
  /// the partition's event-time buckets (engine::BucketWindowState), then
  /// fire every window boundary the job's sealed frontier has passed,
  /// charging and emitting (or staging) boundary by boundary. Bucket
  /// membership is a pure function of the record's event time, and a
  /// boundary fires only once all its buckets are sealed — so the emitted
  /// multiset of (key, window_end, value, weight) does not depend on
  /// arrival timing. The realtime backend's Spark task runs the same
  /// bucket state (DESIGN.md §6).
  Task<> ReduceTaskDet(SparkJob& job, int r, cluster::Node& w, PartitionState& st,
                       double slow) {
    engine::BucketWindowState& buckets = *st.det;
    uint64_t batch_tuples = 0;
    uint64_t tree_entries = 0;
    if (combine_) {
      // Tree-combine the per-map partial groups for this partition before
      // folding into buckets: each level pairwise-merges groups, charging
      // entry cost for the records folded (tree_entries). Partials stay
      // batch_interval-bucket-pure at every level, so the event-time
      // re-bucketing below is unaffected (engine/columnar.h).
      std::vector<engine::RecordBatch> groups;
      for (const MapOutput& mo : job.map_outputs) {
        if (!mo.has_rows() || mo.RunSize(r) == 0) continue;
        engine::RecordBatch g;
        g.Reserve(mo.RunSize(r));
        for (const Record* it = mo.RunBegin(r); it != mo.RunEnd(r); ++it) {
          g.PushBack(*it);
        }
        groups.push_back(std::move(g));
      }
      engine::ShuffleCombiner combiner(config_.batch_interval);
      tree_entries = engine::TreeCombine(&groups, &combiner);
      if (!groups.empty()) {
        const engine::RecordBatch& combined = groups.front();
        batch_tuples += FoldRun(buckets, combined.begin(), combined.end());
      }
    } else {
      for (const MapOutput& mo : job.map_outputs) {
        if (!mo.has_rows()) continue;
        batch_tuples += FoldRun(buckets, mo.RunBegin(r), mo.RunEnd(r));
      }
    }
    const double merge_cost_us =
        config_.task_overhead_ms * 1000.0 +
        (config_.reduce_tuple_cost_us * static_cast<double>(batch_tuples) +
         config_.reduce_entry_cost_us * static_cast<double>(tree_entries)) *
            overhead_ * slow;
    co_await w.cpu().Use(CostUs(merge_cost_us));
    Bill(job, r, merge_cost_us);

    int64_t heap = 0;
    for (const auto& [index, p] : buckets.buckets()) heap += PartialHeapBytes(p);
    SetPartitionHeap(r, heap);

    // Boundary cost: entries merged (aggregation) or side tuples scanned
    // (join), as in EvaluateWindow below.
    std::vector<engine::OutputRecord> outs;
    const bool aggregation = config_.query.kind == engine::QueryKind::kAggregation;
    for (;;) {
      const std::optional<uint64_t> work = buckets.FireNext(job.det_frontier, &outs);
      if (!work) break;
      metrics_.windows_fired->Add(1);
      const double units = static_cast<double>(*work);
      const double eval_cost_us =
          aggregation ? config_.reduce_entry_cost_us * units * overhead_ * slow
                      : config_.join_tuple_cost_us * overhead_ * slow * units;
      co_await CommitWindow(w, job, r, eval_cost_us, outs);
      outs.clear();
    }
  }

  /// Classic (arrival-batched) window evaluation over the partition's job
  /// partials: the running aggregate under inverse reduce, otherwise the
  /// shared bucket evaluator over the whole history, charged as a merge of
  /// cached partials (cache_window) or a recompute of the window's tuples.
  Task<> EvaluateWindow(cluster::Node& w, PartitionState& st, double slow,
                        SparkJob& job, int r) {
    // Output identity: the window of this evaluation closes at the batch
    // boundary (stable across recomputation of the same batch).
    const SimTime window_end = job.batch_index * config_.batch_interval;
    const bool aggregation = config_.query.kind == engine::QueryKind::kAggregation;
    std::vector<engine::OutputRecord> outs;
    double eval_cost_us = 0;
    if (aggregation && config_.inverse_reduce) {
      // Running aggregate is already current; only emission work remains.
      eval_cost_us = config_.reduce_entry_cost_us *
                     static_cast<double>(st.running.live_keys()) * overhead_ * slow;
      st.running.Emit(window_end, &outs);
    } else {
      std::vector<const BucketPartial*> window;
      uint64_t window_tuples = 0;
      for (const BucketPartial& p : st.history) {
        window.push_back(&p);
        window_tuples += p.tuples;
      }
      const uint64_t work = engine::BucketWindowState::Evaluate(
          config_.query.kind, window, window_end, &outs);
      if (!aggregation) {
        eval_cost_us = config_.join_tuple_cost_us * overhead_ * slow *
                       static_cast<double>(work);
      } else if (config_.cache_window) {
        // Combine cached per-batch partials.
        eval_cost_us = config_.reduce_entry_cost_us * static_cast<double>(work) *
                       overhead_ * slow;
      } else {
        // No cache: re-aggregate the window's raw tuples on every slide
        // ("we experienced the performance decreased due to the repeated
        // computation").
        eval_cost_us = config_.reduce_tuple_cost_us *
                       static_cast<double>(window_tuples) * overhead_ * slow;
      }
    }
    co_await CommitWindow(w, job, r, eval_cost_us, outs);
  }

  /// Charges one window evaluation to the reduce worker, then emits its
  /// outputs — or, under recovery, books the charge for a recompute and
  /// stages the outputs until the batch commits.
  Task<> CommitWindow(cluster::Node& w, SparkJob& job, int r, double eval_cost_us,
                      const std::vector<engine::OutputRecord>& outs) {
    co_await w.cpu().Use(CostUs(eval_cost_us));
    Bill(job, r, eval_cost_us);
    if (recovery_) {
      auto& staged = job.staged[static_cast<size_t>(r)];
      staged.insert(staged.end(), outs.begin(), outs.end());
    } else if (!outs.empty()) {
      co_await SinkHop(ctx_, w, outs, config_.emit_cost_us);
      for (const auto& out : outs) ctx_.sink->Emit(out);
    }
  }

  void UpdateRateController(uint64_t tuples, SimTime runtime, SimTime sched_delay) {
    if (tuples == 0) return;
    const double processing_rate =
        static_cast<double>(tuples) / std::max(ToSeconds(runtime), 1e-3);
    if (runtime > config_.batch_interval || sched_delay > config_.batch_interval) {
      // Spark's PIDRateEstimator folds the scheduling delay into its error
      // term: a growing job queue must throttle ingest below the observed
      // processing rate until the queue drains, or queued mini-batch jobs
      // "increase over time and the system will not be able to sustain
      // the throughput" (paper, Experiment 2 discussion).
      const double batch_s = ToSeconds(config_.batch_interval);
      const double queue_penalty = batch_s / (batch_s + ToSeconds(sched_delay));
      rate_limit_ = processing_rate * config_.backpressure_headroom * queue_penalty;
    } else if (rate_limit_ < 1e11) {
      rate_limit_ = std::min(rate_limit_ * config_.rate_ramp_up, 1e12);
    }
    const double per_receiver =
        std::max(1000.0, rate_limit_ / static_cast<double>(num_receivers_));
    for (auto& limiter : limiters_) limiter->SetRate(per_receiver);
    rate_limit_series_.Add(ctx_.sim->now(), rate_limit_);
    obs_rate_limit_->Set(rate_limit_);
  }

  SparkConfig config_;
  driver::SutContext ctx_;
  double overhead_ = 1.0;
  double receiver_overhead_ = 1.0;
  int num_receivers_ = 0;
  int num_reduce_ = 0;
  int64_t range_batches_ = 0;
  int64_t slide_batches_ = 0;
  int64_t batch_index_ = 0;
  int receivers_done_ = 0;
  size_t batch_ = 1;  // most records per fetcher pop / receiver drain
  double rate_limit_ = 1e12;

  std::vector<std::unique_ptr<engine::RateLimiter>> limiters_;
  std::vector<std::unique_ptr<des::Channel<Record>>> fetch_bufs_;
  std::vector<std::unique_ptr<des::Resource>> receiver_cores_;
  std::vector<int> fetchers_left_;
  std::vector<SparkBlock> current_blocks_;
  /// Det batching: per-receiver max event time across sealed blocks.
  std::vector<SimTime> sealed_frontier_;
  std::vector<SparkBlock> pending_blocks_;
  std::unique_ptr<des::Channel<std::unique_ptr<SparkJob>>> job_channel_;
  std::vector<PartitionState> partitions_;
  std::vector<int64_t> block_manager_bytes_;

  driver::TimeSeries scheduler_delay_series_;
  driver::TimeSeries job_runtime_series_;
  driver::TimeSeries rate_limit_series_;

  bool recovery_ = false;
  uint64_t batches_recomputed_ = 0;
  /// Shuffle fabric: map-side pre-aggregation into bucket-pure partials.
  bool combine_ = false;
  std::optional<engine::Partitioner> partitioner_;

  engine::EngineMetrics metrics_;
  obs::Counter* obs_jobs_ = nullptr;
  obs::Counter* obs_recomputed_ = nullptr;
  obs::Counter* obs_shuffle_bytes_ = nullptr;
  obs::Gauge* obs_rate_limit_ = nullptr;
  obs::Gauge* obs_sched_delay_ = nullptr;
  obs::TrackId scheduler_track_ = 0;
};

}  // namespace

std::unique_ptr<driver::Sut> MakeSpark(SparkConfig config) {
  return std::make_unique<SparkSut>(config);
}

}  // namespace sdps::engines
