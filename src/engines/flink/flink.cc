#include "engines/flink/flink.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/strings.h"
#include "des/channel.h"
#include "des/task.h"
#include "engine/batch.h"
#include "engine/columnar.h"
#include "engine/partition.h"
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

using des::Channel;
using des::Task;
using engine::kFinalWatermark;
using engine::Message;
using engine::Record;

/// Checkpoint barriers travel in-band like watermarks, tagged by origin.
constexpr int kBarrierOrigin = -1;

class FlinkSut : public driver::Sut {
 public:
  explicit FlinkSut(FlinkConfig config) : config_(config) {}

  std::string name() const override { return "flink"; }

  Status Start(const driver::SutContext& ctx) override {
    ctx_ = ctx;
    cluster::Cluster& cluster = *ctx.cluster;
    const int workers = cluster.num_workers();
    num_tasks_ = workers * config_.tasks_per_worker;
    num_queues_ = static_cast<int>(ctx.queues.size());
    SDPS_CHECK_GT(num_queues_, 0);
    partitioner_.emplace(num_tasks_);
    // Paper setup: 16 parallel source instances per node (one per slot).
    sources_per_worker_ = cluster.worker(0).config().cpu_slots;
    num_sources_ = workers * sources_per_worker_;

    // Join tasks evaluate in bulk at the trigger; deeper buffers absorb
    // the evaluation burst (Flink's network buffer pool is shared).
    const size_t channel_cap = config_.query.kind == engine::QueryKind::kJoin
                                   ? config_.channel_capacity * 4
                                   : config_.channel_capacity;
    for (int t = 0; t < num_tasks_; ++t) {
      channels_.push_back(std::make_unique<Channel<Message>>(*ctx.sim, channel_cap));
    }
    // Per-task share of worker heap before the spillable backend engages.
    spill_threshold_bytes_ =
        cluster.worker(0).config().memory_bytes / (2 * config_.tasks_per_worker);

    // Watermarks are generated per ingest connection (queue): the sources
    // of one queue share one event-time clock.
    clock_ = engine::ConnectionClock(num_queues_, num_sources_,
                                     [this](int s) { return QueueOfSource(s); });
    // With recovery on, a restore swaps the last checkpoint's slots in
    // while the tasks keep running.
    const bool agg = config_.query.kind == engine::QueryKind::kAggregation;
    const engine::WindowAssigner assigner(config_.query.window);
    slots_.assign(static_cast<size_t>(num_tasks_),
                  {agg ? engine::WindowState(engine::AggWindowState(assigner))
                       : engine::WindowState(engine::JoinWindowState(assigner)),
                   engine::WatermarkTracker(num_queues_)});

    metrics_ = engine::EngineMetrics(name());
    obs_checkpoints_ = obs::Registry::Default().GetCounter(
        "engine.checkpoint.snapshots", {{"engine", name()}});

    if (config_.recovery_enabled && config_.checkpoint_interval <= 0) {
      return Status::InvalidArgument(
          "flink: recovery_enabled requires checkpoint_interval > 0");
    }
    recovery_ = config_.recovery_enabled;
    if (recovery_) {
      for (auto* q : ctx.queues) q->set_retain(true);
      task_commit_id_.assign(static_cast<size_t>(num_tasks_), 0);
      task_done_.assign(static_cast<size_t>(num_tasks_), 0);
      // Checkpoint 0: the empty initial state. A crash before the first
      // completed checkpoint restores this and replays everything.
      last_completed_ = std::make_unique<Checkpoint>();
      last_completed_->cursors.assign(static_cast<size_t>(num_queues_), 0);
      last_completed_->clock = clock_;
      for (int t = 0; t < num_tasks_; ++t) {
        last_completed_->slots.emplace(t, slots_[static_cast<size_t>(t)]);
      }
      obs_restores_ = obs::Registry::Default().GetCounter(
          "engine.recovery.restores", {{"engine", name()}});
      for (int w = 0; w < workers; ++w) {
        cluster.worker(w).OnRestart(
            [this](cluster::Node&) { RestoreFromCheckpoint(); });
      }
    }

    // Data-plane batch size: the most records one source pop or task
    // drain takes (1 = a batch of one).
    batch_ = static_cast<size_t>(std::max(1, ctx.batch));
    // Shuffle-side combining applies to batched aggregation shuffles only
    // (a batch of one has nothing to combine); recovery's per-raw-record
    // in-flight accounting precludes it.
    combine_ = config_.shuffle_combine && batch_ > 1 &&
               config_.query.kind == engine::QueryKind::kAggregation;
    if (combine_ && recovery_) {
      return Status::InvalidArgument(
          "flink: shuffle_combine is incompatible with recovery_enabled");
    }
    for (int s = 0; s < num_sources_; ++s) ctx.sim->Spawn(SourceProcess(s));
    for (int q = 0; q < num_queues_; ++q) {
      ctx.sim->Spawn(WatermarkProcess(q));
    }
    if (config_.checkpoint_interval > 0) {
      ctx.sim->Spawn(CheckpointCoordinator());
    }
    for (int t = 0; t < num_tasks_; ++t) {
      ctx.sim->Spawn(agg ? WindowTask<engine::AggWindowState>(t)
                         : WindowTask<engine::JoinWindowState>(t));
    }
    return Status::OK();
  }

  void Stop() override {
    for (auto& ch : channels_) ch->Close();
  }

  void ExportSeries(std::map<std::string, driver::TimeSeries>* out) const override {
    driver::TimeSeries late;
    late.Add(0, static_cast<double>(late_dropped_tuples_));
    (*out)["late_dropped_tuples"] = late;
    driver::TimeSeries cp;
    cp.Add(0, static_cast<double>(checkpoints_started_));
    (*out)["checkpoints"] = cp;
    driver::TimeSeries cp_bytes;
    cp_bytes.Add(0, static_cast<double>(snapshot_bytes_total_));
    (*out)["snapshot_bytes"] = cp_bytes;
    if (recovery_) {
      driver::TimeSeries restores;
      restores.Add(0, static_cast<double>(restores_));
      (*out)["restores"] = restores;
    }
  }

 private:
  cluster::Node& WorkerOfSource(int s) {
    return ctx_.cluster->worker(s / sources_per_worker_);
  }
  cluster::Node& WorkerOfTask(int t) {
    return ctx_.cluster->worker(t % ctx_.cluster->num_workers());
  }
  /// Sources on worker w pull from queue (w mod queues): queue i lives on
  /// driver node i, and the paper pairs generators with SUT ingest 1:1.
  int QueueOfSource(int s) const {
    return (s / sources_per_worker_) % num_queues_;
  }

  /// Source: one PopBatch / ingest SendBatch / cpu UseBatch per run of up
  /// to `batch_` records (a run of one at --batch=1). Per-record side
  /// effects (ingest stamps at the per-record link completion times, epoch
  /// bookkeeping, partitioned channel sends) keep their order; only the
  /// event scheduling is coalesced.
  Task<> SourceProcess(int s) {
    cluster::Node& my_worker = WorkerOfSource(s);
    const int queue_idx = QueueOfSource(s);
    cluster::Node& queue_node = ctx_.cluster->driver(queue_idx);
    driver::DriverQueue& queue = *ctx_.queues[static_cast<size_t>(queue_idx)];

    engine::RecordBatch recs;
    IngestHop ingest;
    std::vector<SimTime> costs;
    cluster::TransferGroups remote;  // wire bytes of remote records, per worker
    // Columnar shuffle state (see engine/columnar.h): the key lane feeds
    // one radix pass per run instead of a per-record divide, and the
    // optional combiner folds the run into per-(key, slide-bucket)
    // partials before anything crosses a link.
    engine::ColumnarBatch cols;
    engine::PartitionPlan plan;
    engine::RecordBatch combined;
    std::optional<engine::ShuffleCombiner> combiner;
    if (combine_) combiner.emplace(config_.query.window.slide);

    for (;;) {
      if (!co_await queue.PopBatch(&recs, batch_)) break;
      const size_t k = recs.size();
      // Raised before the first suspension and held at the run minimum
      // until the last record lands in its channel: the shuffle sends in
      // destination-major (not event-time) order, so only the whole-run
      // floor is a safe watermark bound.
      clock_.Hold(s, recs[0].event_time);
      // Pop-time restore epoch: if a crash hits while these records are in
      // flight, the receiving task drops the (now stale) messages and the
      // queue replays the records instead.
      const int64_t rec_epoch = epoch_;
      if (recovery_) in_flight_ += static_cast<int>(k);
      co_await ingest.Move(*ctx_.cluster, queue_node, my_worker, recs);
      costs.clear();
      int64_t alloc = 0;
      for (const Record& rec : recs) {
        costs.push_back(CostUs(config_.source_cost_us * rec.weight));
        alloc += config_.alloc_bytes_per_tuple * rec.weight;
      }
      co_await my_worker.cpu().UseBatch(costs);
      my_worker.RecordAllocation(alloc);

      // Combine (aggregation only), then radix-partition the run into
      // destination-major order in one pass.
      const engine::RecordBatch* shuffle = &recs;
      if (combine_) {
        combined.Clear();
        combiner->Combine(recs.begin(), k, &combined);
        combined.Seal();
        shuffle = &combined;
      }
      const size_t n = shuffle->size();
      const engine::RecordBatch& run = *shuffle;
      cols.LoadKeys(run.begin(), n);
      engine::RadixPartition(cols.keys.data(), n, *partitioner_, &plan);

      // Coalesce serde + transfer of the remote records, per target worker.
      costs.clear();
      remote.Clear();
      for (const int t : plan.active) {
        cluster::Node& target = WorkerOfTask(t);
        if (target.id() == my_worker.id()) continue;
        std::vector<int64_t>& group = remote.To(target);
        for (const uint32_t* it = plan.Begin(t); it != plan.End(t); ++it) {
          const Record& rec = run[*it];
          costs.push_back(
              CostUs(config_.remote_serde_cost_us * engine::PhysicalTuples(rec)));
          group.push_back(engine::WireBytes(rec));
        }
      }
      if (!costs.empty()) {
        co_await my_worker.cpu().UseBatch(costs);
        for (const cluster::TransferGroups::Group& g : remote) {
          co_await ctx_.cluster->SendBatch(my_worker, *g.node, g.bytes.data(),
                                           g.bytes.size(), nullptr);
        }
      }
      // Destination-major channel sends. in_flight_ counts raw records,
      // and combining is disallowed under recovery, so n == k whenever
      // recovery_ is set.
      size_t sends_left = n;
      for (const int t : plan.active) {
        Channel<Message>& ch = *channels_[static_cast<size_t>(t)];
        for (const uint32_t* it = plan.Begin(t); it != plan.End(t); ++it) {
          const Record& rec = run[*it];
          // A stale record must not advance the (restored) event-time
          // clock: its replayed copy re-advances it on the re-pop.
          if (!recovery_ || rec_epoch == epoch_) {
            clock_.Advance(queue_idx, rec.event_time);
          }
          Message msg = Message::MakeRecord(rec);
          msg.epoch = rec_epoch;
          const bool sent = co_await ch.Send(msg);
          --sends_left;
          if (recovery_) --in_flight_;
          if (!sent) {
            // Topology shut down mid-run: release the never-sent remainder.
            clock_.Release(s);
            if (recovery_) in_flight_ -= static_cast<int>(sends_left);
            co_return;
          }
        }
      }
      clock_.Release(s);
    }
    clock_.Finish(s);
  }

  /// Periodically broadcasts the connection's event-time clock to every
  /// window task; emits a final watermark (flushing all open windows) once
  /// the connection's sources have drained the queue.
  Task<> WatermarkProcess(int q) {
    for (;;) {
      co_await des::Delay(*ctx_.sim, config_.watermark_interval);
      const std::optional<SimTime> wm = clock_.Next(q, config_.allowed_lateness);
      if (!wm) continue;
      co_await Broadcast(Message::MakeWatermark(q, *wm));
      if (*wm == kFinalWatermark) co_return;
    }
  }

  Task<> Broadcast(Message msg) {
    msg.epoch = epoch_;
    for (auto& ch : channels_) {
      if (!co_await ch->Send(msg)) co_return;
    }
  }

  /// Injects checkpoint barriers in-band (simplified aligned-barrier
  /// model: the per-input alignment wait is folded into a fixed stall and
  /// a state-size-proportional synchronous snapshot in each task).
  ///
  /// With recovery on, each checkpoint is a consistent cut over the driver
  /// queues: ingest is paused, in-flight records drain into their
  /// channels, per-queue pop cursors are captured, and only then does the
  /// barrier go out — so every record popped before the cursor is ahead of
  /// the barrier in its channel, and every record popped after is behind
  /// it. On completion the cursors are acked to the queues.
  Task<> CheckpointCoordinator() {
    for (;;) {
      co_await des::Delay(*ctx_.sim, config_.checkpoint_interval);
      ++checkpoints_started_;
      if (!recovery_) {
        co_await Broadcast(Message::MakeWatermark(kBarrierOrigin, 0));
        continue;
      }
      for (auto* q : ctx_.queues) q->set_paused(true);
      // Always wait at least one poll: a pop handed off at this very
      // timestamp increments in_flight_ only when its +0 resume runs.
      do {
        co_await des::Delay(*ctx_.sim, config_.quiesce_poll);
      } while (in_flight_ > 0);
      const uint64_t id = ++next_checkpoint_id_;
      auto cp = std::make_unique<Checkpoint>();
      cp->id = id;
      cp->remaining = num_tasks_;
      for (auto* q : ctx_.queues) cp->cursors.push_back(q->popped_records());
      cp->clock = clock_;
      pending_ = std::move(cp);
      // The pause holds through the whole broadcast: no record can be
      // popped and overtake a barrier still being injected.
      co_await Broadcast(
          Message::MakeWatermark(kBarrierOrigin, static_cast<SimTime>(id)));
      for (auto* q : ctx_.queues) q->set_paused(false);
    }
  }

  /// Synchronous part of a task's checkpoint: alignment stall + snapshot.
  Task<> TakeSnapshot(cluster::Node& worker, obs::TrackId track,
                      int64_t state_bytes) {
    obs::ScopedSpan span(obs::Tracer::Default(), track, "checkpoint.snapshot");
    const double kb = static_cast<double>(state_bytes) / 1024.0;
    span.Arg("state_kb", kb);
    co_await worker.cpu().Use(
        config_.alignment_stall + CostUs(config_.snapshot_cost_us_per_kb * kb));
    snapshot_bytes_total_ += state_bytes;
    obs_checkpoints_->Add(1);
  }

  /// Spill slowdown of a window update at the state size the engine reads.
  template <typename State>
  double SpillFactor(const State& state) const {
    return state.state_bytes() > spill_threshold_bytes_ ? config_.spill_slowdown : 1.0;
  }
  /// Folds one record into the aggregation and returns its CPU cost; the
  /// spill check reads the state size right after the record's own fold.
  SimTime Fold(engine::AggWindowState& state, const Record& rec,
               engine::AddResult* added) const {
    *added = state.Add(rec);
    return CostUs(config_.agg_update_cost_us * engine::PhysicalTuples(rec) *
                  added->window_updates * SpillFactor(state));
  }
  /// Buffers one record for the join and returns its CPU cost; the spill
  /// check reads the state size before the record is buffered.
  SimTime Fold(engine::JoinWindowState& state, const Record& rec,
               engine::AddResult* added) const {
    const double slow = SpillFactor(state);
    *added = state.Add(rec);
    return CostUs(config_.join_buffer_cost_us * engine::PhysicalTuples(rec) *
                  added->window_updates * slow);
  }

  /// One window trigger: its outputs, the CPU work it charges before
  /// emitting, and the trace argument naming it.
  struct Fired {
    std::vector<engine::OutputRecord> outputs;
    const char* arg;
    double arg_value;
    uint64_t work;  // units charged at the trigger (0: none)
    SimTime work_cost;
  };
  /// The aggregation emits its running sums: no fire-time work.
  Fired Fire(engine::AggWindowState& state, SimTime watermark) const {
    return {state.FireUpTo(watermark), "watermark_ms", ToMillis(watermark), 0, 0};
  }
  /// The join builds and probes the fired windows' buffers at the trigger.
  Fired Fire(engine::JoinWindowState& state, SimTime watermark) const {
    engine::JoinWindowState::Fired fired = state.FireUpTo(watermark);
    const double work = static_cast<double>(fired.join_work);
    return {std::move(fired.outputs), "join_work", work, fired.join_work,
            CostUs(config_.join_probe_cost_us * work)};
  }

  /// Window task over an AggWindowState (agg) or JoinWindowState (join):
  /// drains up to `batch_` queued messages per resume and folds each
  /// consecutive run of valid records, record by record (Fold), before one
  /// cpu UseBatch; the per-record completion times (service start + cost
  /// prefix sums) are the operator stamps. Barriers and watermarks are
  /// handled singly, in channel order, so fire/snapshot ordering relative
  /// to records is exact; a trigger charges the state's fire-time work
  /// (Fire) before emitting.
  template <typename State>
  Task<> WindowTask(int t) {
    cluster::Node& my_worker = WorkerOfTask(t);
    engine::TaskSlot& slot = slots_[static_cast<size_t>(t)];
    State& state = std::get<State>(slot.state);
    Channel<Message>& in = *channels_[static_cast<size_t>(t)];
    obs::Tracer& tracer = obs::Tracer::Default();
    const obs::TrackId track =
        engine::OperatorTrack(my_worker.name(), name(), "task", t);

    std::vector<Message> msgs;
    std::vector<SimTime> costs;
    for (;;) {
      if (!co_await in.RecvMany(&msgs, batch_)) break;
      size_t i = 0;
      while (i < msgs.size()) {
        if (recovery_ && msgs[i].epoch < epoch_) {
          ++i;
          continue;
        }
        if (msgs[i].kind == Message::Kind::kRecord) {
          // Fold the run of consecutive valid records. No co_await
          // separates the folds; they depend only on record event times
          // and on fired watermarks, which move only between runs.
          costs.clear();
          const size_t first = i;
          int64_t alloc = 0;
          while (i < msgs.size() && msgs[i].kind == Message::Kind::kRecord &&
                 !(recovery_ && msgs[i].epoch < epoch_)) {
            const Record& rec = msgs[i].record;
            ++i;
            engine::AddResult added;
            costs.push_back(Fold(state, rec, &added));
            late_dropped_tuples_ += added.late_tuples;
            metrics_.records->Add(rec.weight);
            metrics_.late_dropped->Add(added.late_tuples);
            alloc += config_.alloc_bytes_per_tuple * engine::PhysicalTuples(rec);
          }
          SimTime done = co_await my_worker.cpu().UseBatch(costs);
          for (size_t m = 0; m < costs.size(); ++m) {
            done += costs[m];
            obs::LineageTracker::Default().StampOperator(msgs[first + m].record.lineage,
                                                         done);
          }
          my_worker.RecordAllocation(alloc);
          continue;
        }
        const Message msg = msgs[i];
        ++i;
        if (msg.origin == kBarrierOrigin) {
          co_await TakeSnapshot(my_worker, track, state.state_bytes());
          if (recovery_) {
            OnTaskSnapshot(t, static_cast<uint64_t>(msg.watermark), msg.epoch);
          }
        } else if (slot.tracker.Update(msg.origin, msg.watermark)) {
          const Fired fired = Fire(state, slot.tracker.current());
          if (fired.work > 0 || !fired.outputs.empty()) {
            metrics_.windows_fired->Add(1);
            obs::ScopedSpan span(tracer, track, "window.fire");
            span.Arg("outputs", static_cast<double>(fired.outputs.size()));
            span.Arg(fired.arg, fired.arg_value);
            if (fired.work > 0) co_await my_worker.cpu().Use(fired.work_cost);
            if (!fired.outputs.empty()) {
              co_await EmitOutputs(my_worker, fired.outputs, t, msg.epoch);
            }
          }
          if (recovery_) OnTaskWatermark(t, slot.tracker.current());
        }
      }
    }
  }

  Task<> EmitOutputs(cluster::Node& from, const std::vector<engine::OutputRecord>& outs,
                     int t, int64_t fire_epoch) {
    // A fire computed from pre-restore state is a phantom of the dead
    // execution: the restored state will re-fire the same windows.
    if (recovery_ && fire_epoch != epoch_) co_return;
    co_await SinkHop(ctx_, from, outs, config_.emit_cost_us);
    if (!recovery_) {
      for (const auto& out : outs) ctx_.sink->Emit(out);
      co_return;
    }
    if (fire_epoch != epoch_) co_return;  // crashed mid-emit: discard
    // Transactional sink: outputs fired between barrier n and n+1 become
    // visible only when checkpoint n+1 completes (or at job finish).
    auto& bucket = uncommitted_[task_commit_id_[static_cast<size_t>(t)] + 1];
    bucket.insert(bucket.end(), outs.begin(), outs.end());
  }

  /// Barrier processed by task `t`: store its snapshot into the pending
  /// checkpoint; the last task to report completes (commits) it.
  void OnTaskSnapshot(int t, uint64_t id, int64_t barrier_epoch) {
    if (barrier_epoch != epoch_) return;  // barrier from a pre-restore epoch
    task_commit_id_[static_cast<size_t>(t)] = id;
    if (!pending_ || pending_->id != id) return;
    pending_->slots.insert_or_assign(t, slots_[static_cast<size_t>(t)]);
    if (--pending_->remaining == 0) CompleteCheckpoint();
  }

  /// Completion is synchronous with the last task's snapshot, so a crash
  /// either aborts the whole checkpoint or lands after the commit.
  void CompleteCheckpoint() {
    std::unique_ptr<Checkpoint> cp = std::move(pending_);
    for (int q = 0; q < num_queues_; ++q) {
      ctx_.queues[static_cast<size_t>(q)]->Ack(cp->cursors[static_cast<size_t>(q)]);
    }
    // Commit every output bucket covered by this checkpoint (ids can skip
    // values when a checkpoint was aborted by a crash).
    for (auto it = uncommitted_.begin();
         it != uncommitted_.end() && it->first <= cp->id;) {
      for (const auto& out : it->second) ctx_.sink->Emit(out);
      it = uncommitted_.erase(it);
    }
    last_completed_ = std::move(cp);
  }

  /// Job finish: once every task has seen the final watermark, flush the
  /// outputs still waiting on a checkpoint (Flink commits on job end).
  void OnTaskWatermark(int t, SimTime combined) {
    if (combined < kFinalWatermark || task_done_[static_cast<size_t>(t)]) return;
    task_done_[static_cast<size_t>(t)] = 1;
    if (++tasks_finished_ < num_tasks_) return;
    for (auto& [id, outs] : uncommitted_) {
      for (const auto& out : outs) ctx_.sink->Emit(out);
    }
    uncommitted_.clear();
  }

  /// Any worker restart restarts the whole job (Flink 1.1 semantics):
  /// every task rewinds to the last completed checkpoint and the queues
  /// replay everything popped past its cursors.
  void RestoreFromCheckpoint() {
    if (!recovery_) return;
    ++epoch_;
    ++restores_;
    obs_restores_->Add(1);
    pending_.reset();
    uncommitted_.clear();
    const Checkpoint& cp = *last_completed_;
    for (int t = 0; t < num_tasks_; ++t) {
      slots_[static_cast<size_t>(t)] = cp.slots.at(t);
      task_commit_id_[static_cast<size_t>(t)] = cp.id;
    }
    clock_.Restore(cp.clock);
    for (auto* q : ctx_.queues) q->Replay();
  }

  FlinkConfig config_;
  driver::SutContext ctx_;
  int num_tasks_ = 0;
  int num_sources_ = 0;
  int num_queues_ = 0;
  int sources_per_worker_ = 1;
  size_t batch_ = 1;  // most records per source pop / task drain
  bool combine_ = false;  // shuffle-side pre-aggregation (batched agg only)
  // Divide-free partition mapper, identical to PartitionForKey modulo.
  std::optional<engine::Partitioner> partitioner_;
  int64_t spill_threshold_bytes_ = 0;
  std::vector<std::unique_ptr<Channel<Message>>> channels_;
  engine::ConnectionClock clock_;
  std::vector<engine::TaskSlot> slots_;  // one per window task
  uint64_t late_dropped_tuples_ = 0;
  uint64_t checkpoints_started_ = 0;
  int64_t snapshot_bytes_total_ = 0;
  engine::EngineMetrics metrics_;
  obs::Counter* obs_checkpoints_ = nullptr;

  // -- Recovery state (untouched when recovery_ is false) ----------------
  struct Checkpoint {
    uint64_t id = 0;  // 0 = the initial empty checkpoint
    int remaining = 0;
    std::vector<uint64_t> cursors;  // per-queue popped_records() at the cut
    engine::ConnectionClock clock;  // its delivered clocks are restored
    std::map<int, engine::TaskSlot> slots;  // per task
  };
  bool recovery_ = false;
  int64_t epoch_ = 0;       // bumped on every restore
  int in_flight_ = 0;       // records popped but not yet in a channel
  uint64_t next_checkpoint_id_ = 0;
  uint64_t restores_ = 0;
  int tasks_finished_ = 0;  // tasks that saw the final watermark
  std::vector<uint64_t> task_commit_id_;  // last barrier id seen per task
  std::vector<char> task_done_;
  std::unique_ptr<Checkpoint> pending_;
  std::unique_ptr<Checkpoint> last_completed_;
  std::map<uint64_t, std::vector<engine::OutputRecord>> uncommitted_;
  obs::Counter* obs_restores_ = nullptr;
};

}  // namespace

std::unique_ptr<driver::Sut> MakeFlink(FlinkConfig config) {
  return std::make_unique<FlinkSut>(config);
}

}  // namespace sdps::engines
