#include "engines/flink/flink.h"

#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "des/channel.h"
#include "des/task.h"
#include "engine/batch.h"
#include "engine/columnar.h"
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
    if (config_.recovery_enabled && config_.checkpoint_interval <= 0) {
      return Status::InvalidArgument(
          "flink: recovery_enabled requires checkpoint_interval > 0");
    }
    recovery_ = config_.recovery_enabled;
    const bool agg = config_.query.kind == engine::QueryKind::kAggregation;
    // Join tasks evaluate in bulk at the trigger; deeper buffers absorb
    // the evaluation burst (Flink's network buffer pool is shared).
    const Status topology = df_.Init<engine::AggWindowState>(
        ctx, "flink", config_.tasks_per_worker,
        agg ? config_.channel_capacity : config_.channel_capacity * 4, config_.query,
        config_.shuffle_combine, recovery_, config_.remote_serde_cost_us);
    if (!topology.ok()) return topology;
    const int num_tasks = df_.num_tasks();
    cluster::Cluster& cluster = *ctx.cluster;
    // Per-task share of worker heap before the spillable backend engages.
    spill_threshold_bytes_ =
        cluster.worker(0).config().memory_bytes / (2 * config_.tasks_per_worker);

    metrics_ = engine::EngineMetrics(name());
    obs_checkpoints_ = obs::Registry::Default().GetCounter(
        "engine.checkpoint.snapshots", {{"engine", name()}});

    if (recovery_) {
      for (auto* q : ctx.queues) q->set_retain(true);
      task_commit_id_.assign(static_cast<size_t>(num_tasks), 0);
      task_done_.assign(static_cast<size_t>(num_tasks), 0);
      // Checkpoint 0: the empty initial state. A crash before the first
      // completed checkpoint restores this and replays everything.
      last_completed_ = std::make_unique<Checkpoint>();
      last_completed_->cursors.assign(static_cast<size_t>(df_.num_queues()), 0);
      last_completed_->clock = df_.clock();
      for (int t = 0; t < num_tasks; ++t) last_completed_->slots.emplace(t, df_.slot(t));
      obs_restores_ = obs::Registry::Default().GetCounter(
          "engine.recovery.restores", {{"engine", name()}});
      for (int w = 0; w < cluster.num_workers(); ++w) {
        cluster.worker(w).OnRestart(
            [this](cluster::Node&) { RestoreFromCheckpoint(); });
      }
    }

    for (int s = 0; s < df_.num_sources(); ++s) ctx.sim->Spawn(SourceProcess(s));
    for (int q = 0; q < df_.num_queues(); ++q) {
      ctx.sim->Spawn(
          df_.WatermarkProcess(q, config_.watermark_interval, config_.allowed_lateness));
    }
    if (config_.checkpoint_interval > 0) {
      ctx.sim->Spawn(CheckpointCoordinator());
    }
    for (int t = 0; t < num_tasks; ++t) {
      ctx.sim->Spawn(agg ? WindowTask<engine::AggWindowState>(t)
                         : WindowTask<engine::JoinWindowState>(t));
    }
    return Status::OK();
  }

  void Stop() override { df_.Stop(); }

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
  /// Source: one PopBatch / ingest SendBatch / cpu UseBatch per run of up
  /// to batch() records (a run of one at --batch=1). Per-record side
  /// effects (ingest stamps at the per-record link completion times, epoch
  /// bookkeeping, partitioned channel sends) keep their order; only the
  /// event scheduling is coalesced.
  Task<> SourceProcess(int s) {
    cluster::Node& my_worker = df_.WorkerOfSource(s);
    const int queue_idx = df_.QueueOfSource(s);
    cluster::Node& queue_node = ctx_.cluster->driver(queue_idx);
    driver::DriverQueue& queue = *ctx_.queues[static_cast<size_t>(queue_idx)];
    engine::ConnectionClock& clock = df_.clock();

    engine::RecordBatch recs;
    IngestHop ingest;
    ShuffleWrite shuffle(df_);
    std::vector<SimTime> costs;
    for (;;) {
      if (!co_await queue.PopBatch(&recs, df_.batch())) break;
      const size_t k = recs.size();
      // Raised before the first suspension and held at the run minimum
      // until the last record lands in its channel: the shuffle sends in
      // destination-major (not event-time) order, so only the whole-run
      // floor is a safe watermark bound.
      clock.Hold(s, recs[0].event_time);
      // Pop-time restore epoch: if a crash hits while these records are in
      // flight, the receiving task drops the (now stale) messages and the
      // queue replays the records instead.
      const int64_t rec_epoch = df_.epoch();
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

      const engine::RecordBatch& run = shuffle.Partition(recs, my_worker, &costs);
      if (!costs.empty()) {
        co_await my_worker.cpu().UseBatch(costs);
        for (const cluster::TransferGroups::Group& g : shuffle.remote()) {
          co_await ctx_.cluster->SendBatch(my_worker, *g.node, g.bytes.data(),
                                           g.bytes.size(), nullptr);
        }
      }
      // Destination-major channel sends. in_flight_ counts raw records,
      // and combining is disallowed under recovery, so the run is `recs`
      // whenever recovery_ is set.
      const engine::PartitionPlan& plan = shuffle.plan();
      size_t sends_left = run.size();
      for (const int t : plan.active) {
        Channel<Message>& ch = df_.channel(t);
        for (const uint32_t* it = plan.Begin(t); it != plan.End(t); ++it) {
          const Record& rec = run[*it];
          // A stale record must not advance the (restored) event-time
          // clock: its replayed copy re-advances it on the re-pop.
          if (!recovery_ || rec_epoch == df_.epoch()) {
            clock.Advance(queue_idx, rec.event_time);
          }
          Message msg = Message::MakeRecord(rec);
          msg.epoch = rec_epoch;
          const bool sent = co_await ch.Send(msg);
          --sends_left;
          if (recovery_) --in_flight_;
          if (!sent) {
            // Topology shut down mid-run: release the never-sent remainder.
            clock.Release(s);
            if (recovery_) in_flight_ -= static_cast<int>(sends_left);
            co_return;
          }
        }
      }
      clock.Release(s);
    }
    clock.Finish(s);
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
        co_await df_.Broadcast(Message::MakeWatermark(kBarrierOrigin, 0));
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
      cp->remaining = df_.num_tasks();
      for (auto* q : ctx_.queues) cp->cursors.push_back(q->popped_records());
      cp->clock = df_.clock();
      pending_ = std::move(cp);
      // The pause holds through the whole broadcast: no record can be
      // popped and overtake a barrier still being injected.
      co_await df_.Broadcast(
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
  /// drains up to batch() queued messages per resume and folds each
  /// consecutive run of valid records, record by record (Fold), before one
  /// cpu UseBatch; the per-record completion times (service start + cost
  /// prefix sums) are the operator stamps. Barriers and watermarks are
  /// handled singly, in channel order, so fire/snapshot ordering relative
  /// to records is exact; a trigger charges the state's fire-time work
  /// (Fire) before emitting.
  template <typename State>
  Task<> WindowTask(int t) {
    cluster::Node& my_worker = df_.WorkerOfTask(t);
    engine::TaskSlot& slot = df_.slot(t);
    State& state = std::get<State>(slot.state);
    Channel<Message>& in = df_.channel(t);
    obs::Tracer& tracer = obs::Tracer::Default();
    const obs::TrackId track =
        engine::OperatorTrack(my_worker.name(), name(), "task", t);

    std::vector<Message> msgs;
    std::vector<SimTime> costs;
    for (;;) {
      if (!co_await in.RecvMany(&msgs, df_.batch())) break;
      size_t i = 0;
      while (i < msgs.size()) {
        if (recovery_ && msgs[i].epoch < df_.epoch()) {
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
                 !(recovery_ && msgs[i].epoch < df_.epoch())) {
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
    if (recovery_ && fire_epoch != df_.epoch()) co_return;
    co_await SinkHop(ctx_, from, outs, config_.emit_cost_us);
    if (!recovery_) {
      for (const auto& out : outs) ctx_.sink->Emit(out);
      co_return;
    }
    if (fire_epoch != df_.epoch()) co_return;  // crashed mid-emit: discard
    // Transactional sink: outputs fired between barrier n and n+1 become
    // visible only when checkpoint n+1 completes (or at job finish).
    auto& bucket = uncommitted_[task_commit_id_[static_cast<size_t>(t)] + 1];
    bucket.insert(bucket.end(), outs.begin(), outs.end());
  }

  /// Barrier processed by task `t`: store its snapshot into the pending
  /// checkpoint; the last task to report completes (commits) it.
  void OnTaskSnapshot(int t, uint64_t id, int64_t barrier_epoch) {
    if (barrier_epoch != df_.epoch()) return;  // barrier from a pre-restore epoch
    task_commit_id_[static_cast<size_t>(t)] = id;
    if (!pending_ || pending_->id != id) return;
    pending_->slots.insert_or_assign(t, df_.slot(t));
    if (--pending_->remaining == 0) CompleteCheckpoint();
  }

  /// Completion is synchronous with the last task's snapshot, so a crash
  /// either aborts the whole checkpoint or lands after the commit.
  void CompleteCheckpoint() {
    std::unique_ptr<Checkpoint> cp = std::move(pending_);
    for (int q = 0; q < df_.num_queues(); ++q) {
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
    if (++tasks_finished_ < df_.num_tasks()) return;
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
    df_.NextEpoch();
    ++restores_;
    obs_restores_->Add(1);
    pending_.reset();
    uncommitted_.clear();
    const Checkpoint& cp = *last_completed_;
    for (int t = 0; t < df_.num_tasks(); ++t) {
      df_.slot(t) = cp.slots.at(t);
      task_commit_id_[static_cast<size_t>(t)] = cp.id;
    }
    df_.clock().Restore(cp.clock);
    for (auto* q : ctx_.queues) q->Replay();
  }

  FlinkConfig config_;
  driver::SutContext ctx_;
  KeyedDataflow df_;
  int64_t spill_threshold_bytes_ = 0;
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
