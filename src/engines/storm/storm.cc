#include "engines/storm/storm.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cluster/cluster.h"
#include "common/strings.h"
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
using engine::Message;
using engine::Record;

class StormSut : public driver::Sut {
 public:
  explicit StormSut(StormConfig config) : config_(config) {}

  std::string name() const override { return "storm"; }

  Status Start(const driver::SutContext& ctx) override {
    ctx_ = ctx;
    cluster::Cluster& cluster = *ctx.cluster;
    const int workers = cluster.num_workers();
    overhead_ = cluster::InterpolateOverhead(config_.scaling_overhead, workers);
    recovery_ = config_.recovery_enabled;
    const Status topology = df_.Init<engine::BufferedWindowState>(
        ctx, "storm", config_.bolts_per_worker, config_.channel_capacity, config_.query,
        config_.shuffle_combine, recovery_, config_.remote_serde_cost_us * overhead_);
    if (!topology.ok()) return topology;
    heap_used_.assign(static_cast<size_t>(workers), 0);
    charged_bytes_.assign(static_cast<size_t>(df_.num_tasks()), 0);

    metrics_ = engine::EngineMetrics(name());
    obs_throttle_transitions_ = obs::Registry::Default().GetCounter(
        "engine.throttle.transitions", {{"engine", name()}});

    if (recovery_) {
      for (auto* q : ctx.queues) q->set_retain(true);
      obs_restores_ = obs::Registry::Default().GetCounter(
          "engine.recovery.restores", {{"engine", name()}});
      for (int w = 0; w < workers; ++w) {
        cluster.worker(w).OnRestart(
            [this](cluster::Node& n) { OnWorkerRestart(n); });
      }
      ctx.sim->Spawn(AckerProcess());
    }

    for (int s = 0; s < df_.num_sources(); ++s) ctx.sim->Spawn(SpoutProcess(s));
    for (int q = 0; q < df_.num_queues(); ++q) {
      ctx.sim->Spawn(df_.WatermarkProcess(q, config_.watermark_interval, 0));
    }
    for (int b = 0; b < df_.num_tasks(); ++b) {
      ctx.sim->Spawn(config_.query.kind == engine::QueryKind::kAggregation
                         ? WindowBolt<engine::BufferedWindowState>(b)
                         : WindowBolt<engine::JoinWindowState>(b));
    }
    if (config_.enable_backpressure) ctx.sim->Spawn(ThrottleMonitor());
    return Status::OK();
  }

  void Stop() override { df_.Stop(); }

 private:
  /// Tracks the JVM heap of the Storm worker on `node` as bolt b's window
  /// state reaches `state_bytes`; OOMs the topology when window state
  /// outgrows the configured heap.
  bool ChargeHeap(const cluster::Node& node, int b, int64_t state_bytes) {
    int64_t& used = heap_used_[WorkerIndex(node)];
    used += state_bytes - std::exchange(charged_bytes_[static_cast<size_t>(b)], state_bytes);
    if (used > config_.worker_heap_bytes) {
      ctx_.report_failure(Status::ResourceExhausted(StrFormat(
          "storm: worker heap exhausted on %s (%lld bytes of window state; "
          "java.lang.OutOfMemoryError)",
          node.name().c_str(), static_cast<long long>(used))));
      return false;
    }
    return true;
  }
  size_t WorkerIndex(const cluster::Node& node) const {
    return static_cast<size_t>(node.id()) - 1 -
           static_cast<size_t>(ctx_.cluster->num_drivers());
  }

  /// Spout: one PopBatch / ingest SendBatch / cpu UseBatch per run of up
  /// to batch() records (a run of one at --batch=1). Spout + acker CPU
  /// charges are coalesced into a single FIFO admission (two cost entries
  /// per record); remote serde/transfers are grouped per target worker;
  /// channel delivery (including the naive-join ads broadcast and the
  /// drop-counting no-backpressure path) stays per record.
  Task<> SpoutProcess(int s) {
    cluster::Node& my_worker = df_.WorkerOfSource(s);
    const int queue_idx = df_.QueueOfSource(s);
    cluster::Node& queue_node = ctx_.cluster->driver(queue_idx);
    driver::DriverQueue& queue = *ctx_.queues[static_cast<size_t>(queue_idx)];
    engine::ConnectionClock& clock = df_.clock();
    int consecutive_drops = 0;
    const bool join = config_.query.kind == engine::QueryKind::kJoin;

    engine::RecordBatch recs;
    IngestHop ingest;
    ShuffleWrite shuffle(df_);
    std::vector<SimTime> costs;
    for (;;) {
      // Topology-wide bang-bang throttle: spouts stop emitting entirely.
      while (throttled_) co_await des::Delay(*ctx_.sim, config_.throttle_poll);

      if (!co_await queue.PopBatch(&recs, df_.batch())) break;
      const size_t k = recs.size();
      // Raised before the first suspension: from this instant until each
      // record lands in its channel, watermarks stay below the run.
      clock.Hold(s, recs[0].event_time);
      co_await ingest.Move(*ctx_.cluster, queue_node, my_worker, recs);
      // Spout work plus at-least-once ack bookkeeping (acker executor
      // colocated with the spout's worker; acker network traffic folded
      // into the CPU charge).
      costs.clear();
      int64_t alloc = 0;
      for (const Record& rec : recs) {
        costs.push_back(CostUs(config_.spout_cost_us * overhead_ * rec.weight));
        costs.push_back(CostUs(config_.ack_cost_us * overhead_ * rec.weight));
        alloc += config_.alloc_bytes_per_tuple * rec.weight;
      }
      co_await my_worker.cpu().UseBatch(costs);
      my_worker.RecordAllocation(alloc);

      // The clock advances over the raw run (the floor still caps
      // watermarks below it); then route, and coalesce serde + transfers
      // per target worker.
      for (const Record& rec : recs) clock.Advance(queue_idx, rec.event_time);
      const engine::RecordBatch* run = &recs;
      if (!join) {
        run = &shuffle.Partition(recs, my_worker, &costs);
      } else {
        shuffle.StartRun(&costs);
        for (const Record& rec : recs) {
          if (rec.stream == engine::StreamId::kAds) {
            // Naive join: the ads stream is broadcast to every bolt (each
            // bolt keeps a full ads copy and matches its purchase
            // partition), so it fans out to every remote worker.
            for (int w = 0; w < ctx_.cluster->num_workers(); ++w) {
              cluster::Node& target = ctx_.cluster->worker(w);
              if (target.id() != my_worker.id()) shuffle.AddRemote(target, rec, &costs);
            }
            continue;
          }
          cluster::Node& target = df_.WorkerOfTask(df_.TaskOfKey(rec.key));
          if (target.id() != my_worker.id()) shuffle.AddRemote(target, rec, &costs);
        }
      }
      if (!costs.empty()) {
        co_await my_worker.cpu().UseBatch(costs);
        for (const cluster::TransferGroups::Group& g : shuffle.remote()) {
          co_await ctx_.cluster->SendBatch(my_worker, *g.node, g.bytes.data(),
                                           g.bytes.size(), nullptr);
        }
      }

      if (!join) {
        const engine::PartitionPlan& plan = shuffle.plan();
        for (const int b : plan.active) {
          Channel<Message>& ch = df_.channel(b);
          for (const uint32_t* it = plan.Begin(b); it != plan.End(b); ++it) {
            bool delivered;
            if (config_.enable_backpressure) {
              delivered = co_await ch.Send(Message::MakeRecord((*run)[*it]));
            } else {
              delivered = SendOrDrop(ch, (*run)[*it], consecutive_drops);
            }
            if (!delivered) {
              clock.Release(s);
              co_return;
            }
          }
        }
      } else {
        for (size_t i = 0; i < k; ++i) {
          bool delivered = true;
          if (recs[i].stream == engine::StreamId::kAds) {
            for (int b = 0; b < df_.num_tasks(); ++b) {
              delivered = co_await df_.channel(b).Send(Message::MakeRecord(recs[i]));
              if (!delivered) break;
            }
          } else if (config_.enable_backpressure) {
            delivered = co_await df_.channel(df_.TaskOfKey(recs[i].key))
                            .Send(Message::MakeRecord(recs[i]));
          } else {
            delivered = SendOrDrop(df_.channel(df_.TaskOfKey(recs[i].key)), recs[i],
                                   consecutive_drops);
          }
          if (!delivered) {
            clock.Release(s);
            co_return;
          }
          if (i + 1 < k) clock.Hold(s, recs[i + 1].event_time);
        }
      }
      clock.Release(s);
    }
    clock.Finish(s);
  }

  /// Delivery without flow control: a full receive queue drops the tuple,
  /// and sustained overflow drops the ingest connection (a failed run,
  /// Sec. VI-A). Returns false once the connection dropped.
  bool SendOrDrop(Channel<Message>& ch, const Record& rec, int& consecutive_drops) {
    if (ch.TrySend(Message::MakeRecord(rec))) {
      consecutive_drops = 0;
      return true;
    }
    if (++consecutive_drops < config_.drop_limit) return true;
    ctx_.report_failure(Status::Aborted(
        "storm: dropped connection to the data generator queue "
        "(receive queues overflowed with backpressure disabled)"));
    return false;
  }

  /// Storm's acker tree, collapsed into its observable effect: a tuple is
  /// fully processed once every window containing it has fired, which is
  /// conservatively true for event times at or below (min broadcast
  /// watermark - window range). Those tuples are acked back to the driver
  /// queues periodically; everything newer stays replayable.
  Task<> AckerProcess() {
    for (;;) {
      co_await des::Delay(*ctx_.sim, config_.ack_flush_interval);
      const SimTime min_wm = df_.clock().MinLastSent();
      if (min_wm == engine::kNoWatermark) continue;
      const SimTime acked = min_wm - config_.query.window.range;
      for (auto* q : ctx_.queues) q->AckThroughEventTime(acked);
    }
  }

  /// The crashed worker's executors come back empty: their window buffers
  /// and event-time clocks are gone (Storm keeps no window snapshots).
  /// Surviving workers keep their state, and every unacked tuple is
  /// replayed from the driver queues — at-least-once: surviving bolts can
  /// double-apply replays, rebuilt windows re-fire with partial contents.
  void OnWorkerRestart(cluster::Node& node) {
    int64_t freed = 0;
    for (int b = 0; b < df_.num_tasks(); ++b) {
      if (df_.WorkerOfTask(b).id() != node.id()) continue;
      df_.ResetSlot(b);
      freed += std::exchange(charged_bytes_[static_cast<size_t>(b)], 0);
    }
    heap_used_[WorkerIndex(node)] -= freed;
    obs_restores_->Add(1);
    for (auto* q : ctx_.queues) q->Replay();
  }

  Task<> ThrottleMonitor() {
    obs::Tracer& tracer = obs::Tracer::Default();
    const obs::TrackId track = tracer.Track("storm-topology", "throttle");
    for (;;) {
      co_await des::Delay(*ctx_.sim, config_.throttle_poll);
      double max_fill = 0;
      for (int b = 0; b < df_.num_tasks(); ++b) {
        const Channel<Message>& ch = df_.channel(b);
        max_fill = std::max(max_fill, static_cast<double>(ch.size()) /
                                          static_cast<double>(ch.capacity()));
      }
      if (!throttled_ && max_fill > config_.throttle_high) {
        throttled_ = true;
        obs_throttle_transitions_->Add(1);
        tracer.Instant(track, "throttle.on", ctx_.sim->now(), "fill", max_fill);
      }
      if (throttled_ && max_fill < config_.throttle_low) {
        throttled_ = false;
        obs_throttle_transitions_->Add(1);
        tracer.Instant(track, "throttle.off", ctx_.sim->now(), "fill", max_fill);
      }
    }
  }

  /// CPU work of one window trigger, and the trace argument naming it.
  struct FireWork {
    const char* arg;
    uint64_t units;
    SimTime cost;
  };
  /// The aggregation bolt scans every buffered tuple of the fired windows.
  FireWork WorkOf(const engine::BufferedWindowState::Fired& fired) const {
    return {"scanned", fired.tuples_scanned,
            CostUs(config_.scan_cost_us * overhead_ *
                   static_cast<double>(fired.tuples_scanned))};
  }
  /// The hand-rolled naive join bolt (SpoutProcess broadcasts the ads
  /// stream to every bolt and hash-partitions the purchases) evaluates a
  /// nested loop over the window's purchase x ad pairs.
  FireWork WorkOf(const engine::JoinWindowState::Fired& fired) const {
    return {"naive_pairs", fired.naive_pairs,
            CostUs(config_.naive_pair_cost_ns * 1e-3 *
                   static_cast<double>(fired.naive_pairs))};
  }

  /// Window bolt over a BufferedWindowState (agg) or JoinWindowState
  /// (join): drains up to batch() queued messages per resume; each
  /// consecutive run of records is folded into the window state with one
  /// AddBatch + one cpu UseBatch whose per-record completion times
  /// (service start + cost prefix sums) are the operator stamps. Heap is
  /// charged with the run's total state delta (one OOM probe per run);
  /// watermark triggers are handled singly, in channel order, and charge
  /// the state's fire-time work (WorkOf).
  template <typename State>
  Task<> WindowBolt(int b) {
    cluster::Node& my_worker = df_.WorkerOfTask(b);
    engine::TaskSlot& slot = df_.slot(b);
    State& state = std::get<State>(slot.state);
    Channel<Message>& in = df_.channel(b);
    obs::Tracer& tracer = obs::Tracer::Default();
    const obs::TrackId track =
        engine::OperatorTrack(my_worker.name(), name(), "bolt", b);

    std::vector<Message> msgs;
    engine::RecordBatch run;
    std::vector<engine::AddResult> added;
    std::vector<SimTime> costs;
    for (;;) {
      if (!co_await in.RecvMany(&msgs, df_.batch())) break;
      size_t i = 0;
      while (i < msgs.size()) {
        if (msgs[i].kind == Message::Kind::kRecord) {
          run.Clear();
          while (i < msgs.size() && msgs[i].kind == Message::Kind::kRecord) {
            run.PushBack(msgs[i].record);
            ++i;
          }
          added.assign(run.size(), {});
          engine::AddBatch(state, run.begin(), run.size(), added.data());
          costs.clear();
          int64_t alloc = 0;
          for (size_t m = 0; m < run.size(); ++m) {
            metrics_.records->Add(run[m].weight);
            metrics_.late_dropped->Add(added[m].late_tuples);
            costs.push_back(CostUs(config_.buffer_add_cost_us * overhead_ *
                                   engine::PhysicalTuples(run[m]) *
                                   added[m].window_updates));
            alloc += config_.alloc_bytes_per_tuple * engine::PhysicalTuples(run[m]);
          }
          SimTime done = co_await my_worker.cpu().UseBatch(costs);
          for (size_t m = 0; m < run.size(); ++m) {
            done += costs[m];
            obs::LineageTracker::Default().StampOperator(run[m].lineage, done);
          }
          my_worker.RecordAllocation(alloc);
          if (!ChargeHeap(my_worker, b, state.state_bytes())) co_return;
          continue;
        }
        const Message msg = msgs[i];
        ++i;
        if (slot.tracker.Update(msg.origin, msg.watermark)) {
          auto fired = state.FireUpTo(slot.tracker.current());
          const FireWork work = WorkOf(fired);
          std::optional<obs::ScopedSpan> span;
          if (work.units > 0 || !fired.outputs.empty()) {
            metrics_.windows_fired->Add(1);
            span.emplace(tracer, track, "window.fire");
            span->Arg(work.arg, static_cast<double>(work.units));
            span->Arg("outputs", static_cast<double>(fired.outputs.size()));
          }
          if (work.units > 0) co_await my_worker.cpu().Use(work.cost);
          ChargeHeap(my_worker, b, state.state_bytes());
          if (!fired.outputs.empty()) {
            co_await SinkHop(ctx_, my_worker, fired.outputs,
                             config_.emit_cost_us * overhead_);
            for (const auto& out : fired.outputs) ctx_.sink->Emit(out);
          }
        }
      }
    }
  }

  StormConfig config_;
  driver::SutContext ctx_;
  double overhead_ = 1.0;
  KeyedDataflow df_;
  // Window-state bytes last charged to the worker heap, per bolt.
  std::vector<int64_t> charged_bytes_;
  bool throttled_ = false;
  std::vector<int64_t> heap_used_;
  engine::EngineMetrics metrics_;
  obs::Counter* obs_throttle_transitions_ = nullptr;

  // -- Recovery state (untouched when recovery_ is false) ----------------
  bool recovery_ = false;
  obs::Counter* obs_restores_ = nullptr;
};

}  // namespace

std::unique_ptr<driver::Sut> MakeStorm(StormConfig config) {
  return std::make_unique<StormSut>(config);
}

}  // namespace sdps::engines
