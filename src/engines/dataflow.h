// The dataflow steps the DES engine models share: every engine's ingest
// and sink hops, each on the co_await sequence of the engine code it
// replaced (a child Task schedules no event, des/task.h), and the keyed
// dataflow core of Flink and Storm with its source-side shuffle write.
// Remote shipping stays inline at its call sites: shared, it would cost a
// child coroutine frame per remote run, about one per record at batch 1.
#ifndef SDPS_ENGINES_DATAFLOW_H_
#define SDPS_ENGINES_DATAFLOW_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/strings.h"
#include "common/time_util.h"
#include "des/channel.h"
#include "des/task.h"
#include "driver/sut.h"
#include "engine/batch.h"
#include "engine/columnar.h"
#include "engine/partition.h"
#include "engine/record.h"
#include "engine/watermark.h"
#include "engine/window_state.h"
#include "obs/lineage.h"

namespace sdps::engines {

/// The driver->worker ingest hop: one coalesced transfer of a popped run,
/// after which every record carries its own link arrival as its
/// ingest_time and lineage ingest stamp. It owns the per-run scratch, so a
/// source keeps one for its life and a steady-state hop allocates nothing.
class IngestHop {
 public:
  struct [[nodiscard]] Awaiter {
    cluster::Cluster::SendAwaiter send;
    engine::RecordBatch& recs;
    const SimTime* arrivals;

    bool await_ready() const noexcept { return send.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { send.await_suspend(h); }
    void await_resume() {
      for (size_t i = 0; i < recs.size(); ++i) {
        recs[i].ingest_time = arrivals[i];
        obs::LineageTracker::Default().StampIngested(recs[i].lineage, arrivals[i]);
      }
    }
  };

  /// `co_await hop.Move(cluster, from, to, recs)`; `recs` must stay valid
  /// until the await resumes.
  Awaiter Move(cluster::Cluster& cluster, cluster::Node& from, cluster::Node& to,
               engine::RecordBatch& recs) {
    bytes_.clear();
    for (const engine::Record& rec : recs) bytes_.push_back(engine::WireBytes(rec));
    arrivals_.resize(recs.size());  // SendBatch writes every arrival
    return {cluster.SendBatch(from, to, bytes_.data(), recs.size(), arrivals_.data()),
            recs, arrivals_.data()};
  }

 private:
  std::vector<int64_t> bytes_;
  std::vector<SimTime> arrivals_;
};

/// The sink hop of fired outputs: stamps their fire time, charges
/// `emit_cost_us` per output on `from`'s CPU and moves their wire bytes to
/// the sink on driver 0. Handing them to the sink is the caller's step
/// (Flink's sink may hold them until a checkpoint commits).
inline des::Task<> SinkHop(const driver::SutContext& ctx, cluster::Node& from,
                           const std::vector<engine::OutputRecord>& outs,
                           double emit_cost_us) {
  for (const engine::OutputRecord& out : outs) {
    obs::LineageTracker::Default().StampFired(out.lineage, ctx.sim->now());
  }
  co_await from.cpu().Use(CostUs(emit_cost_us * static_cast<double>(outs.size())));
  int64_t bytes = 0;
  for (const engine::OutputRecord& out : outs) bytes += engine::WireBytes(out);
  co_await ctx.cluster->Send(from, ctx.cluster->driver(0), bytes);
}

/// The keyed dataflow Flink and Storm both model and each hold as a member:
/// topology, connection watermarks and task slots. Tasks go round-robin
/// over the workers; each worker runs one source per CPU slot (the paper's
/// 16 per node) pulling from queue (worker mod queues), which lives on that
/// driver: the paper pairs generators with ingest 1:1.
class KeyedDataflow {
 public:
  /// Each task gets a channel of `channel_capacity` and an empty slot: an
  /// `AggState` for an aggregation, else a JoinWindowState. Sources combine
  /// a batched aggregation's runs if `shuffle_combine`, which `recovery`
  /// forbids (replay counts raw records), and charge `remote_serde_cost_us`
  /// per remote physical tuple.
  template <typename AggState>
  Status Init(const driver::SutContext& ctx, const char* engine, int tasks_per_worker,
              size_t channel_capacity, const engine::QueryConfig& query,
              bool shuffle_combine, bool recovery, double remote_serde_cost_us) {
    sim_ = ctx.sim;
    cluster_ = ctx.cluster;
    num_tasks_ = cluster_->num_workers() * tasks_per_worker;
    num_queues_ = static_cast<int>(ctx.queues.size());
    SDPS_CHECK_GT(num_queues_, 0);
    partitioner_.emplace(num_tasks_);
    sources_per_worker_ = cluster_->worker(0).config().cpu_slots;
    channels_.reserve(static_cast<size_t>(num_tasks_));
    for (int t = 0; t < num_tasks_; ++t) {
      channels_.push_back(
          std::make_unique<des::Channel<engine::Message>>(*sim_, channel_capacity));
    }
    clock_ = engine::ConnectionClock(num_queues_, num_sources(),
                                     [this](int s) { return QueueOfSource(s); });
    const engine::WindowAssigner assigner(query.window);
    empty_slot_.emplace(query.kind == engine::QueryKind::kAggregation
                            ? engine::WindowState(AggState(assigner))
                            : engine::WindowState(engine::JoinWindowState(assigner)),
                        engine::WatermarkTracker(num_queues_));
    slots_.assign(static_cast<size_t>(num_tasks_), *empty_slot_);
    slide_ = query.window.slide;
    serde_cost_us_ = remote_serde_cost_us;
    batch_ = static_cast<size_t>(std::max(1, ctx.batch));
    combine_ = shuffle_combine && batch_ > 1 &&  // a run of one has nothing to combine
               query.kind == engine::QueryKind::kAggregation;
    if (combine_ && recovery) {
      return Status::InvalidArgument(
          StrFormat("%s: shuffle_combine is incompatible with recovery_enabled", engine));
    }
    return Status::OK();
  }

  cluster::Node& WorkerOfSource(int s) const {
    return cluster_->worker(s / sources_per_worker_);
  }
  cluster::Node& WorkerOfTask(int t) const {
    return cluster_->worker(t % cluster_->num_workers());
  }
  int QueueOfSource(int s) const { return (s / sources_per_worker_) % num_queues_; }
  int TaskOfKey(uint64_t key) const { return (*partitioner_)(key); }

  /// Every `interval`, broadcasts connection q's clock less `lateness`
  /// (ConnectionClock::Next); ends after the final watermark.
  des::Task<> WatermarkProcess(int q, SimTime interval, SimTime lateness) {
    for (;;) {
      co_await des::Delay(*sim_, interval);
      const std::optional<SimTime> wm = clock_.Next(q, lateness);
      if (!wm) continue;
      co_await Broadcast(engine::Message::MakeWatermark(q, *wm));
      if (*wm == engine::kFinalWatermark) co_return;
    }
  }

  /// Sends `msg`, tagged with the current epoch, to every task in order.
  des::Task<> Broadcast(engine::Message msg) {
    msg.epoch = epoch_;
    for (auto& ch : channels_) {
      if (!co_await ch->Send(msg)) co_return;
    }
  }

  void Stop() {
    for (auto& ch : channels_) ch->Close();
  }

  int num_tasks() const { return num_tasks_; }
  int num_sources() const { return cluster_->num_workers() * sources_per_worker_; }
  int num_queues() const { return num_queues_; }
  /// The most records one source pop or task drain takes.
  size_t batch() const { return batch_; }
  des::Channel<engine::Message>& channel(int t) { return *channels_[static_cast<size_t>(t)]; }
  engine::ConnectionClock& clock() { return clock_; }
  /// Task t's state: a restore or restart may replace it as the task runs.
  engine::TaskSlot& slot(int t) { return slots_[static_cast<size_t>(t)]; }
  /// Puts task t's slot back as it was before its first record.
  void ResetSlot(int t) { slot(t) = *empty_slot_; }
  /// The restore epoch: Flink bumps it per restore; Storm's stays 0.
  int64_t epoch() const { return epoch_; }
  void NextEpoch() { ++epoch_; }

 private:
  friend class ShuffleWrite;

  des::Simulator* sim_ = nullptr;
  cluster::Cluster* cluster_ = nullptr;
  int num_tasks_ = 0;
  int num_queues_ = 0;
  int sources_per_worker_ = 1;
  size_t batch_ = 1;
  bool combine_ = false;
  SimTime slide_ = 0;  // the combiner's bucket width
  double serde_cost_us_ = 0;
  std::optional<engine::Partitioner> partitioner_;  // == PartitionForKey
  std::vector<std::unique_ptr<des::Channel<engine::Message>>> channels_;
  engine::ConnectionClock clock_;
  std::optional<engine::TaskSlot> empty_slot_;
  std::vector<engine::TaskSlot> slots_;
  int64_t epoch_ = 0;
};

/// A source's side of the keyed shuffle. It owns the per-run scratch, so a
/// source keeps one for its life and a steady-state run allocates nothing.
class ShuffleWrite {
 public:
  explicit ShuffleWrite(const KeyedDataflow& df) : df_(df) {
    if (df.combine_) combiner_.emplace(df.slide_);
  }

  /// Combines `recs` if the dataflow does, radix-partitions the result
  /// into task-major order (plan()) and adds each record bound for another
  /// worker than `from` (AddRemote). Returns the run as partitioned.
  const engine::RecordBatch& Partition(const engine::RecordBatch& recs,
                                       const cluster::Node& from,
                                       std::vector<SimTime>* costs) {
    StartRun(costs);
    const engine::RecordBatch* run = &recs;
    if (combiner_) {
      combined_.Clear();
      combiner_->Combine(recs.begin(), recs.size(), &combined_);
      combined_.Seal();
      run = &combined_;
    }
    cols_.LoadKeys(run->begin(), run->size());
    engine::RadixPartition(cols_.keys.data(), run->size(), *df_.partitioner_, &plan_);
    for (const int t : plan_.active) {
      cluster::Node& target = df_.WorkerOfTask(t);
      if (target.id() == from.id()) continue;
      for (const uint32_t* it = plan_.Begin(t); it != plan_.End(t); ++it) {
        AddRemote(target, (*run)[*it], costs);
      }
    }
    return *run;
  }

  /// Starts a run the caller routes itself (Storm's naive join).
  void StartRun(std::vector<SimTime>* costs) {
    costs->clear();
    remote_.Clear();
  }
  /// Appends `rec`'s serde cost to *costs and its wire bytes to `to`'s group.
  void AddRemote(cluster::Node& to, const engine::Record& rec, std::vector<SimTime>* costs) {
    costs->push_back(CostUs(df_.serde_cost_us_ * engine::PhysicalTuples(rec)));
    remote_.To(to).push_back(engine::WireBytes(rec));
  }

  const engine::PartitionPlan& plan() const { return plan_; }
  /// The wire bytes of the run's remote records, per target worker.
  const cluster::TransferGroups& remote() const { return remote_; }

 private:
  const KeyedDataflow& df_;
  engine::ColumnarBatch cols_;
  engine::PartitionPlan plan_;
  engine::RecordBatch combined_;
  std::optional<engine::ShuffleCombiner> combiner_;
  cluster::TransferGroups remote_;
};

}  // namespace sdps::engines

#endif  // SDPS_ENGINES_DATAFLOW_H_
