// The dataflow hops the DES engine models share: ingest of a popped run and
// fired outputs to the sink, each on the co_await sequence of the engine
// code it replaced (a child Task schedules no event, des/task.h). Remote
// shipping stays inline at its call sites: shared, it would cost a child
// coroutine frame per remote run, about one per record at batch 1.
#ifndef SDPS_ENGINES_DATAFLOW_H_
#define SDPS_ENGINES_DATAFLOW_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/time_util.h"
#include "des/task.h"
#include "driver/sut.h"
#include "engine/batch.h"
#include "engine/record.h"
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

}  // namespace sdps::engines

#endif  // SDPS_ENGINES_DATAFLOW_H_
