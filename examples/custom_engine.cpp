// Plugging YOUR system under test into the benchmark framework. The
// paper's driver is engine-agnostic: anything implementing driver::Sut can
// be measured with the same queues, sink, metrics, and sustainability
// judgement. This example implements a minimal single-node tumbling-window
// engine ("ToyEngine") from scratch against the public API and benchmarks
// it next to the Flink model.
#include <cstdio>
#include <memory>

#include "driver/experiment.h"
#include "common/strings.h"
#include "driver/sustainable.h"
#include "engine/window_state.h"
#include "workloads/workloads.h"

using namespace sdps;             // NOLINT
using namespace sdps::workloads;  // NOLINT

namespace {

/// A deliberately simple engine: one source per queue, one global window
/// operator on worker 0, no shuffle, watermark = max event time at ingest.
class ToyEngine : public driver::Sut {
 public:
  std::string name() const override { return "toy-engine"; }

  Status Start(const driver::SutContext& ctx) override {
    ctx_ = ctx;
    for (driver::DriverQueue* queue : ctx.queues) {
      ctx.sim->Spawn(Pipeline(*queue));
    }
    return Status::OK();
  }

 private:
  des::Task<> Pipeline(driver::DriverQueue& queue) {
    cluster::Node& node = ctx_.cluster->worker(0);  // everything on one box
    engine::WindowAssigner assigner({Seconds(8), Seconds(4)});
    engine::AggWindowState state(assigner);
    SimTime max_event = 0;
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& rec = batch[0];
      co_await ctx_.cluster->Send(ctx_.cluster->driver(0), node,
                                  engine::WireBytes(rec));
      rec.ingest_time = ctx_.sim->now();
      co_await node.cpu().Use(8 * rec.weight);  // 8 us/tuple, everything
      state.Add(rec);
      if (rec.event_time > max_event) max_event = rec.event_time;
      for (const auto& out : state.FireUpTo(max_event - Seconds(1))) {
        ctx_.sink->Emit(out);
      }
    }
    for (const auto& out : state.FireUpTo(max_event + Seconds(100))) {
      ctx_.sink->Emit(out);
    }
  }

  driver::SutContext ctx_;
};

}  // namespace

int main() {
  printf("== benchmarking a custom SUT with the paper's driver ==\n\n");

  driver::ExperimentConfig base =
      MakeExperiment(engine::QueryKind::kAggregation, 2, /*total_rate=*/0,
                     Seconds(120));
  driver::SearchConfig search;
  search.initial_rate = 1.0e6;
  search.trial_duration = Seconds(60);

  // The custom engine...
  auto toy = driver::FindSustainableThroughput(
      base, [](const driver::SutContext&) { return std::make_unique<ToyEngine>(); },
      search);
  printf("ToyEngine sustainable throughput:    %s\n",
         FormatRateMps(toy.sustainable_rate).c_str());

  // ...vs the Flink model under the identical driver and judgement.
  auto flink = driver::FindSustainableThroughput(
      base,
      MakeEngineFactory(Engine::kFlink,
                        engine::QueryConfig{engine::QueryKind::kAggregation, {}}),
      search);
  printf("Flink model sustainable throughput:  %s\n",
         FormatRateMps(flink.sustainable_rate).c_str());

  printf(
      "\nthe driver (generators, queues, sink, metrics, search) never\n"
      "changed: complete separation of driver and SUT (paper Sec. III-C).\n");
  return 0;
}
