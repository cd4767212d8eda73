#include "driver/experiment.h"

#include <gtest/gtest.h>

#include "driver/sustainable.h"

namespace sdps::driver {
namespace {

/// Test double: pulls from every queue at a fixed aggregate capacity and
/// emits one output per record after a fixed in-system delay.
class FixedCapacitySut : public Sut {
 public:
  FixedCapacitySut(double capacity_tuples_per_sec, SimTime internal_delay = Millis(50),
                   SimTime fail_at = -1)
      : capacity_(capacity_tuples_per_sec),
        internal_delay_(internal_delay),
        fail_at_(fail_at) {}

  std::string name() const override { return "fixed-capacity"; }

  Status Start(const SutContext& ctx) override {
    ctx_ = ctx;
    const double per_queue = capacity_ / static_cast<double>(ctx.queues.size());
    for (DriverQueue* q : ctx.queues) {
      ctx.sim->Spawn(Pull(*q, per_queue));
    }
    if (fail_at_ >= 0) {
      ctx.sim->ScheduleAt(fail_at_, [this] {
        ctx_.report_failure(Status::Aborted("synthetic failure"));
      });
    }
    return Status::OK();
  }

 private:
  des::Task<> Pull(DriverQueue& queue, double tuples_per_sec) {
    engine::RecordBatch batch;
    while (co_await queue.PopBatch(&batch, 1)) {
      engine::Record& rec = batch[0];
      const auto service = static_cast<SimTime>(
          static_cast<double>(rec.weight) / tuples_per_sec * 1e6);
      co_await des::Delay(*ctx_.sim, service);
      rec.ingest_time = ctx_.sim->now();
      engine::OutputRecord out;
      out.max_event_time = rec.event_time;
      out.max_ingest_time = rec.ingest_time;
      out.key = rec.key;
      out.value = rec.value;
      // In-system latency is pipelined, not part of the service time.
      ctx_.sim->Spawn(DeliverAfter(out, internal_delay_));
    }
  }

  des::Task<> DeliverAfter(engine::OutputRecord out, SimTime delay) {
    co_await des::Delay(*ctx_.sim, delay);
    ctx_.sink->Emit(out);
  }

  double capacity_;
  SimTime internal_delay_;
  SimTime fail_at_;
  SutContext ctx_;
};

ExperimentConfig SmallExperiment(double rate) {
  ExperimentConfig config;
  config.cluster.workers = 2;
  config.generator.tuples_per_record = 10;
  config.generator.num_keys = 100;
  config.total_rate = rate;
  config.duration = Seconds(30);
  config.attach_gc = false;
  return config;
}

SutFactory FixedFactory(double capacity, SimTime delay = Millis(50),
                        SimTime fail_at = -1) {
  return [=](const SutContext&) {
    return std::make_unique<FixedCapacitySut>(capacity, delay, fail_at);
  };
}

TEST(ExperimentTest, UnderloadedRunIsSustainable) {
  auto result = RunExperiment(SmallExperiment(50000), FixedFactory(100000));
  EXPECT_TRUE(result.sustainable) << result.verdict;
  EXPECT_TRUE(result.failure.ok());
  EXPECT_NEAR(result.mean_ingest_rate, 50000, 2500);
  EXPECT_GT(result.output_records, 0u);
}

TEST(ExperimentTest, OverloadedRunIsNotSustainable) {
  auto result = RunExperiment(SmallExperiment(200000), FixedFactory(100000));
  EXPECT_FALSE(result.sustainable);
  EXPECT_TRUE(result.failure.ok());  // no hard failure, just backpressure
  // Ingest tops out at the SUT capacity.
  EXPECT_LT(result.mean_ingest_rate, 115000);
}

TEST(ExperimentTest, EventTimeLatencyGrowsUnderOverload) {
  auto result = RunExperiment(SmallExperiment(200000), FixedFactory(100000));
  // Event-time latency keeps growing (queued tuples age), processing-time
  // stays flat (Fig. 7's shape).
  EXPECT_GT(result.event_latency_series.SlopePerSecond(), 0.1);
  EXPECT_LT(result.processing_latency_series.SlopePerSecond(), 0.05);
}

TEST(ExperimentTest, SutFailureAbortsAndClassifies) {
  auto result = RunExperiment(SmallExperiment(50000),
                              FixedFactory(100000, Millis(50), Seconds(10)));
  EXPECT_FALSE(result.sustainable);
  EXPECT_TRUE(result.failure.IsAborted());
  EXPECT_NE(result.verdict.find("synthetic failure"), std::string::npos);
}

TEST(ExperimentTest, LatencyReflectsInternalDelay) {
  auto result =
      RunExperiment(SmallExperiment(20000), FixedFactory(100000, Millis(200)));
  ASSERT_FALSE(result.event_latency.empty());
  // Event latency >= internal delay; processing latency ~ internal delay.
  EXPECT_GE(result.processing_latency.Min(), Millis(200));
  EXPECT_LT(result.processing_latency.Quantile(0.5), Millis(260));
  EXPECT_GE(result.event_latency.Quantile(0.5),
            result.processing_latency.Quantile(0.5));
}

TEST(ExperimentTest, ResourceSeriesPopulated) {
  auto result = RunExperiment(SmallExperiment(50000), FixedFactory(100000));
  ASSERT_EQ(result.worker_cpu_util.size(), 2u);
  EXPECT_FALSE(result.worker_cpu_util[0].empty());
  EXPECT_FALSE(result.backlog_series.empty());
  EXPECT_FALSE(result.ingest_rate_series.empty());
}

TEST(ExperimentTest, RateProfileOverridesTotalRate) {
  ExperimentConfig config = SmallExperiment(1);
  config.rate_profile = StepRate({{0, 40000.0}, {Seconds(15), 80000.0}});
  auto result = RunExperiment(config, FixedFactory(200000));
  EXPECT_TRUE(result.sustainable) << result.verdict;
  const double early = result.ingest_rate_series.MeanInRange(Seconds(2), Seconds(14));
  const double late = result.ingest_rate_series.MeanInRange(Seconds(16), Seconds(29));
  EXPECT_NEAR(early, 40000, 4000);
  EXPECT_NEAR(late, 80000, 8000);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto r1 = RunExperiment(SmallExperiment(50000), FixedFactory(100000));
  auto r2 = RunExperiment(SmallExperiment(50000), FixedFactory(100000));
  EXPECT_EQ(r1.output_records, r2.output_records);
  EXPECT_EQ(r1.event_latency.count(), r2.event_latency.count());
  if (!r1.event_latency.empty()) {
    EXPECT_EQ(r1.event_latency.Quantile(0.5), r2.event_latency.Quantile(0.5));
  }
}

TEST(SustainableSearchTest, ConvergesToKnownCapacity) {
  ExperimentConfig base = SmallExperiment(0);
  SearchConfig search;
  search.initial_rate = 400000;
  search.trial_duration = Seconds(30);
  search.refine_iterations = 4;
  auto result = FindSustainableThroughput(base, FixedFactory(100000), search);
  // The capacity is 100K tuples/s; the search should land within ~15%.
  EXPECT_GT(result.sustainable_rate, 80000);
  EXPECT_LT(result.sustainable_rate, 115000);
  EXPECT_GE(result.trials.size(), 4u);
  // First trial (4x capacity) must have failed.
  EXPECT_FALSE(result.trials.front().sustainable);
}

TEST(SustainableSearchTest, ImmediatelySustainableSkipsBisect) {
  ExperimentConfig base = SmallExperiment(0);
  SearchConfig search;
  search.initial_rate = 50000;
  search.trial_duration = Seconds(20);
  auto result = FindSustainableThroughput(base, FixedFactory(100000), search);
  EXPECT_DOUBLE_EQ(result.sustainable_rate, 50000);
  EXPECT_EQ(result.trials.size(), 1u);
}

TEST(SustainableSearchTest, HopelessWorkloadReturnsZero) {
  ExperimentConfig base = SmallExperiment(0);
  SearchConfig search;
  search.initial_rate = 400000;
  search.trial_duration = Seconds(20);
  search.min_rate = 50000;
  auto result = FindSustainableThroughput(base, FixedFactory(1000), search);
  EXPECT_DOUBLE_EQ(result.sustainable_rate, 0.0);
}

}  // namespace
}  // namespace sdps::driver
