// Determinism contract of the trial-parallel sustainable-throughput
// search: for any jobs value the result must be bit-identical to the
// serial (jobs == 1) walk — same sustainable_rate, same recorded trial
// list with FP-identical fields. Speculated trials the serial walk would
// never have run must not leak into the result.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "driver/sustainable.h"

namespace sdps::driver {
namespace {

/// Deterministic test double: pulls at a fixed aggregate capacity and
/// echoes one output per record (same shape as experiment_test.cc's).
class FixedCapacitySut : public Sut {
 public:
  explicit FixedCapacitySut(double capacity_tuples_per_sec)
      : capacity_(capacity_tuples_per_sec) {}

  std::string name() const override { return "fixed-capacity"; }

  Status Start(const SutContext& ctx) override {
    ctx_ = ctx;
    const double per_queue = capacity_ / static_cast<double>(ctx.queues.size());
    for (DriverQueue* q : ctx.queues) {
      ctx.sim->Spawn(Pull(*q, per_queue));
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
      engine::OutputRecord out;
      out.max_event_time = rec.event_time;
      out.max_ingest_time = ctx_.sim->now();
      out.key = rec.key;
      out.value = rec.value;
      ctx_.sink->Emit(out);
    }
  }

  double capacity_;
  SutContext ctx_;
};

ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.cluster.workers = 2;
  config.generator.tuples_per_record = 10;
  config.generator.num_keys = 100;
  config.duration = Seconds(30);
  config.attach_gc = false;
  return config;
}

SutFactory FixedFactory(double capacity) {
  return [=](const SutContext&) {
    return std::make_unique<FixedCapacitySut>(capacity);
  };
}

SearchConfig BaseSearch() {
  SearchConfig search;
  search.initial_rate = 400000;
  search.trial_duration = Seconds(20);
  search.refine_iterations = 4;
  return search;
}

void ExpectIdenticalResults(const SearchResult& serial, const SearchResult& parallel) {
  // Bit-identical, not approximately equal: the parallel walk must use the
  // serial walk's exact floating-point expressions for every probed rate.
  EXPECT_EQ(serial.sustainable_rate, parallel.sustainable_rate);
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (size_t i = 0; i < serial.trials.size(); ++i) {
    const Trial& s = serial.trials[i];
    const Trial& p = parallel.trials[i];
    EXPECT_EQ(s.rate, p.rate) << "trial " << i;
    EXPECT_EQ(s.sustainable, p.sustainable) << "trial " << i;
    EXPECT_EQ(s.verdict, p.verdict) << "trial " << i;
    EXPECT_EQ(s.mean_ingest_rate, p.mean_ingest_rate) << "trial " << i;
    EXPECT_EQ(s.hard_limit_hit, p.hard_limit_hit) << "trial " << i;
    EXPECT_EQ(s.final_backlog, p.final_backlog) << "trial " << i;
    EXPECT_EQ(s.peak_watermark_lag_s, p.peak_watermark_lag_s) << "trial " << i;
    EXPECT_EQ(s.backlog_slope, p.backlog_slope) << "trial " << i;
    EXPECT_EQ(s.degraded, p.degraded) << "trial " << i;
    EXPECT_EQ(s.attempts, p.attempts) << "trial " << i;
  }
}

SearchResult RunWithJobs(double capacity, int jobs, SearchConfig search) {
  search.jobs = jobs;
  return FindSustainableThroughput(SmallExperiment(), FixedFactory(capacity), search);
}

TEST(ParallelSearchTest, LadderPlusBisectionMatchesSerialBitForBit) {
  const SearchConfig search = BaseSearch();
  const SearchResult serial = RunWithJobs(100000, 1, search);
  // Sanity: exercises both the descending ladder and the bisection phase.
  ASSERT_GE(serial.trials.size(), 4u);
  ASSERT_FALSE(serial.trials.front().sustainable);
  for (int jobs : {2, 3, 8}) {
    ExpectIdenticalResults(serial, RunWithJobs(100000, jobs, search));
  }
}

TEST(ParallelSearchTest, ImmediatelySustainableMatchesSerial) {
  SearchConfig search = BaseSearch();
  search.initial_rate = 50000;
  const SearchResult serial = RunWithJobs(100000, 1, search);
  ASSERT_EQ(serial.trials.size(), 1u);
  ExpectIdenticalResults(serial, RunWithJobs(100000, 8, search));
}

TEST(ParallelSearchTest, HopelessWorkloadMatchesSerial) {
  SearchConfig search = BaseSearch();
  search.min_rate = 50000;
  const SearchResult serial = RunWithJobs(1000, 1, search);
  ASSERT_EQ(serial.sustainable_rate, 0.0);
  ExpectIdenticalResults(serial, RunWithJobs(1000, 8, search));
}

TEST(ParallelSearchTest, DeepLadderMatchesSerial) {
  // Start far above capacity so the ladder descends many rungs and the
  // speculative waves overshoot past the first sustainable rung.
  SearchConfig search = BaseSearch();
  search.initial_rate = 3.2e6;
  search.decrease_factor = 0.7;
  const SearchResult serial = RunWithJobs(100000, 1, search);
  ASSERT_GE(serial.trials.size(), 6u);
  for (int jobs : {2, 5, 8}) {
    ExpectIdenticalResults(serial, RunWithJobs(100000, jobs, search));
  }
}

}  // namespace
}  // namespace sdps::driver
