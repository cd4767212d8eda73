// Runtime-duality identity: a same-seed workload produces the same LOGICAL
// outputs on the DES backend (simulated time, modeled cluster) and the rt
// backend (real threads, wall-clock time). Compared per engine model, for
// both queries:
//   * the multiset of (key, window_end, weight) — exact;
//   * aggregation values — equal up to FP summation order (the two
//     backends merge per-key contributions in different orders);
//   * join values — exact (no summation, each output carries one
//     purchase's price);
//   * exactly-once accounting: every (key, window_end) fires exactly once
//     for the aggregation query on both backends.
// Timings (latency, rates) are intentionally NOT compared: they are the
// backend's own (DESIGN.md §6).
//
// Preconditions the test pins down loudly instead of letting them surface
// as mysterious diffs: in-order input (max_event_lag = 0 is the generator
// default) and zero late-dropped tuples on either backend.
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "driver/experiment.h"
#include "engines/flink/flink.h"
#include "engines/spark/spark.h"
#include "engines/storm/storm.h"
#include "gtest/gtest.h"
#include "rt/pipeline.h"
#include "workloads/realtime.h"
#include "workloads/workloads.h"

namespace sdps {
namespace {

using workloads::Engine;

constexpr double kRate = 1e5;                // tuples/s across both sources
constexpr SimTime kDuration = Seconds(20);   // horizon: several 4s slides
constexpr uint64_t kSeed = 42;

driver::SutFactory IdentityFactory(Engine engine, engine::QueryConfig query) {
  switch (engine) {
    case Engine::kFlink: {
      engines::FlinkConfig config = workloads::CalibratedFlink(query);
      // Generous lateness so any watermark/record race in the simulated
      // transport shows up as the zero-drop assertion failing, not as a
      // silently different output multiset.
      config.allowed_lateness = Seconds(4);
      return [config](const driver::SutContext&) { return engines::MakeFlink(config); };
    }
    case Engine::kStorm: {
      engines::StormConfig config = workloads::CalibratedStorm(query);
      return [config](const driver::SutContext&) { return engines::MakeStorm(config); };
    }
    case Engine::kSpark: {
      engines::SparkConfig config = workloads::CalibratedSpark(query);
      // Event-time bucket membership instead of arrival-time batching —
      // the mode whose outputs are a pure function of the input stream.
      config.deterministic_batching = true;
      return [config](const driver::SutContext&) { return engines::MakeSpark(config); };
    }
  }
  return nullptr;
}

struct DesRun {
  std::vector<engine::OutputRecord> outputs;
  uint64_t late_dropped = 0;
};

DesRun RunDes(Engine engine, engine::QueryKind kind) {
  driver::ExperimentConfig config = workloads::MakeExperiment(kind, 2, kRate, kDuration);
  config.seed = kSeed;
  // Extra simulated time past the horizon so close cascades and final
  // watermarks flush every open window into the sink.
  config.drain = Seconds(30);
  DesRun run;
  config.output_listener = [&run](const engine::OutputRecord& out) {
    run.outputs.push_back(out);
  };
  const driver::ExperimentResult result =
      driver::RunExperiment(config, IdentityFactory(engine, {kind, {}}));
  const auto it = result.engine_series.find("late_dropped_tuples");
  if (it != result.engine_series.end() && !it->second.samples().empty()) {
    run.late_dropped = static_cast<uint64_t>(it->second.samples().back().value);
  }
  return run;
}

rt::RtResult RunRt(Engine engine, engine::QueryKind kind, int num_tasks,
                   int batch = 32) {
  rt::RtPipelineConfig config =
      workloads::MakeRealtime(engine, kind, 2, kRate, kDuration, kSeed);
  config.capture_outputs = true;
  config.num_tasks = num_tasks;
  config.batch = batch;
  config.pin_threads = false;  // CI runners may forbid affinity calls
  return rt::RunRtPipeline(config);
}

// -- Canonical forms ---------------------------------------------------------

using AggKey = std::pair<uint64_t, SimTime>;  // (key, window_end)
struct AggValue {
  double value = 0;
  uint64_t weight = 0;
};

/// Aggregation outputs keyed by (key, window_end); asserts each fires
/// exactly once (the exactly-once accounting of the duality contract).
std::map<AggKey, AggValue> CanonicalAgg(const std::vector<engine::OutputRecord>& outs,
                                        const char* backend) {
  std::map<AggKey, AggValue> canon;
  for (const engine::OutputRecord& out : outs) {
    const auto [it, inserted] =
        canon.emplace(AggKey{out.key, out.window_end}, AggValue{out.value, out.weight});
    EXPECT_TRUE(inserted) << backend << ": (key=" << out.key
                          << ", window_end=" << out.window_end
                          << ") fired more than once";
  }
  return canon;
}

/// Join outputs as a sorted multiset of (key, window_end, weight, value) —
/// values are exact (each output carries one purchase's price).
std::vector<std::tuple<uint64_t, SimTime, uint64_t, double>> CanonicalJoin(
    const std::vector<engine::OutputRecord>& outs) {
  std::vector<std::tuple<uint64_t, SimTime, uint64_t, double>> canon;
  canon.reserve(outs.size());
  for (const engine::OutputRecord& out : outs) {
    canon.emplace_back(out.key, out.window_end, out.weight, out.value);
  }
  std::sort(canon.begin(), canon.end());
  return canon;
}

void ExpectNear(double a, double b, uint64_t key, SimTime window_end) {
  const double tol = 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, tol) << "value mismatch at key=" << key
                         << " window_end=" << window_end;
}

void CheckAggIdentity(Engine engine, int batch = 32, int num_tasks = 4) {
  const DesRun des = RunDes(engine, engine::QueryKind::kAggregation);
  const rt::RtResult rt =
      RunRt(engine, engine::QueryKind::kAggregation, num_tasks, batch);
  ASSERT_EQ(des.late_dropped, 0u) << "DES run dropped late tuples";
  ASSERT_EQ(rt.late_dropped_tuples, 0u) << "rt run dropped late tuples";
  ASSERT_GT(des.outputs.size(), 0u);
  const auto des_canon = CanonicalAgg(des.outputs, "DES");
  const auto rt_canon = CanonicalAgg(rt.outputs, "rt");
  ASSERT_EQ(des_canon.size(), rt_canon.size());
  auto d = des_canon.begin();
  auto r = rt_canon.begin();
  for (; d != des_canon.end(); ++d, ++r) {
    ASSERT_EQ(d->first, r->first)
        << "window/key sets diverge at (key=" << d->first.first
        << ", window_end=" << d->first.second << ")";
    EXPECT_EQ(d->second.weight, r->second.weight);
    ExpectNear(d->second.value, r->second.value, d->first.first, d->first.second);
  }
}

void CheckJoinIdentity(Engine engine, int batch = 32, int num_tasks = 4) {
  const DesRun des = RunDes(engine, engine::QueryKind::kJoin);
  const rt::RtResult rt =
      RunRt(engine, engine::QueryKind::kJoin, num_tasks, batch);
  ASSERT_EQ(des.late_dropped, 0u) << "DES run dropped late tuples";
  ASSERT_EQ(rt.late_dropped_tuples, 0u) << "rt run dropped late tuples";
  ASSERT_GT(des.outputs.size(), 0u);
  EXPECT_EQ(CanonicalJoin(des.outputs), CanonicalJoin(rt.outputs));
}

// -- Aggregation query, all three engine models ------------------------------

TEST(RtIdentityTest, FlinkAggregation) { CheckAggIdentity(Engine::kFlink); }
TEST(RtIdentityTest, StormAggregation) { CheckAggIdentity(Engine::kStorm); }
TEST(RtIdentityTest, SparkAggregation) { CheckAggIdentity(Engine::kSpark); }

// -- Join query, all three engine models -------------------------------------

TEST(RtIdentityTest, FlinkJoin) { CheckJoinIdentity(Engine::kFlink); }
TEST(RtIdentityTest, StormJoin) { CheckJoinIdentity(Engine::kStorm); }
TEST(RtIdentityTest, SparkJoin) { CheckJoinIdentity(Engine::kSpark); }

// -- Batch 1: the rt source stages and scatters a batch of one ---------------

TEST(RtIdentityTest, FlinkAggregationBatch1) { CheckAggIdentity(Engine::kFlink, 1); }
TEST(RtIdentityTest, StormAggregationBatch1) { CheckAggIdentity(Engine::kStorm, 1); }
TEST(RtIdentityTest, SparkAggregationBatch1) { CheckAggIdentity(Engine::kSpark, 1); }
TEST(RtIdentityTest, FlinkJoinBatch1) { CheckJoinIdentity(Engine::kFlink, 1); }

// -- One task: every staging batch becomes the task's envelope whole ---------

TEST(RtIdentityTest, FlinkAggregationOneTask) {
  CheckAggIdentity(Engine::kFlink, 32, 1);
}
TEST(RtIdentityTest, StormAggregationOneTask) {
  CheckAggIdentity(Engine::kStorm, 32, 1);
}
TEST(RtIdentityTest, SparkAggregationOneTask) {
  CheckAggIdentity(Engine::kSpark, 32, 1);
}
TEST(RtIdentityTest, FlinkAggregationBatch1OneTask) {
  CheckAggIdentity(Engine::kFlink, 1, 1);
}
TEST(RtIdentityTest, StormAggregationBatch1OneTask) {
  CheckAggIdentity(Engine::kStorm, 1, 1);
}
TEST(RtIdentityTest, SparkAggregationBatch1OneTask) {
  CheckAggIdentity(Engine::kSpark, 1, 1);
}
TEST(RtIdentityTest, FlinkJoinOneTask) { CheckJoinIdentity(Engine::kFlink, 32, 1); }
TEST(RtIdentityTest, StormJoinOneTask) { CheckJoinIdentity(Engine::kStorm, 32, 1); }
TEST(RtIdentityTest, SparkJoinOneTask) { CheckJoinIdentity(Engine::kSpark, 32, 1); }

// -- rt-internal invariances -------------------------------------------------

// The output multiset must not depend on the task-thread count (keys are
// wholly owned by one task at any partition count). One task is the
// source's whole-batch path; 2 and 5 scatter every staging batch.
TEST(RtIdentityTest, TaskCountInvariance) {
  const rt::RtResult a = RunRt(Engine::kFlink, engine::QueryKind::kAggregation, 2);
  const auto ca = CanonicalAgg(a.outputs, "tasks=2");
  for (const int tasks : {1, 5}) {
    const rt::RtResult b =
        RunRt(Engine::kFlink, engine::QueryKind::kAggregation, tasks);
    const std::string tag = "tasks=" + std::to_string(tasks);
    const auto cb = CanonicalAgg(b.outputs, tag.c_str());
    ASSERT_EQ(ca.size(), cb.size()) << tag;
    auto ia = ca.begin();
    auto ib = cb.begin();
    for (; ia != ca.end(); ++ia, ++ib) {
      ASSERT_EQ(ia->first, ib->first) << tag;
      EXPECT_EQ(ia->second.weight, ib->second.weight) << tag;
      ExpectNear(ia->second.value, ib->second.value, ia->first.first, ia->first.second);
    }
  }
}

// Paced and unpaced runs emit the same records (event times come from the
// planned schedule), so their outputs are identical too. Short horizon:
// the paced run takes its duration in real time.
TEST(RtIdentityTest, PacingInvariance) {
  rt::RtPipelineConfig config = workloads::MakeRealtime(
      Engine::kFlink, engine::QueryKind::kAggregation, 2, 5e4, Seconds(5), kSeed);
  config.capture_outputs = true;
  config.batch = 32;
  config.pin_threads = false;
  const rt::RtResult unpaced = rt::RunRtPipeline(config);
  config.paced = true;
  const rt::RtResult paced = rt::RunRtPipeline(config);
  EXPECT_EQ(unpaced.input_records, paced.input_records);
  const auto cu = CanonicalAgg(unpaced.outputs, "unpaced");
  const auto cp = CanonicalAgg(paced.outputs, "paced");
  ASSERT_EQ(cu.size(), cp.size());
  auto iu = cu.begin();
  auto ip = cp.begin();
  for (; iu != cu.end(); ++iu, ++ip) {
    ASSERT_EQ(iu->first, ip->first);
    EXPECT_EQ(iu->second.weight, ip->second.weight);
    ExpectNear(iu->second.value, ip->second.value, iu->first.first, iu->first.second);
  }
}

}  // namespace
}  // namespace sdps
