// Shuffle-fabric end-to-end identity (engine/columnar.h): the shuffle-side
// combiner pre-aggregates records before the link transfer, and the radix
// columnar shuffle replaces the per-record partition loop — neither may
// change a single logical output. Verified here per engine model:
//   * combiner ON vs OFF on the DES backend — exact output equality;
//   * same-seed DES vs rt on the shuffle workload, combiner off AND on —
//     the runtime-duality identity extends to this workload because the
//     generators draw keys from the per-driver seed fork.
// ShuffleGenerator's unit price makes every aggregate a whole tuple count
// (exact in a double under any fold order), so all comparisons are literal
// equality — no FP tolerance anywhere.
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "engines/flink/flink.h"
#include "engines/spark/spark.h"
#include "engines/storm/storm.h"
#include "rt/pipeline.h"
#include "workloads/realtime.h"
#include "workloads/workloads.h"

namespace sdps {
namespace {

using workloads::Engine;

constexpr double kRate = 1e5;              // tuples/s across both sources
constexpr SimTime kDuration = Seconds(8);  // two slides
constexpr uint64_t kSeed = 42;
// Shrunk key space: ShuffleGenerator's 2M keys would make same-key
// collisions within a slide bucket rare at this scale; a few thousand
// keys make the combiner actually merge while keeping the shuffle shape.
constexpr uint64_t kTestKeys = 5000;

driver::SutFactory ShuffleFactory(Engine engine, bool combine) {
  workloads::EngineTuning tuning;
  tuning.shuffle_combine = combine;
  const engine::QueryConfig query{engine::QueryKind::kAggregation, {}};
  switch (engine) {
    case Engine::kFlink: {
      engines::FlinkConfig config = workloads::CalibratedFlink(query, tuning);
      // Same allowance as the runtime-duality identity test: transport
      // races surface as late-drop assertions, not silent multiset diffs.
      config.allowed_lateness = Seconds(4);
      return [config](const driver::SutContext&) { return engines::MakeFlink(config); };
    }
    case Engine::kStorm: {
      engines::StormConfig config = workloads::CalibratedStorm(query, tuning);
      return [config](const driver::SutContext&) { return engines::MakeStorm(config); };
    }
    case Engine::kSpark: {
      engines::SparkConfig config = workloads::CalibratedSpark(query, tuning);
      // Event-time block sealing: combine changes CPU costs, which would
      // otherwise shift arrival-batched block membership (legitimately
      // timing-dependent); sealed blocks make outputs a pure function of
      // the input stream.
      config.deterministic_batching = true;
      return [config](const driver::SutContext&) { return engines::MakeSpark(config); };
    }
  }
  return nullptr;
}

std::vector<engine::OutputRecord> RunDes(Engine engine, bool combine) {
  driver::ExperimentConfig config = workloads::MakeShuffle(2, kRate, kDuration);
  config.generator.num_keys = kTestKeys;
  config.seed = kSeed;
  config.batch = 32;
  config.drain = Seconds(30);  // flush every open window into the sink
  std::vector<engine::OutputRecord> outputs;
  config.output_listener = [&outputs](const engine::OutputRecord& out) {
    outputs.push_back(out);
  };
  const driver::ExperimentResult result =
      driver::RunExperiment(config, ShuffleFactory(engine, combine));
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  return outputs;
}

rt::RtResult RunRt(Engine engine, bool combine, int num_tasks) {
  rt::RtPipelineConfig config =
      workloads::MakeRealtimeShuffle(engine, 2, kRate, kDuration, combine, kSeed);
  config.generator.num_keys = kTestKeys;
  config.num_tasks = num_tasks;
  config.capture_outputs = true;
  config.batch = 32;
  config.pin_threads = false;  // CI runners may forbid affinity calls
  rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.late_dropped_tuples, 0u);
  return result;
}

/// (key, window_end) -> (value, weight); asserts exactly-once firing.
using Canon = std::map<std::pair<uint64_t, SimTime>, std::pair<double, uint64_t>>;

Canon Canonical(const std::vector<engine::OutputRecord>& outs, const char* tag) {
  Canon canon;
  for (const engine::OutputRecord& out : outs) {
    const bool inserted =
        canon.emplace(std::make_pair(out.key, out.window_end),
                      std::make_pair(out.value, out.weight))
            .second;
    EXPECT_TRUE(inserted) << tag << ": (key=" << out.key
                          << ", window_end=" << out.window_end
                          << ") fired more than once";
  }
  return canon;
}

// Unit price: values are whole tuple counts, so the canonical maps must
// compare EQUAL — bit-exact values, no tolerance.
void ExpectIdentical(const Canon& a, const Canon& b, const char* what) {
  EXPECT_EQ(a, b) << what;
  EXPECT_GT(a.size(), 100u) << "degenerate run: too few outputs to mean anything";
}

void CheckCombinerIdentityDes(Engine engine) {
  const Canon off = Canonical(RunDes(engine, false), "combine=off");
  const Canon on = Canonical(RunDes(engine, true), "combine=on");
  ExpectIdentical(off, on, "combiner changed the DES output multiset");
}

void CheckDesRtIdentity(Engine engine, bool combine, int num_tasks = 4) {
  const Canon des = Canonical(RunDes(engine, combine), "DES");
  const Canon rt = Canonical(RunRt(engine, combine, num_tasks).outputs, "rt");
  ExpectIdentical(des, rt, combine ? "DES vs rt diverged (combine on)"
                                   : "DES vs rt diverged (combine off)");
}

// -- Combiner on/off, DES backend --------------------------------------------

TEST(ShuffleE2eTest, FlinkCombinerIdentityDes) {
  CheckCombinerIdentityDes(Engine::kFlink);
}
TEST(ShuffleE2eTest, StormCombinerIdentityDes) {
  CheckCombinerIdentityDes(Engine::kStorm);
}
TEST(ShuffleE2eTest, SparkCombinerIdentityDes) {
  CheckCombinerIdentityDes(Engine::kSpark);
}

// -- Same-seed DES vs rt, combiner off and on --------------------------------

TEST(ShuffleE2eTest, FlinkDesRtIdentityCombineOff) {
  CheckDesRtIdentity(Engine::kFlink, false);
}
TEST(ShuffleE2eTest, FlinkDesRtIdentityCombineOn) {
  CheckDesRtIdentity(Engine::kFlink, true);
}
TEST(ShuffleE2eTest, StormDesRtIdentityCombineOff) {
  CheckDesRtIdentity(Engine::kStorm, false);
}
TEST(ShuffleE2eTest, StormDesRtIdentityCombineOn) {
  CheckDesRtIdentity(Engine::kStorm, true);
}
TEST(ShuffleE2eTest, SparkDesRtIdentityCombineOff) {
  CheckDesRtIdentity(Engine::kSpark, false);
}
TEST(ShuffleE2eTest, SparkDesRtIdentityCombineOn) {
  CheckDesRtIdentity(Engine::kSpark, true);
}

// One task (the shape of shuffle_2m's rt twin): each staging batch becomes
// the task's envelope whole and the combiner folds it there.
TEST(ShuffleE2eTest, FlinkDesRtIdentityCombineOnOneTask) {
  CheckDesRtIdentity(Engine::kFlink, true, 1);
}
TEST(ShuffleE2eTest, StormDesRtIdentityCombineOnOneTask) {
  CheckDesRtIdentity(Engine::kStorm, true, 1);
}
TEST(ShuffleE2eTest, SparkDesRtIdentityCombineOnOneTask) {
  CheckDesRtIdentity(Engine::kSpark, true, 1);
}

// -- Guard rails --------------------------------------------------------------

// The combiner is a data-plane optimisation for aggregation queries; the
// engines must refuse the configs it cannot keep exact rather than drift.
TEST(ShuffleE2eTest, CombineWithRecoveryIsRejected) {
  workloads::EngineTuning tuning;
  tuning.shuffle_combine = true;
  tuning.recovery = true;
  driver::ExperimentConfig config = workloads::MakeShuffle(2, 2e4, Seconds(4));
  config.batch = 32;
  const driver::ExperimentResult result = driver::RunExperiment(
      config, workloads::MakeEngineFactory(
                  Engine::kFlink, {engine::QueryKind::kAggregation, {}}, tuning));
  EXPECT_FALSE(result.failure.ok());
}

TEST(ShuffleE2eTest, RtCombineWithFaultInjectionIsRejected) {
  rt::RtPipelineConfig config =
      workloads::MakeRealtimeShuffle(Engine::kFlink, 2, 2e4, Seconds(2), true);
  config.batch = 32;
  config.pin_threads = false;
  config.faults.Crash("w1", Seconds(1), 0);
  const rt::RtResult result = rt::RunRtPipeline(config);
  EXPECT_FALSE(result.failure.ok());
}

}  // namespace
}  // namespace sdps
