// Pinned event order: one small fixed aggregation and join trial per
// engine, at --batch=1 and --batch=32 (plus Flink with checkpoint barriers,
// with and without recovery), must retire exactly the pinned number of DES
// events and emit exactly the pinned canonical output digest. A kernel
// change (scheduler, link, resource, channel) that alters which events run
// or the order they run in moves one of the two and fails here, instead of
// surfacing later as a figure-CSV diff. When a change moves them on
// purpose, root-cause the difference before re-pinning.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "workloads/workloads.h"

namespace sdps {
namespace {

using workloads::Engine;

// Forwards to the engine and reads the simulator's event count when the
// runner stops it, after the horizon.
class CountingSut : public driver::Sut {
 public:
  CountingSut(std::unique_ptr<driver::Sut> inner, uint64_t* events)
      : inner_(std::move(inner)), events_(events) {}
  std::string name() const override { return inner_->name(); }
  Status Start(const driver::SutContext& ctx) override {
    sim_ = ctx.sim;
    return inner_->Start(ctx);
  }
  void Stop() override {
    inner_->Stop();
    *events_ = sim_->processed_events();
  }

 private:
  std::unique_ptr<driver::Sut> inner_;
  uint64_t* events_;
  des::Simulator* sim_ = nullptr;
};

uint64_t Mix(uint64_t k) {
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

// Order-independent digest of every output field the engines set from
// simulated time or data: the outputs are sorted, then chained.
uint64_t CanonicalDigest(std::vector<engine::OutputRecord> outs) {
  const auto fields = [](const engine::OutputRecord& o) {
    uint64_t value_bits;
    std::memcpy(&value_bits, &o.value, sizeof(value_bits));
    return std::make_tuple(o.key, o.window_end, o.max_event_time, o.max_ingest_time,
                           value_bits, o.weight);
  };
  std::sort(outs.begin(), outs.end(),
            [&](const engine::OutputRecord& a, const engine::OutputRecord& b) {
              return fields(a) < fields(b);
            });
  uint64_t h = outs.size();
  for (const engine::OutputRecord& o : outs) {
    const auto [key, window_end, max_event, max_ingest, value_bits, weight] = fields(o);
    for (const uint64_t word :
         {key, static_cast<uint64_t>(window_end), static_cast<uint64_t>(max_event),
          static_cast<uint64_t>(max_ingest), value_bits, weight}) {
      h = Mix(h ^ word);
    }
  }
  return h;
}

// Digest of every worker's CPU-utilisation series (sample times and value
// bits): the simulated CPU charges, which outputs do not carry.
uint64_t CpuDigest(const std::vector<driver::TimeSeries>& series) {
  uint64_t h = series.size();
  for (const driver::TimeSeries& worker : series) {
    for (const auto& sample : worker.samples()) {
      uint64_t value_bits;
      std::memcpy(&value_bits, &sample.value, sizeof(value_bits));
      h = Mix(h ^ static_cast<uint64_t>(sample.time));
      h = Mix(h ^ value_bits);
    }
  }
  return h;
}

struct Pinned {
  uint64_t events;
  uint64_t outputs;
  uint64_t digest;
  uint64_t cpu_digest = 0;  // 0: not pinned
};

// One trial's shape beyond engine and batch size.
struct TrialSpec {
  engine::QueryKind kind = engine::QueryKind::kAggregation;
  double rate = 3e5;
  // Flink checkpoint barrier cadence (0 = no barriers). With `recovery`,
  // each barrier also snapshots task state and commits the sink.
  SimTime checkpoint_interval = 0;
  bool recovery = false;
  // Spark's inverse reduce: a running per-key aggregate that adds each
  // job's partial and subtracts the one leaving the window.
  bool spark_inverse_reduce = false;
  // Crashes worker w1 at 8 s for 2 s (with `recovery`, the engine replays
  // or restores what the crash lost).
  bool crash = false;
  // Source-side combiner: batched aggregation sources pre-aggregate each
  // popped run into per-(key, slide-bucket) partials before the shuffle.
  bool shuffle_combine = false;
};

Pinned RunTrial(Engine engine, int batch, const TrialSpec& spec) {
  driver::ExperimentConfig config =
      workloads::MakeExperiment(spec.kind, 2, spec.rate, Seconds(20));
  config.batch = batch;
  if (spec.crash) config.faults.Crash("w1", Seconds(8), Seconds(2));
  std::vector<engine::OutputRecord> outs;
  config.output_listener = [&outs](const engine::OutputRecord& o) { outs.push_back(o); };
  uint64_t events = 0;
  const engine::QueryConfig query{spec.kind, {}};
  workloads::EngineTuning tuning;
  tuning.spark_inverse_reduce = spec.spark_inverse_reduce;
  tuning.recovery = spec.recovery;
  tuning.shuffle_combine = spec.shuffle_combine;
  driver::SutFactory inner = workloads::MakeEngineFactory(engine, query, tuning);
  if (spec.checkpoint_interval > 0) {
    engines::FlinkConfig flink = workloads::CalibratedFlink(query, tuning);
    flink.checkpoint_interval = spec.checkpoint_interval;
    inner = [flink](const driver::SutContext&) { return engines::MakeFlink(flink); };
  }
  const auto result = driver::RunExperiment(
      config, [&](const driver::SutContext& ctx) -> std::unique_ptr<driver::Sut> {
        return std::make_unique<CountingSut>(inner(ctx), &events);
      });
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  return Pinned{events, outs.size(), CanonicalDigest(std::move(outs)),
                CpuDigest(result.worker_cpu_util)};
}

// The aggregation values predate the timing-wheel scheduler, which runs
// the same events in the same order; the join and checkpoint values
// predate Flink's single window task. They hold under every build type
// and sanitizer.
void ExpectPinned(Engine engine, int batch, const Pinned& want,
                  const TrialSpec& spec = {}) {
  const Pinned got = RunTrial(engine, batch, spec);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.outputs, want.outputs);
  EXPECT_EQ(got.digest, want.digest) << std::hex << "digest 0x" << got.digest;
  if (want.cpu_digest != 0) {
    EXPECT_EQ(got.cpu_digest, want.cpu_digest)
        << std::hex << "cpu digest 0x" << got.cpu_digest;
  }
}

TEST(PinnedTrialTest, FlinkBatch1) {
  ExpectPinned(Engine::kFlink, 1, {571275, 3762, 0x04ac0c48dab3792d});
}
TEST(PinnedTrialTest, FlinkBatch32) {
  ExpectPinned(Engine::kFlink, 32, {572317, 3762, 0x4e53e2bb9850865c});
}
TEST(PinnedTrialTest, StormBatch1) {
  ExpectPinned(Engine::kStorm, 1, {565407, 3762, 0x3f4297d353d8ce91});
}
TEST(PinnedTrialTest, StormBatch32) {
  ExpectPinned(Engine::kStorm, 32, {558829, 3762, 0xa5718dc9549da0f4});
}
TEST(PinnedTrialTest, SparkBatch1) {
  ExpectPinned(Engine::kSpark, 1, {403668, 3758, 0x88934909fcf8afc4});
}
TEST(PinnedTrialTest, SparkBatch32) {
  ExpectPinned(Engine::kSpark, 32, {381628, 3759, 0xb800d2c185638718});
}

// The shuffle-side combiner at --batch=32: each spout/source run crosses
// the shuffle as per-(key, slide-bucket) partials, so the serde, link and
// channel events follow the combined run, not the raw one.
constexpr TrialSpec kCombine{.shuffle_combine = true};

TEST(PinnedTrialTest, FlinkCombineBatch32) {
  ExpectPinned(Engine::kFlink, 32, {574273, 3762, 0x1326bbcd659aefd9}, kCombine);
}
TEST(PinnedTrialTest, StormCombineBatch32) {
  ExpectPinned(Engine::kStorm, 32, {572809, 3762, 0x1326bbcd659aefd9}, kCombine);
}

// Spark's inverse reduce keeps one running aggregate per reduce partition
// and evicts each job's partial once it leaves the window: the trial's
// windows fill and slide, so keys both join and leave the running state.
// The value predates the running aggregate's move from std::unordered_map
// to GroupedKeyMap. The CPU digest covers what the outputs cannot show:
// the live-key count scales each window's emission charge.
TEST(PinnedTrialTest, SparkInverseReduceBatch1) {
  ExpectPinned(Engine::kSpark, 1,
               {403676, 3758, 0x618daedabcb0200e, 0x24357dc142b6a90d},
               {engine::QueryKind::kAggregation, 3e5, 0, false, true});
}

// The join at a rate every engine sustains without failure (the naive
// Storm join bolt included).
constexpr TrialSpec kJoin{engine::QueryKind::kJoin, 1e5};

TEST(PinnedTrialTest, FlinkJoinBatch1) {
  ExpectPinned(Engine::kFlink, 1, {191660, 614, 0x0d44e799d305e346}, kJoin);
}
TEST(PinnedTrialTest, FlinkJoinBatch32) {
  ExpectPinned(Engine::kFlink, 32, {191625, 614, 0x0d44e799d305e346}, kJoin);
}
TEST(PinnedTrialTest, StormJoinBatch1) {
  ExpectPinned(Engine::kStorm, 1, {417308, 614, 0xcccb1de6878dbafa}, kJoin);
}
TEST(PinnedTrialTest, StormJoinBatch32) {
  ExpectPinned(Engine::kStorm, 32, {330128, 614, 0xd4e688a76a998a7f}, kJoin);
}
TEST(PinnedTrialTest, SparkJoinBatch1) {
  ExpectPinned(Engine::kSpark, 1, {140650, 607, 0xe30fdf86612bd9f0}, kJoin);
}
TEST(PinnedTrialTest, SparkJoinBatch32) {
  ExpectPinned(Engine::kSpark, 32, {139838, 607, 0xbe1dab249d5752a7}, kJoin);
}

// Flink with checkpoint barriers every 2 s: every window task takes the
// barrier/snapshot branch about ten times per trial. Without recovery the
// snapshot only charges CPU; with it, each barrier also copies the task's
// window state into the pending checkpoint and commits the sink.
TEST(PinnedTrialTest, FlinkAggCheckpointBatch1) {
  ExpectPinned(Engine::kFlink, 1, {570602, 3762, 0x04ac0c48dab3792d},
               {engine::QueryKind::kAggregation, 3e5, Seconds(2)});
}
TEST(PinnedTrialTest, FlinkJoinCheckpointBatch1) {
  ExpectPinned(Engine::kFlink, 1, {190875, 614, 0x0d44e799d305e346},
               {engine::QueryKind::kJoin, 1e5, Seconds(2)});
}
TEST(PinnedTrialTest, FlinkAggRecoveryBatch32) {
  ExpectPinned(Engine::kFlink, 32, {571077, 3762, 0x4e53e2bb9850865c},
               {engine::QueryKind::kAggregation, 3e5, Seconds(2), true});
}
TEST(PinnedTrialTest, FlinkJoinRecoveryBatch32) {
  ExpectPinned(Engine::kFlink, 32, {190216, 614, 0x0d44e799d305e346},
               {engine::QueryKind::kJoin, 1e5, Seconds(2), true});
}

// Storm at-least-once with one worker crash: the acker acks tuples behind
// the broadcast watermarks, the restart wipes the crashed worker's bolt
// state and heap, and the driver queues replay every unacked tuple.
TEST(PinnedTrialTest, StormAggRecoveryBatch32) {
  ExpectPinned(Engine::kStorm, 32, {288737, 3278, 0x69110c1fcafe4a6c, 0x2bf81336c0f38ee5},
               {engine::QueryKind::kAggregation, 3e5, 0, true, false, true});
}

}  // namespace
}  // namespace sdps
