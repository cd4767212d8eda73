// Pinned event order: one small fixed aggregation trial per engine, at
// --batch=1 and --batch=32, must retire exactly the pinned number of DES
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

struct Pinned {
  uint64_t events;
  uint64_t outputs;
  uint64_t digest;
};

Pinned RunTrial(Engine engine, int batch) {
  driver::ExperimentConfig config =
      workloads::MakeExperiment(engine::QueryKind::kAggregation, 2, 3e5, Seconds(20));
  config.batch = batch;
  std::vector<engine::OutputRecord> outs;
  config.output_listener = [&outs](const engine::OutputRecord& o) { outs.push_back(o); };
  uint64_t events = 0;
  const driver::SutFactory inner =
      workloads::MakeEngineFactory(engine, {engine::QueryKind::kAggregation, {}});
  const auto result = driver::RunExperiment(
      config, [&](const driver::SutContext& ctx) -> std::unique_ptr<driver::Sut> {
        return std::make_unique<CountingSut>(inner(ctx), &events);
      });
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  return Pinned{events, outs.size(), CanonicalDigest(std::move(outs))};
}

// The pinned values predate the timing-wheel scheduler, which runs the
// same events in the same order. They hold under every build type and
// sanitizer.
void ExpectPinned(Engine engine, int batch, const Pinned& want) {
  const Pinned got = RunTrial(engine, batch);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.outputs, want.outputs);
  EXPECT_EQ(got.digest, want.digest) << std::hex << "digest 0x" << got.digest;
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

}  // namespace
}  // namespace sdps
