// Scheduler ordering: the timing wheel plus far store must run events in
// exactly (time, scheduling order), the order of a reference
// std::priority_queue keyed on (time, insertion index), through wheel-span
// boundaries, far-store migration, RunUntil jumps, Stop and large captures.
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "des/simulator.h"

namespace sdps::des {
namespace {

constexpr SimTime kSpan = Simulator::kWheelSpan;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A delay in [0, 2^20] us that lands on +0, inside the wheel, on both sides
// of the wheel span and far beyond it.
SimTime DrawDelay(uint64_t r) {
  const uint64_t pick = r % 100;
  const uint64_t v = r >> 8;
  if (pick < 15) return 0;
  if (pick < 40) return static_cast<SimTime>(1 + v % 63);
  if (pick < 65) return static_cast<SimTime>(64 + v % (kSpan - 64));
  if (pick < 80) return kSpan - 3 + static_cast<SimTime>(v % 7);  // the span edge
  return kSpan + static_cast<SimTime>(v % ((SimTime{1} << 20) - kSpan + 1));
}

// What event `id` does when it runs: reschedule up to two children, and
// sometimes Stop the run. A pure function of (seed, id), so the simulator
// and the reference replay the same generative process.
struct Behavior {
  int children = 0;
  SimTime delay[2] = {0, 0};
  bool stop = false;
  bool large = false;  // carries a capture beyond EventFn's inline buffer
};

Behavior BehaviorOf(uint64_t seed, uint64_t id, uint64_t budget) {
  const uint64_t r = Mix(seed ^ Mix(id));
  Behavior b;
  const uint64_t c = r % 20;
  b.children = id >= budget ? 0 : c < 5 ? 0 : c < 13 ? 1 : 2;
  b.delay[0] = DrawDelay(Mix(r + 1));
  b.delay[1] = DrawDelay(Mix(r + 2));
  b.stop = (r >> 40) % 64 == 0;
  b.large = (r >> 50) % 4 == 0;
  return b;
}

struct Ran {
  SimTime time;
  uint64_t id;
  bool operator==(const Ran&) const = default;
};

// The reference: a binary heap on (time, insertion index) with the
// Simulator's Run*/Step/Stop semantics.
class Reference {
 public:
  Reference(uint64_t seed, uint64_t budget) : seed_(seed), budget_(budget) {}

  void ScheduleAt(SimTime t) { queue_.push({t, next_id_++}); }
  SimTime now() const { return now_; }
  size_t pending() const { return queue_.size(); }
  const std::vector<Ran>& log() const { return log_; }

  bool Step() {
    if (queue_.empty()) return false;
    const auto [t, id] = queue_.top();
    queue_.pop();
    now_ = t;
    log_.push_back({t, id});
    const Behavior b = BehaviorOf(seed_, id, budget_);
    for (int c = 0; c < b.children; ++c) ScheduleAt(now_ + b.delay[c]);
    if (b.stop) stop_ = true;
    return true;
  }
  void RunUntilIdle() {
    stop_ = false;
    while (!stop_ && Step()) {
    }
  }
  void RunUntil(SimTime t) {
    stop_ = false;
    while (!stop_ && !queue_.empty() && queue_.top().first <= t) Step();
    if (!stop_) now_ = t;
  }

 private:
  using Entry = std::pair<SimTime, uint64_t>;
  uint64_t seed_;
  uint64_t budget_;
  SimTime now_ = 0;
  uint64_t next_id_ = 0;
  bool stop_ = false;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<Ran> log_;
};

// The same process on a real Simulator.
class Harness {
 public:
  Harness(uint64_t seed, uint64_t budget) : seed_(seed), budget_(budget) {}

  Simulator& sim() { return sim_; }
  const std::vector<Ran>& log() const { return log_; }
  bool payloads_intact() const { return payloads_intact_; }

  void ScheduleAt(SimTime t) {
    const uint64_t id = next_id_++;
    if (BehaviorOf(seed_, id, budget_).large) {
      std::array<uint64_t, 8> payload;  // 64 bytes: heap-allocated EventFn
      payload.fill(Mix(id));
      sim_.ScheduleAt(t, [this, id, payload] {
        for (const uint64_t word : payload) payloads_intact_ &= word == Mix(id);
        Run(id);
      });
    } else {
      sim_.ScheduleAt(t, [this, id] { Run(id); });
    }
  }

 private:
  void Run(uint64_t id) {
    log_.push_back({sim_.now(), id});
    const Behavior b = BehaviorOf(seed_, id, budget_);
    for (int c = 0; c < b.children; ++c) ScheduleAt(sim_.now() + b.delay[c]);
    if (b.stop) sim_.Stop();
  }

  uint64_t seed_;
  uint64_t budget_;
  uint64_t next_id_ = 0;
  bool payloads_intact_ = true;
  std::vector<Ran> log_;
  Simulator sim_;
};

TEST(SchedulerOrderTest, MatchesPriorityQueueReference) {
  constexpr uint64_t kBudget = 20'000;  // ids past this spawn no children
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Harness got(seed, kBudget);
    Reference want(seed, kBudget);
    const auto schedule = [&](SimTime t) {
      got.ScheduleAt(t);
      want.ScheduleAt(t);
    };
    uint64_t r = Mix(seed * 7919);
    for (int i = 0; i < 64; ++i) schedule(DrawDelay(r = Mix(r)));
    for (int op = 0; op < 400; ++op) {
      r = Mix(r);
      switch (r % 5) {
        case 0: {  // external pushes, some beyond the span
          const int k = 1 + static_cast<int>((r >> 8) % 8);
          for (int i = 0; i < k; ++i) schedule(want.now() + DrawDelay(r = Mix(r)));
          break;
        }
        case 1: {  // a RunUntil jump, often past the span
          const SimTime t = want.now() + DrawDelay(r >> 8) * ((r >> 40) % 3 + 1);
          got.sim().RunUntil(t);
          want.RunUntil(t);
          break;
        }
        case 2: {
          const int k = 1 + static_cast<int>((r >> 8) % 16);
          for (int i = 0; i < k; ++i) ASSERT_EQ(got.sim().Step(), want.Step());
          break;
        }
        case 3:
          got.sim().RunFor(0);
          want.RunUntil(want.now());
          break;
        default:  // resumes after any Stop
          if ((r >> 8) % 4 == 0) {
            got.sim().RunUntilIdle();
            want.RunUntilIdle();
          }
          break;
      }
      ASSERT_EQ(got.sim().now(), want.now()) << "op " << op;
      ASSERT_EQ(got.sim().pending_events(), want.pending()) << "op " << op;
    }
    while (want.pending() > 0) {  // Stop can interrupt the drain: resume
      got.sim().RunUntilIdle();
      want.RunUntilIdle();
    }
    EXPECT_EQ(got.sim().pending_events(), 0u);
    EXPECT_EQ(got.sim().now(), want.now());
    EXPECT_EQ(got.sim().processed_events(), want.log().size());
    ASSERT_GT(want.log().size(), 10'000u);
    ASSERT_EQ(got.log().size(), want.log().size());
    for (size_t i = 0; i < want.log().size(); ++i) {
      ASSERT_EQ(got.log()[i], want.log()[i]) << "event #" << i;
    }
    EXPECT_TRUE(got.payloads_intact());
  }
}

// An event scheduled at least the wheel span ahead waits in the far store;
// one scheduled later for the same time goes straight into the wheel. The
// earlier-scheduled one must still run first.
TEST(SchedulerOrderTest, FarEventRunsBeforeLaterScheduledSameTimeEvent) {
  for (const SimTime at : {kSpan, kSpan + 1, 3 * kSpan + 17}) {
    SCOPED_TRACE(testing::Message() << "at " << at);
    // The clock advances by an event, by a RunUntil jump, and to exactly
    // one microsecond inside the span.
    for (const int advance : {0, 1, 2}) {
      Simulator sim;
      std::vector<int> order;
      sim.ScheduleAt(at, [&] { order.push_back(0); });  // far: at >= now + span
      const SimTime mid = advance == 2 ? at - kSpan + 1 : at - kSpan / 2;
      if (advance == 0) {
        sim.ScheduleAt(mid, [&] { sim.ScheduleAt(at, [&] { order.push_back(1); }); });
      } else {
        sim.RunUntil(mid);
        sim.ScheduleAt(at, [&] { order.push_back(1); });
      }
      sim.RunUntilIdle();
      EXPECT_EQ(order, (std::vector<int>{0, 1})) << "advance " << advance;
      EXPECT_EQ(sim.now(), at);
    }
  }
}

}  // namespace
}  // namespace sdps::des
