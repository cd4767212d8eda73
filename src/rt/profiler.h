// The realtime runtime profiler: one sampler thread that periodically
// snapshots every SPSC ring's occupancy and every pipeline stage's
// thread CPU time (CLOCK_THREAD_CPUTIME_ID via pthread_getcpuclockid),
// combined at Stop() with the stages' own push-block / pop-wait tallies
// into a per-stage stall/compute/idle breakdown:
//
//   wall    = thread lifetime (bind → finish)
//   compute = CPU seconds actually charged to the thread
//   stall   = wall seconds blocked pushing into a full downstream ring
//   wait    = wall seconds waiting to pop from empty upstream rings
//   idle    = max(0, wall − compute − stall − wait)
//
// Caveat worth knowing when reading the numbers: the ring's backoff
// spins 64 times before it naps, so the first ~µs of every stall/wait
// interval is ALSO charged to compute — on a saturated pipeline compute
// slightly overstates useful work. The breakdown is for locating the bottleneck
// stage, not for accounting identities.
//
// The hot path stays cheap: workers bump plain atomics (relaxed) that
// the sampler reads; the sampler owns all syscalls. Overhead budget is
// <2% of pipeline throughput at the default 10 ms cadence — enforced by
// the rt_profiler_overhead ratio floor in BENCH_kernel.json.
//
// Thread-exit safety: a worker publishes its final CPU time and sets
// `done` (release) in FinishCurrentThread() before returning, so the
// sampler never needs a live clockid from a dead thread; a racing
// clock_gettime on a stale clockid fails with EINVAL and is skipped.
#ifndef SDPS_RT_PROFILER_H_
#define SDPS_RT_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/time_util.h"

namespace sdps::rt {

class Profiler {
 public:
  struct Options {
    /// Sampling cadence, wall microseconds.
    SimTime period = Millis(10);
    /// Mirror each sample into obs::Registry::Default() gauges
    /// (rt.ring.occupancy{ring=...}, rt.stage.cpu_s{stage=...}, ...).
    bool update_registry = true;
  };

  /// Per-stage hot-path tallies, bumped by the owning worker thread
  /// (relaxed atomics; the sampler and Stop() read them).
  struct StageCounters {
    std::atomic<int64_t> blocked_us{0};   // wall µs blocked in ring Push
    std::atomic<int64_t> pop_wait_us{0};  // wall µs waiting in PopAny
    std::atomic<uint64_t> records{0};     // records through the stage
  };

  struct StageReport {
    std::string name;
    double wall_s = 0;     // bind → finish (or profiler stop)
    double compute_s = 0;  // thread CPU seconds
    double stall_s = 0;    // blocked pushing downstream
    double wait_s = 0;     // waiting on empty upstream rings
    double idle_s = 0;     // max(0, wall − compute − stall − wait)
    uint64_t records = 0;
  };
  struct RingReport {
    std::string name;
    size_t capacity = 0;
    double mean_occupancy = 0;  // averaged over samples
    size_t max_occupancy = 0;
  };
  struct Report {
    double duration_s = 0;  // Start() → Stop()
    int64_t samples = 0;
    std::vector<StageReport> stages;
    std::vector<RingReport> rings;
  };

  Profiler();  // default options
  explicit Profiler(Options options);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  /// Stops the sampler if still running.
  ~Profiler();

  /// Registers a stage and returns its counters. Main thread, before
  /// Start() — the returned pointer is stable for the profiler's life.
  StageCounters* AddStage(const std::string& name);

  /// Registers a ring to sample. `occupancy` is called from the sampler
  /// thread (SpscRing::SizeApprox is safe). Main thread, before Start().
  void AddRing(const std::string& name, size_t capacity,
               std::function<size_t()> occupancy);

  /// Launches the sampler thread. Stages/rings are frozen from here on.
  void Start();

  /// Called by the worker thread owning stage `name`, once, after spawn:
  /// captures its kernel tid, CPU clock, and start wall time.
  void BindCurrentThread(const std::string& name);

  /// Called by the same worker right before it exits: publishes the final
  /// CPU time so the sampler and Stop() never probe a dead thread.
  void FinishCurrentThread(const std::string& name);

  /// Stops and joins the sampler (idempotent; safe to race with the
  /// destructor) and returns the breakdown. Call after the pipeline's
  /// JoinAll so every stage has finished. Repeat calls return the same
  /// report.
  Report Stop();

  bool running() const { return sampler_.joinable(); }

 private:
  struct Stage;
  struct Ring;

  void SampleOnce();
  Report BuildReport(int64_t stop_wall_us) const;
  Stage* FindStage(const std::string& name);

  Options options_;
  bool started_ = false;
  bool stopped_ = false;
  int64_t start_wall_us_ = 0;
  std::atomic<int64_t> samples_{0};
  // deque: worker threads hold Stage pointers, so slots must not move.
  std::deque<Stage> stages_;
  std::deque<Ring> rings_;
  std::jthread sampler_;
  Report report_;  // cached by the first Stop()
};

}  // namespace sdps::rt

#endif  // SDPS_RT_PROFILER_H_
