// The realtime thread pool: one named OS thread per pipeline stage (the
// wall-clock analogue of the DES cooperative processes), round-robin
// pinned to cores so a run's thread placement — and therefore its cache
// and contention behaviour — is reproducible across invocations.
//
// Not a task-stealing pool: realtime pipelines are static graphs, every
// stage owns its thread for the whole run, so Spawn + JoinAll is the
// entire lifecycle. Each worker's per-thread log tallies are captured at
// exit and folded into the joining thread's tallies, keeping
// obs::ThreadLogMessageCount() deltas exact for the caller even though
// the log traffic happened on pool threads (the TrialPool gets this for
// free by running trials on the caller's thread when jobs=1).
#ifndef SDPS_RT_EXECUTOR_H_
#define SDPS_RT_EXECUTOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sdps::des {
class TimeSource;
}  // namespace sdps::des

namespace sdps::rt {

class Profiler;

class Executor {
 public:
  struct Options {
    /// Pin spawned threads round-robin across CPUs (Linux only; a no-op
    /// elsewhere and under failure — pinning is an optimisation, never a
    /// correctness requirement).
    bool pin_threads = true;
    /// First CPU of the round-robin cycle.
    int first_cpu = 0;
    /// When set, every worker's thread-local obs::Tracer is enabled and
    /// bound to this clock for the worker's lifetime; the spans it records
    /// are captured at worker exit and merged — stamped with the worker's
    /// OS tid — into the joining thread's tracer by JoinAll(). Null (the
    /// default) leaves worker tracers untouched.
    const des::TimeSource* trace_clock = nullptr;
    /// When set, every worker binds its stage (looked up by worker name)
    /// on entry and publishes its final CPU time on exit, so the sampler
    /// attributes thread time without ever probing a dead thread.
    Profiler* profiler = nullptr;
  };

  Executor() : Executor(Options{}) {}
  explicit Executor(Options options);

  /// Joins any still-running workers (prefer an explicit JoinAll so
  /// shutdown ordering is visible at the call site).
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Identifies one spawned worker for a targeted Join().
  using WorkerId = int;

  /// Launches `fn` on a dedicated thread named `name` (visible in
  /// /proc/<pid>/task/*/comm, debuggers, and profilers; truncated to the
  /// kernel's 15-char limit), pinned to the next CPU in the round-robin
  /// cycle. Thread-safe: the rt::Supervisor spawns replacement workers
  /// from its own pool thread while the main thread owns the pipeline.
  WorkerId Spawn(std::string name, std::function<void()> fn);

  /// Joins one worker (which must be about to exit or already exited),
  /// folding its log tallies and trace capture into the calling thread —
  /// the supervisor's path for retiring a crashed incarnation before
  /// spawning its replacement.
  void Join(WorkerId id);

  /// Joins every spawned thread, folding each worker's log tallies into
  /// the calling thread's. Returns when all workers have exited; the
  /// caller is responsible for having closed the rings that make them
  /// exit.
  void JoinAll();

 private:
  struct Worker;
  void JoinWorker(Worker& worker);

  Options options_;
  // Guards threads_ growth: the supervisor thread spawns replacements
  // concurrently with nothing else, but the lock keeps the invariant
  // local instead of protocol-dependent.
  mutable std::mutex mu_;
  // unique_ptr: running threads hold a pointer to their Worker slot, so
  // the slot must not move when the vector grows.
  std::vector<std::unique_ptr<Worker>> threads_;
  int next_cpu_ = 0;
};

}  // namespace sdps::rt

#endif  // SDPS_RT_EXECUTOR_H_
