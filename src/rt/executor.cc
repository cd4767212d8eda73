#include "rt/executor.h"

#include <thread>
#include <utility>

#include "common/check.h"
#include "des/time_source.h"
#include "obs/flight_recorder.h"
#include "obs/log_bridge.h"
#include "obs/trace.h"
#include "rt/profiler.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace sdps::rt {

namespace {

void PinToCpu(std::thread& thread, int cpu) {
#ifdef __linux__
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % n, &set);
  // Best-effort: failure (e.g. restricted affinity mask in a container)
  // leaves the thread floating, which is correct, just less reproducible.
  pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)cpu;
#endif
}

void NameThread(std::thread& thread, const std::string& name) {
#ifdef __linux__
  pthread_setname_np(thread.native_handle(), name.substr(0, 15).c_str());
#else
  (void)thread;
  (void)name;
#endif
}

}  // namespace

struct Executor::Worker {
  std::thread thread;
  // Written by the worker right before exiting, read after join — the
  // join itself synchronizes, no atomics needed.
  obs::ThreadLogCounts log_delta;
  // Spans the worker recorded into its thread-local tracer (when
  // Options::trace_clock is set), stamped with its OS tid.
  obs::Tracer::Capture trace_delta;
  bool traced = false;
};

Executor::Executor(Options options)
    : options_(options), next_cpu_(options.first_cpu) {}

Executor::~Executor() { JoinAll(); }

Executor::WorkerId Executor::Spawn(std::string name, std::function<void()> fn) {
  SDPS_CHECK(fn != nullptr);
  Worker* worker = nullptr;
  WorkerId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<Worker>());
    worker = threads_.back().get();
    id = static_cast<WorkerId>(threads_.size()) - 1;
  }
  const des::TimeSource* trace_clock = options_.trace_clock;
  Profiler* profiler = options_.profiler;
  worker->thread =
      std::thread([worker, trace_clock, profiler, name, fn = std::move(fn)] {
        obs::FlightRecorder::AnnotateThread(name);
        if (profiler != nullptr) profiler->BindCurrentThread(name);
        if (trace_clock != nullptr) {
          // Fresh thread ⇒ fresh thread-local tracer: enable it for this
          // worker's lifetime and hand its spans to the joiner on exit.
          obs::Tracer& tracer = obs::Tracer::Default();
          tracer.set_enabled(true);
          tracer.set_clock([trace_clock] { return trace_clock->now(); });
          fn();
          worker->trace_delta = tracer.CaptureForMerge();
          worker->traced = true;
          tracer.set_clock(nullptr);
        } else {
          fn();
        }
        if (profiler != nullptr) profiler->FinishCurrentThread(name);
        // Fresh thread ⇒ tallies start at zero, so the exit snapshot IS
        // the delta this worker contributed.
        worker->log_delta = obs::ThreadLogMessageCounts();
      });
  NameThread(worker->thread, name);
  if (options_.pin_threads) {
    std::lock_guard<std::mutex> lock(mu_);
    PinToCpu(worker->thread, next_cpu_++);
  }
  return id;
}

void Executor::JoinWorker(Worker& worker) {
  if (worker.thread.joinable()) {
    worker.thread.join();
    obs::MergeThreadLogMessageCounts(worker.log_delta);
    if (worker.traced) obs::Tracer::Default().Merge(worker.trace_delta);
  }
}

void Executor::Join(WorkerId id) {
  Worker* worker = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SDPS_CHECK_GE(id, 0);
    SDPS_CHECK_LT(static_cast<size_t>(id), threads_.size());
    worker = threads_[static_cast<size_t>(id)].get();
  }
  // Join outside the lock: the worker slot never moves, and a concurrent
  // Spawn must not wait behind a (possibly slow) thread exit.
  JoinWorker(*worker);
}

void Executor::JoinAll() {
  // Index-based so a Spawn that raced the start of shutdown (none in the
  // current protocol, but cheap to be exact about) is still joined.
  for (size_t i = 0;; ++i) {
    Worker* worker = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (i >= threads_.size()) break;
      worker = threads_[i].get();
    }
    JoinWorker(*worker);
  }
  std::lock_guard<std::mutex> lock(mu_);
  threads_.clear();
}

}  // namespace sdps::rt
