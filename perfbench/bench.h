// Shared pieces of the SDPS-Bench performance benchmark (see README.md):
// run options, the metric report, wall/CPU/RSS probes, output digests,
// the per-trial probe that reads a DES trial's counters through the SUT
// seam, and the entry points of the workloads and per-layer probes.
//
// Nothing here instruments the library: every number comes from timing
// the benchmark's own calls into public functions, or from counters the
// modules already export (obs::Registry, rt::Profiler, LatencySink,
// DriverQueue, des::Simulator).
#ifndef SDPS_PERFBENCH_BENCH_H_
#define SDPS_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/generator.h"
#include "driver/sut.h"
#include "engine/record.h"
#include "obs/metrics.h"
#include "rt/pipeline.h"

namespace perfbench {

using sdps::SimTime;

struct Options {
  std::string workload;
  uint64_t seed = 42;
  /// Length of the measured phase, wall seconds.
  double seconds = 20;
  /// false: end-to-end metrics from an untraced run. true: per-layer
  /// metrics from a traced run (registry counters, rt profiler).
  bool trace = false;
  /// Tiny scale for the smoke check: every phase shrunk, reference values
  /// (recorded at full scale) not compared.
  bool smoke = false;
  /// Source revision, for the provenance line.
  std::string commit = "unknown";
  /// Where a traced run writes its spans; empty: not written.
  std::string spans;
};

/// The seed the reference search rates and output digests were recorded
/// at; other seeds get the seed-independent identity checks only.
inline constexpr uint64_t kReferenceSeed = 42;

double Now();         // steady clock, seconds
double CpuSeconds();  // process user + system CPU, seconds
double PeakRssMb();   // peak resident set of the process, MiB

/// Wall-clock spans around the benchmark's calls into each layer, kept in
/// memory while enabled and written as a Chrome trace (chrome://tracing,
/// Perfetto) when the run ends. Nesting follows time containment.
void EnableSpans();
void RecordSpan(const std::string& name, double start, double end);
bool WriteSpans(const std::string& path);

class Span {
 public:
  explicit Span(std::string name) : name_(std::move(name)), start_(Now()) {}
  ~Span() { RecordSpan(name_, start_, Now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  double start_;
};

/// Median over `reps` calls of `fn`'s wall time.
double MedianWall(int reps, const std::function<void()>& fn);

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // measurements the value summarises
};

/// Metrics and correctness checks of one run. Human-readable lines go to
/// stdout as they are produced; main() prints the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  /// Counts one checked result; prints it when it fails.
  void Check(bool ok, const std::string& what);
  void Info(const std::string& line) const;

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A percentile and how many samples lie beyond it. Every reported
/// percentile needs at least ten samples past it to mean anything.
struct Percentile {
  double value = 0;
  uint64_t n = 0;
  uint64_t beyond = 0;
};
inline constexpr uint64_t kMinBeyond = 10;

/// Percentile of a registry histogram, interpolated linearly by rank
/// inside the bucket that holds it.
Percentile HistogramPercentile(const sdps::obs::Histogram& histogram, double q);

/// Order-independent digest of an output multiset over (key, window_end,
/// weight) and, when `with_value`, the value's bits.
class OutputDigest {
 public:
  explicit OutputDigest(bool with_value) : with_value_(with_value) {}
  void Add(const sdps::engine::OutputRecord& out);
  uint64_t value() const { return sum_ ^ count_; }
  uint64_t count() const { return count_; }

 private:
  bool with_value_;
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
};

/// (key, window_end) -> (value, weight).
using Canon = std::map<std::pair<uint64_t, SimTime>, std::pair<double, uint64_t>>;
/// Builds the canonical map; false when some (key, window_end) fired twice.
bool Canonicalize(const std::vector<sdps::engine::OutputRecord>& outs, Canon* canon);
/// Same pairs and weights; values equal up to `rel_tol`.
bool SameOutputs(const Canon& a, const Canon& b, double rel_tol);

/// What one DES trial did, read through the SUT seam when the driver
/// stops the SUT at the horizon.
struct TrialStats {
  double wall_s = 0;     // SUT start -> stop
  double records = 0;   // generator records pushed to the driver queues
  uint64_t events = 0;  // DES events processed
  double latency_p50_s = 0;  // simulated event-time latency (post-warmup)
  double latency_p99_s = 0;
  uint64_t latency_n = 0;
};

/// Wraps `inner` so every SUT it builds appends its TrialStats to `log`.
sdps::driver::SutFactory Probed(sdps::driver::SutFactory inner,
                                std::vector<TrialStats>* log);

/// Sums over a trial log.
struct TrialTotals {
  double records = 0;
  uint64_t events = 0;
};
TrialTotals Totals(const std::vector<TrialStats>& trials);

// -- Per-layer probes (layers.cc) ---------------------------------------------

/// The streams a workload's layer replays run on.
struct LayerInputs {
  /// The workload's own aggregation-shaped stream and its offered rate
  /// (tuples/s; sets the event-time spacing of the replayed tape).
  sdps::driver::GeneratorConfig stream;
  double rate = 1e6;
  /// Every generator the workload runs, for the RecordStream replay.
  std::vector<std::pair<sdps::driver::GeneratorConfig, double>> generators;
};

/// des.*, driver.record_stream.* and engine.* replays.
void MeasureLayers(const LayerInputs& inputs, const Options& options, Report* report);

/// Enables the process-wide registry and zeroes it.
void StartRegistry();
/// The exact counts of the registry (see kRegistryCounts in layers.cc).
void ReportRegistryCounts(Report* report);

/// rt.<stage>.* and rt.ring.* from a profiled rt run.
void ReportRtProfile(const sdps::rt::Profiler::Report& profile, Report* report);

/// Capacity (unpaced) rt run of `records` generator records.
sdps::rt::RtResult RunRtCapacity(sdps::rt::RtPipelineConfig config, double records,
                                 bool profile);

/// Paced rt run at `records_per_s` for `seconds` of schedule;
/// rt.generator_lag_s is its wall time minus the scheduled duration.
sdps::rt::RtResult RunRtPaced(sdps::rt::RtPipelineConfig config, double records_per_s,
                              double seconds);

/// The rt.* per-layer metrics of a DES workload: its stream on the rt
/// backend (profiled capacity run + short paced run).
void MeasureRtTwin(const sdps::rt::RtPipelineConfig& config, const Options& options,
                   double paced_records_per_s, Report* report);

// -- Workloads (workloads.cc) -------------------------------------------------

void RunPaperSearch(const Options& options, Report* report);
void RunShuffle(const Options& options, Report* report);
void RunRtAgg(const Options& options, Report* report);

}  // namespace perfbench

#endif  // SDPS_PERFBENCH_BENCH_H_
