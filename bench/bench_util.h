// Shared harness pieces for the experiment benches: a results directory,
// a cache of searched sustainable rates (so the latency/figure benches can
// reuse bench_table1's search results), and one-line experiment runners.
#ifndef SDPS_BENCH_BENCH_UTIL_H_
#define SDPS_BENCH_BENCH_UTIL_H_

#include <functional>
#include <future>
#include <string>
#include <vector>

#include "common/flags.h"
#include "driver/experiment.h"
#include "driver/sustainable.h"
#include "exec/pool.h"
#include "workloads/workloads.h"

namespace sdps::bench {

/// Telemetry flags shared by every bench binary. Construct first thing in
/// main(): consumes `--trace=FILE`, `--metrics=FILE` (Prometheus text),
/// `--metrics-csv=FILE`, `--lineage-csv=FILE` and `--jobs=N` from argv —
/// compacting argv in place so the bench's own argument parsing never
/// sees them — and enables the corresponding obs sinks (plus the
/// `log.messages` counters). The dump files are written when the scope is
/// destroyed, i.e. after the bench's last experiment; the trace and
/// lineage dumps therefore show the final run (both are reset at each
/// experiment start) while metrics accumulate over the whole process.
/// Deep telemetry is thread-local: run with `--jobs=1` (the default) when
/// capturing traces or lineage, so the instrumented trial executes on the
/// main thread the exporters read from.
/// Realtime observability flags (also consumed): `--rt-trace=FILE` writes
/// a wall-clock Chrome trace of the last realtime pipeline run (real
/// pid/tid lanes, loadable in Perfetto), `--rt-profile` runs the sampling
/// profiler inside every realtime pipeline (stall/compute/idle breakdown
/// per stage), and `--flight-dump=FILE` arms the flight recorder: crash
/// handlers are installed, watchdog/chaos trips dump to FILE, and an
/// end-of-run dump is always written so the artifact exists even on a
/// clean exit.
class TelemetryScope {
 public:
  TelemetryScope(int& argc, char** argv);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  /// Writes all requested dumps now (idempotent: each is written once).
  /// Returns the first failure — a bench that requested a dump must not
  /// exit 0 when the file could not be written.
  Status Flush();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string metrics_csv_path_;
  std::string lineage_csv_path_;
  std::string rt_trace_path_;
  std::string flight_dump_path_;
  bool flushed_ = false;
};

/// Standard bench epilogue: flushes the telemetry dumps and folds write
/// failures (telemetry or any WriteSeries call this process) into the
/// exit code. Returns `code` when non-zero, 2 when any file write failed,
/// 0 otherwise. Use as `return bench::Exit(telemetry, code);`.
int Exit(TelemetryScope& telemetry, int code = 0);

/// Strict argument handling: parses the remaining argv (after
/// TelemetryScope consumed the telemetry flags) against `parser`; on any
/// unknown or malformed argument prints the error and usage to stderr and
/// exits 2. Benches without flags of their own pass a default parser so
/// stray arguments still fail fast.
void ParseFlagsOrExit(const FlagParser& parser, int argc, char** argv);

/// Trial-level parallelism for this bench process, from `--jobs=N`
/// (default 1; `--jobs=0` means hardware concurrency). Campaign outputs
/// are bit-identical at any jobs value — parallelism only changes
/// wall-clock time.
int Jobs();

/// Data-plane batch size for this bench process, from `--batch=N`
/// (default 1 = runs of one record, per-record scheduling). TelemetryScope consumes the flag and installs it as the
/// process-wide default (engine::SetDefaultDataPlaneBatch), so every
/// experiment whose config leaves `batch` at 0 picks it up.
int BatchSize();

/// True when `--realtime` was given: benches that support it run their
/// workloads on the rt backend (real threads, wall-clock time) in
/// addition to / instead of the DES model. Realtime trials own the whole
/// machine (one thread per pipeline stage, pinned), so TelemetryScope
/// forces `--jobs=1` with a diagnostic rather than letting trial-level
/// parallelism oversubscribe the cores being measured.
bool Realtime();

/// True when `--rt-trace=FILE` was given: realtime pipelines record
/// wall-clock spans on every worker, merged (with OS tids) into the main
/// thread's tracer and written to FILE at Flush().
bool RtTrace();

/// True when `--rt-profile` was given: realtime pipelines run the
/// sampling profiler and benches report the stall/compute/idle breakdown.
bool RtProfile();

/// Runs independent measurement closures Jobs()-wide, returning results
/// in submission order (so row/CSV order never depends on scheduling).
/// With Jobs() == 1 each closure runs inline at submission, exactly like
/// the historical serial loop.
template <typename T>
std::vector<T> RunAll(std::vector<std::function<T()>> tasks) {
  exec::TrialPool pool(exec::ResolveJobs(Jobs()));
  std::vector<std::future<T>> futures;
  futures.reserve(tasks.size());
  for (auto& task : tasks) futures.push_back(pool.Submit(std::move(task)));
  std::vector<T> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

/// Creates ./results if needed and returns "results/<name>".
std::string ResultsPath(const std::string& name);

/// Returns the sustainable rate for (engine, query, workers), reading
/// results/rates_cache.csv when present and appending after a fresh
/// search (the search itself runs Jobs()-wide). `hint` bounds the search
/// start.
double SustainableRate(workloads::Engine engine, engine::QueryKind query, int workers,
                       double hint = 2.0e6, workloads::EngineTuning tuning = {});

/// One sustainable-rate lookup in a batch resolve.
struct RateQuery {
  workloads::Engine engine;
  engine::QueryKind query;
  int workers = 2;
  double hint = 2.0e6;
  workloads::EngineTuning tuning = {};
};

/// Batch variant of SustainableRate: resolves all queries, running the
/// missing searches concurrently (Jobs() workers spread across searches),
/// and appends cache lines in query order so results/rates_cache.csv is
/// byte-identical at any --jobs value. Returns rates in query order.
std::vector<double> SustainableRates(const std::vector<RateQuery>& queries);

/// Runs one measurement at the given rate (fraction of `rate`); standard
/// paper deployment and generator presets.
driver::ExperimentResult MeasureAt(workloads::Engine engine, engine::QueryKind query,
                                   int workers, double rate,
                                   SimTime duration = Seconds(180),
                                   workloads::EngineTuning tuning = {},
                                   driver::RateProfile profile = nullptr);

/// Writes a latency time series (downsampled to 1 s buckets) as CSV.
/// Failures are returned AND remembered so `Exit()` turns them into a
/// non-zero exit code even when the caller ignores the status.
Status WriteSeries(const std::string& file, const std::string& value_name,
                   const driver::TimeSeries& series, SimTime bucket = Seconds(1));

/// Coefficient of variation of a series (fluctuation metric, Fig. 9).
double CoefficientOfVariation(const driver::TimeSeries& series, SimTime from, SimTime to);

}  // namespace sdps::bench

#endif  // SDPS_BENCH_BENCH_UTIL_H_
