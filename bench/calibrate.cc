// Calibration utility: runs a single experiment (engine, query, workers,
// rate) and prints the sustainability verdict, latency stats, and ingest
// rate. Used to tune the cost constants in the engine configs against the
// paper's tables. Not part of the headline benches.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "chaos/fault_schedule.h"
#include "common/strings.h"
#include "driver/experiment.h"
#include "driver/sustainable.h"
#include "report/table.h"
#include "workloads/workloads.h"

using namespace sdps;          // NOLINT
using namespace sdps::workloads;  // NOLINT

int main(int argc, char** argv) {
  sdps::bench::TelemetryScope telemetry(argc, argv);
  std::string engine_name = "flink";
  std::string query_name = "agg";
  int workers = 2;
  double rate = 1.0e6;
  double duration_s = 120;
  bool search = false;
  std::string fault_spec;
  bool recovery = false;
  FlagParser flags;
  flags.AddString("--engine", &engine_name, "storm | spark | flink (default flink)")
      .AddString("--query", &query_name, "agg | join (default agg)")
      .AddInt("--workers", &workers, "deployment size (default 2)")
      .AddDouble("--rate", &rate, "offered rate, tuples/s (default 1e6)")
      .AddDouble("--duration", &duration_s, "horizon, seconds (default 120)")
      .AddSwitch("--search", &search, "run the sustainable-throughput search")
      .AddString("--fault-schedule", &fault_spec,
                 "chaos plan, e.g. 'crash@60:node=w0,restart=10' (see chaos/fault_schedule.h)")
      .AddSwitch("--recovery", &recovery,
                 "enable the engine's recovery machinery (implied by --fault-schedule)");
  bench::ParseFlagsOrExit(flags, argc, argv);

  Engine engine;
  if (engine_name == "storm") {
    engine = Engine::kStorm;
  } else if (engine_name == "spark") {
    engine = Engine::kSpark;
  } else if (engine_name == "flink") {
    engine = Engine::kFlink;
  } else {
    std::fprintf(stderr, "unknown engine '%s' (storm | spark | flink)\n",
                 engine_name.c_str());
    return 2;
  }
  if (query_name != "agg" && query_name != "join") {
    std::fprintf(stderr, "unknown query '%s' (agg | join)\n", query_name.c_str());
    return 2;
  }
  const engine::QueryKind query =
      query_name == "join" ? engine::QueryKind::kJoin : engine::QueryKind::kAggregation;
  const SimTime duration = Seconds(duration_s);

  driver::ExperimentConfig config = MakeExperiment(query, workers, rate, duration);
  if (!fault_spec.empty()) {
    auto faults = chaos::FaultSchedule::Parse(fault_spec);
    if (!faults.ok()) {
      std::fprintf(stderr, "bad --fault-schedule: %s\n",
                   faults.status().ToString().c_str());
      return 2;
    }
    config.faults = std::move(faults).value();
    recovery = true;
  }
  EngineTuning tuning;
  tuning.recovery = recovery;
  auto factory = MakeEngineFactory(engine, engine::QueryConfig{query, {}}, tuning);

  const auto t0 = std::chrono::steady_clock::now();
  if (search) {
    driver::SearchConfig sc;
    sc.initial_rate = rate;
    auto result = driver::FindSustainableThroughput(config, factory, sc);
    printf("%s %s %d-node: sustainable = %s (%zu trials)\n",
           EngineName(engine).c_str(),
           query == engine::QueryKind::kJoin ? "join" : "agg", workers,
           FormatRateMps(result.sustainable_rate).c_str(), result.trials.size());
    for (const auto& t : result.trials) {
      printf("  %-10s -> %s\n", FormatRateMps(t.rate).c_str(),
             t.sustainable ? "sustained" : t.verdict.c_str());
    }
  } else {
    auto result = driver::RunExperiment(config, factory);
    printf("%s %s %d-node @ %s: %s\n", EngineName(engine).c_str(),
           query == engine::QueryKind::kJoin ? "join" : "agg", workers,
           FormatRateMps(rate).c_str(), result.verdict.c_str());
    printf("  mean ingest: %s, outputs: %llu\n",
           FormatRateMps(result.mean_ingest_rate).c_str(),
           static_cast<unsigned long long>(result.output_records));
    if (!result.event_latency.empty()) {
      printf("  event-time latency: %s\n",
             report::FormatLatencyRow(result.event_latency.Summarize()).c_str());
      printf("  proc-time  latency: %s\n",
             report::FormatLatencyRow(result.processing_latency.Summarize()).c_str());
    }
    if (!config.faults.empty()) {
      printf("  recovery: time %.1fs, output gap %.1fs, duplicates %llu, "
             "availability %.1f%%%s\n",
             ToSeconds(result.recovery.recovery_time),
             ToSeconds(result.recovery.output_gap),
             static_cast<unsigned long long>(result.recovery.duplicates),
             100.0 * result.recovery.availability,
             result.degraded ? " (degraded)" : "");
    }
    if (!result.backlog_series.empty()) {
      printf("  backlog end: %.0f tuples, slope %.0f tuples/s\n",
             result.backlog_series.samples().back().value,
             result.backlog_series.SlopePerSecond());
    }
    for (const auto& [name, series] : result.engine_series) {
      if (series.empty()) continue;
      std::string tail;
      const auto& ss = series.samples();
      for (size_t i = ss.size() > 8 ? ss.size() - 8 : 0; i < ss.size(); ++i) {
        tail += StrFormat(" %.2f@%.0fs", ss[i].value, ToSeconds(ss[i].time));
      }
      printf("  %s:%s\n", name.c_str(), tail.c_str());
    }
    double cpu = 0;
    for (const auto& s : result.worker_cpu_util) cpu += s.MeanInRange(0, duration);
    printf("  mean worker CPU: %.1f%%\n",
           100.0 * cpu / static_cast<double>(result.worker_cpu_util.size()));
  }
  printf("  [wall: %.1fs]\n",
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  return bench::Exit(telemetry);
}
