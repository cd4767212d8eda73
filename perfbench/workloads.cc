// The three workloads (definitions and layer predictions in README.md):
//   paper_search  the paper's sustainable-throughput search, Table I / III
//                 2-node rows, per-record data plane;
//   shuffle_2m    the Fig. S 2M-key shuffle at a fixed offered rate, batched
//                 data plane with the shuffle-side combiner;
//   rt_agg        the aggregation stream on real threads (Flink model):
//                 closed-loop capacity, then an open-loop paced phase.
// Each sets the end-to-end metrics in an untraced run and the per-layer
// metrics in a traced one, and counts its correctness checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "common/strings.h"
#include "driver/experiment.h"
#include "driver/sustainable.h"
#include "workloads/realtime.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace sdps;  // NOLINT
using engine::QueryKind;
using workloads::Engine;

namespace {

constexpr int kWorkers = 2;  // the paper's 2-node rows
// Set-ups per run: the median then has ten set-ups beyond it.
constexpr int kSetupReps = 21;

void MeasureSetup(const Options& options, Report* report,
                  const std::function<void()>& setup) {
  const int reps = options.smoke || options.trace ? 3 : kSetupReps;
  const Span span("setup");
  report->Set("setup_s", MedianWall(reps, setup), "s", reps);
}

// Mean over trials of each trial's own simulated-latency percentiles.
void ReportSimLatency(const std::vector<TrialStats>& trials, const Options& options,
                      Report* report) {
  double p50 = 0, p99 = 0;
  uint64_t fewest = ~0ull;
  for (const TrialStats& t : trials) {
    p50 += t.latency_p50_s / static_cast<double>(trials.size());
    p99 += t.latency_p99_s / static_cast<double>(trials.size());
    fewest = std::min(fewest, t.latency_n);
  }
  report->Check(!trials.empty() && (options.smoke || fewest >= 100 * kMinBeyond),
                "too few latency samples for a p99");
  report->Set("latency_p50_s", p50, "s", trials.size());
  report->Set("latency_p99_s", p99, "s", trials.size());
}

void ReportCalls(const std::vector<double>& walls, Report* report) {
  double sum = 0;
  for (const double w : walls) sum += w;
  report->Set("driver.call_s", sum / static_cast<double>(walls.size()), "s", walls.size());
  report->Set("driver.calls", static_cast<double>(walls.size()), "count");
}

void ReportEventsPerRecord(const std::vector<TrialStats>& trials, Report* report) {
  const TrialTotals totals = Totals(trials);
  report->Set("des.events_per_record",
              static_cast<double>(totals.events) / std::max(totals.records, 1.0), "count",
              trials.size());
}

// -- paper_search -------------------------------------------------------------

struct SearchRow {
  Engine engine;
  QueryKind kind;
  const char* name;
  double reference;  // tuples/s found at kReferenceSeed, full scale
};
constexpr SearchRow kSearchRows[] = {
    {Engine::kStorm, QueryKind::kAggregation, "storm_agg", 402653},
    {Engine::kSpark, QueryKind::kAggregation, "spark_agg", 362388},
    {Engine::kFlink, QueryKind::kAggregation, "flink_agg", 1167360},
    {Engine::kSpark, QueryKind::kJoin, "spark_join", 342255},
    {Engine::kFlink, QueryKind::kJoin, "flink_join", 811008},
};
// The row the traced run repeats untraced to price the tracing.
constexpr size_t kOverheadRow = 1;

driver::SearchConfig PaperSearchConfig(const Options& options) {
  driver::SearchConfig search;  // the default: the paper's procedure
  search.jobs = 1;
  if (options.smoke) {
    search.initial_rate = 1.5e6;
    search.trial_duration = Seconds(10);
    search.refine_iterations = 1;
  }
  return search;
}

driver::ExperimentConfig SearchBase(const SearchRow& row, const driver::SearchConfig& search,
                                    uint64_t seed) {
  driver::ExperimentConfig base = workloads::MakeExperiment(
      row.kind, kWorkers, search.initial_rate, search.trial_duration);
  base.seed = seed;
  return base;
}

// The found rate is the highest sustained trial, and a higher trial
// failed (the search bracketed it).
bool Bracketed(const driver::SearchResult& result) {
  bool found = false, above = false;
  for (const driver::Trial& t : result.trials) {
    if (t.sustainable && t.rate > result.sustainable_rate) return false;
    found |= t.sustainable && t.rate == result.sustainable_rate;
    above |= !t.sustainable && t.rate > result.sustainable_rate;
  }
  return found && above;
}

struct SearchCall {
  driver::SearchResult result;
  std::vector<TrialStats> trials;
  double wall_s = 0;
  // Stats of the trial at the found rate (the paper's Table II point).
  TrialStats at_rate;
};

SearchCall Search(const SearchRow& row, const Options& options) {
  const driver::SearchConfig search = PaperSearchConfig(options);
  SearchCall call;
  const Span span(std::string("search.") + row.name);
  const double t0 = Now();
  call.result = driver::FindSustainableThroughput(
      SearchBase(row, search, options.seed),
      Probed(workloads::MakeEngineFactory(row.engine, {row.kind, {}}), &call.trials), search);
  call.wall_s = Now() - t0;
  for (size_t i = 0; i < call.result.trials.size() && i < call.trials.size(); ++i) {
    const driver::Trial& t = call.result.trials[i];
    if (t.sustainable && t.rate == call.result.sustainable_rate) call.at_rate = call.trials[i];
  }
  return call;
}

void CheckSearch(const SearchRow& row, const SearchCall& call, double first_rate,
                 const Options& options, Report* report) {
  const double rate = call.result.sustainable_rate;
  report->Info(StrFormat("  search %-10s %9.0f tuples/s  %2zu trials  %6.2f s", row.name, rate,
                         call.result.trials.size(), call.wall_s));
  report->Check(call.trials.size() == call.result.trials.size(),
                StrFormat("%s: %zu probed trials for %zu search trials", row.name,
                          call.trials.size(), call.result.trials.size()));
  report->Check(rate > 0 && Bracketed(call.result),
                StrFormat("%s: rate %.0f not bracketed by the search", row.name, rate));
  if (first_rate >= 0) {
    report->Check(rate == first_rate,
                  StrFormat("%s: rate %.0f differs from the first round's %.0f", row.name,
                            rate, first_rate));
  }
  if (options.seed == kReferenceSeed && !options.smoke) {
    report->Check(std::abs(rate - row.reference) < 1.0,
                  StrFormat("%s: rate %.0f, reference %.0f", row.name, rate, row.reference));
  }
}

}  // namespace

void RunPaperSearch(const Options& options, Report* report) {
  // Set-up: build every row's deployment and run one short trial on it.
  MeasureSetup(options, report, [&] {
    for (const SearchRow& row : kSearchRows) {
      driver::ExperimentConfig config =
          workloads::MakeExperiment(row.kind, kWorkers, 1e5, Seconds(8));
      config.seed = options.seed;
      driver::RunExperiment(config, workloads::MakeEngineFactory(row.engine, {row.kind, {}}));
    }
  });

  if (options.trace) StartRegistry();
  std::vector<double> rates(std::size(kSearchRows), -1);
  std::vector<double> walls;
  std::vector<TrialStats> trials, at_rate;
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  do {
    at_rate.clear();
    for (size_t i = 0; i < std::size(kSearchRows); ++i) {
      const SearchCall call = Search(kSearchRows[i], options);
      CheckSearch(kSearchRows[i], call, rates[i], options, report);
      rates[i] = call.result.sustainable_rate;
      walls.push_back(call.wall_s);
      trials.insert(trials.end(), call.trials.begin(), call.trials.end());
      at_rate.push_back(call.at_rate);
    }
  } while (!options.trace && Now() - t0 < options.seconds);
  const double wall = Now() - t0;
  const double cpu = CpuSeconds() - cpu0;
  const TrialTotals totals = Totals(trials);

  if (!options.trace) {
    double search_wall = 0;
    for (const double w : walls) search_wall += w;
    report->Set("records_per_s", totals.records / search_wall, "1/s", trials.size());
    report->Set("cpu_cores", cpu / wall, "cores", walls.size());
    ReportSimLatency(at_rate, options, report);
    return;
  }

  // Traced: one round with the registry on; its counts are exact.
  ReportRegistryCounts(report);
  obs::Registry::Default().set_enabled(false);
  for (size_t i = 0; i < std::size(kSearchRows); ++i) {
    report->Info(StrFormat("  driver.search_s.%-10s %8.3f s (n=1)", kSearchRows[i].name,
                           walls[i]));
  }
  ReportCalls(walls, report);
  ReportEventsPerRecord(trials, report);
  const SearchCall untraced = Search(kSearchRows[kOverheadRow], options);
  report->Set("trace.overhead", walls[kOverheadRow] / untraced.wall_s, "ratio", 2);

  LayerInputs inputs;
  inputs.stream = workloads::AggregationGenerator();
  inputs.rate = 1e6;
  inputs.generators = {{workloads::AggregationGenerator(), 1e6},
                       {workloads::JoinGenerator(), 8e5}};
  MeasureLayers(inputs, options, report);
  rt::RtPipelineConfig twin = workloads::MakeRealtime(
      Engine::kFlink, QueryKind::kAggregation, kWorkers, 8e8, Seconds(1), options.seed);
  twin.num_tasks = 1;
  MeasureRtTwin(twin, options, 2e6, report);
}

// -- shuffle_2m ---------------------------------------------------------------

namespace {

constexpr double kShuffleRate = 4e5;  // tuples/s, the Fig. S full-scale point
constexpr int kShuffleBatch = 32;

struct ShuffleEngine {
  Engine engine;
  const char* name;
};
constexpr ShuffleEngine kShuffleEngines[] = {
    {Engine::kStorm, "storm"}, {Engine::kSpark, "spark"}, {Engine::kFlink, "flink"}};
// Output digest of every engine at kReferenceSeed, full scale (with the
// drain, each engine emits the complete, identical output set).
constexpr uint64_t kShuffleReferenceDigest = 0x5279e83957c2e9c2;

SimTime ShuffleHorizon(const Options& options) {
  return options.smoke ? Seconds(20) : Seconds(60);
}

driver::SutFactory ShuffleFactory(Engine engine, bool combine) {
  workloads::EngineTuning tuning;
  tuning.shuffle_combine = combine;
  // Event-time block sealing: Spark's outputs become a pure function of
  // the input stream, so digests and combiner on/off compare exactly.
  tuning.spark_deterministic_batching = true;
  const engine::QueryConfig query{QueryKind::kAggregation, {}};
  if (engine == Engine::kFlink) {
    engines::FlinkConfig config = workloads::CalibratedFlink(query, tuning);
    // A transport race shows as a late drop, not a silently different
    // output multiset.
    config.allowed_lateness = Seconds(4);
    return [config](const driver::SutContext&) { return engines::MakeFlink(config); };
  }
  return workloads::MakeEngineFactory(engine, query, tuning);
}

struct ShuffleTrial {
  Status failure;
  std::string verdict;  // empty when sustained
  uint64_t digest = 0;
  uint64_t outputs = 0;
  double wall_s = 0;
};

ShuffleTrial RunShuffleTrial(const ShuffleEngine& e, const Options& options,
                             std::vector<TrialStats>* log) {
  driver::ExperimentConfig config =
      workloads::MakeShuffle(kWorkers, kShuffleRate, ShuffleHorizon(options));
  config.batch = kShuffleBatch;
  config.seed = options.seed;
  config.drain = config.duration;  // every open window fires: the digest is complete
  OutputDigest digest(/*with_value=*/true);
  config.output_listener = [&digest](const engine::OutputRecord& out) { digest.Add(out); };
  ShuffleTrial trial;
  const double t0 = Now();
  const driver::ExperimentResult result =
      driver::RunExperiment(config, Probed(ShuffleFactory(e.engine, true), log));
  trial.wall_s = Now() - t0;
  trial.failure = result.failure;
  if (!result.sustainable) trial.verdict = result.verdict;
  trial.digest = digest.value();
  trial.outputs = digest.count();
  return trial;
}

struct ShuffleRound {
  std::vector<ShuffleTrial> trials;
  std::vector<TrialStats> stats;
  double wall_s = 0;
};

ShuffleRound RunShuffleRound(const Options& options) {
  ShuffleRound round;
  const Span span("round");
  for (const ShuffleEngine& e : kShuffleEngines) {
    round.trials.push_back(RunShuffleTrial(e, options, &round.stats));
    round.wall_s += round.trials.back().wall_s;
  }
  return round;
}

void CheckShuffleRound(const ShuffleRound& round, const ShuffleRound* first,
                       const Options& options, Report* report) {
  for (size_t i = 0; i < round.trials.size(); ++i) {
    const ShuffleEngine& e = kShuffleEngines[i];
    const ShuffleTrial& t = round.trials[i];
    report->Check(t.failure.ok() && t.outputs > 0,
                  StrFormat("shuffle %s: %s, %llu outputs", e.name,
                            t.failure.ToString().c_str(),
                            static_cast<unsigned long long>(t.outputs)));
    // Complete output sets: every engine model computes the same multiset.
    report->Check(t.digest == round.trials[0].digest,
                  StrFormat("shuffle %s: digest differs from %s's", e.name,
                            kShuffleEngines[0].name));
    if (first != nullptr) {
      report->Check(t.digest == first->trials[i].digest,
                    StrFormat("shuffle %s: digest %016llx differs from the first round's",
                              e.name, static_cast<unsigned long long>(t.digest)));
    } else {
      report->Info(StrFormat("  trial %-6s %6.3f s  %8llu outputs  digest %016llx  %s", e.name,
                             t.wall_s, static_cast<unsigned long long>(t.outputs),
                             static_cast<unsigned long long>(t.digest),
                             t.verdict.empty() ? "sustained" : t.verdict.c_str()));
      if (options.seed == kReferenceSeed && !options.smoke) {
        report->Check(t.digest == kShuffleReferenceDigest,
                      StrFormat("shuffle %s: digest %016llx, reference %016llx", e.name,
                                static_cast<unsigned long long>(t.digest),
                                static_cast<unsigned long long>(kShuffleReferenceDigest)));
      }
    }
  }
}

// Seed-independent identity at small scale: the combiner must not change
// a single output (unit prices make every sum exact).
void CheckCombinerIdentity(const Options& options, Report* report) {
  const Span span("check.combiner_identity");
  for (const ShuffleEngine& e : kShuffleEngines) {
    Canon canon[2];
    for (const bool combine : {false, true}) {
      driver::ExperimentConfig config =
          workloads::MakeShuffle(kWorkers, 1e5, Seconds(8));
      config.generator.num_keys = 5000;  // keys repeat inside a run: the combiner merges
      config.seed = options.seed;
      config.batch = kShuffleBatch;
      config.drain = Seconds(30);  // flush every open window
      std::vector<engine::OutputRecord> outs;
      config.output_listener = [&outs](const engine::OutputRecord& out) {
        outs.push_back(out);
      };
      const driver::ExperimentResult result =
          driver::RunExperiment(config, ShuffleFactory(e.engine, combine));
      report->Check(result.failure.ok() && Canonicalize(outs, &canon[combine]),
                    StrFormat("combiner identity %s: run failed or fired twice", e.name));
    }
    report->Check(canon[0].size() > 100 && SameOutputs(canon[0], canon[1], 0.0),
                  StrFormat("combiner identity %s: outputs differ with the combiner on",
                            e.name));
  }
}

}  // namespace

void RunShuffle(const Options& options, Report* report) {
  MeasureSetup(options, report, [&] {
    for (const ShuffleEngine& e : kShuffleEngines) {
      driver::ExperimentConfig config = workloads::MakeShuffle(kWorkers, kShuffleRate, Seconds(4));
      config.batch = kShuffleBatch;
      config.seed = options.seed;
      driver::RunExperiment(config, ShuffleFactory(e.engine, true));
    }
  });

  if (!options.trace) {
    const double cpu0 = CpuSeconds();
    const double t0 = Now();
    const ShuffleRound first = RunShuffleRound(options);
    CheckShuffleRound(first, nullptr, options, report);
    double records = Totals(first.stats).records, wall = first.wall_s;
    size_t rounds = 1;
    while (Now() - t0 < options.seconds) {
      const ShuffleRound round = RunShuffleRound(options);
      CheckShuffleRound(round, &first, options, report);
      records += Totals(round.stats).records;
      wall += round.wall_s;
      ++rounds;
    }
    const double cpu = CpuSeconds() - cpu0;
    const double elapsed = Now() - t0;
    report->Set("records_per_s", records / wall, "1/s", rounds * 3);
    report->Set("cpu_cores", cpu / elapsed, "cores", rounds);
    ReportSimLatency(first.stats, options, report);
    CheckCombinerIdentity(options, report);
    return;
  }

  // Traced: rounds alternate untraced / traced; the first traced round's
  // registry counts are exact.
  const ShuffleRound plain1 = RunShuffleRound(options);
  CheckShuffleRound(plain1, nullptr, options, report);
  StartRegistry();
  const ShuffleRound traced1 = RunShuffleRound(options);
  ReportRegistryCounts(report);
  const ShuffleRound traced2 = RunShuffleRound(options);
  obs::Registry::Default().set_enabled(false);
  const ShuffleRound plain2 = RunShuffleRound(options);
  std::vector<double> walls;
  for (const ShuffleRound* r : {&plain1, &traced1, &traced2, &plain2}) {
    CheckShuffleRound(*r, &plain1, options, report);
    for (const ShuffleTrial& t : r->trials) walls.push_back(t.wall_s);
  }
  for (size_t i = 0; i < std::size(kShuffleEngines); ++i) {
    report->Info(StrFormat("  driver.trial_s.%-6s %8.3f s (n=4)", kShuffleEngines[i].name,
                           (plain1.trials[i].wall_s + traced1.trials[i].wall_s +
                            traced2.trials[i].wall_s + plain2.trials[i].wall_s) /
                               4));
  }
  ReportCalls(walls, report);
  ReportEventsPerRecord(plain1.stats, report);
  report->Set("trace.overhead",
              (traced1.wall_s + traced2.wall_s) / (plain1.wall_s + plain2.wall_s), "ratio", 4);
  CheckCombinerIdentity(options, report);

  LayerInputs inputs;
  inputs.stream = workloads::ShuffleGenerator();
  inputs.rate = kShuffleRate;
  inputs.generators = {{workloads::ShuffleGenerator(), kShuffleRate}};
  MeasureLayers(inputs, options, report);
  rt::RtPipelineConfig twin = workloads::MakeRealtimeShuffle(
      Engine::kFlink, kWorkers, 4e7, Seconds(1), /*shuffle_combine=*/true, options.seed);
  twin.num_tasks = 1;
  twin.batch = kShuffleBatch;
  MeasureRtTwin(twin, options, 2e5, report);
}

// -- rt_agg -------------------------------------------------------------------

namespace {

// Planned schedule of the capacity phase (unpaced: the rate only spaces
// event times) and the paced phase's fixed open-loop rate.
constexpr double kCapacityTupleRate = 8e8;
constexpr double kCapacityRecords = 5e6;
constexpr double kPacedRecordsPerSec = 4e6;
// rt_agg's capacity-rep outputs at kReferenceSeed: the digest of the
// (key, window_end, weight) multiset and the sum of the values (compared
// up to FP summation order, which depends on thread interleaving).
constexpr struct {
  uint64_t digest;
  double value;
} kRtReference = {0x5ce8726f263cd0e4, 50497331827.987473};

rt::RtPipelineConfig RtAggConfig(const Options& options) {
  rt::RtPipelineConfig config = workloads::MakeRealtime(
      Engine::kFlink, QueryKind::kAggregation, kWorkers, kCapacityTupleRate, Seconds(1),
      options.seed);
  config.num_tasks = 1;  // 2 sources + 1 task + 1 sink = 4 threads
  config.batch = 32;
  return config;
}

// Registry latency buckets 0.2% wide from 0.1 ms to 1000 s, created before
// any sink asks for the default (coarse) ones.
void UseFineLatencyBuckets() {
  std::vector<double> bounds;
  for (double b = 1e-4; b < 1e3; b *= 1.002) bounds.push_back(b);
  obs::Registry::Default().GetHistogram("driver.sink.event_latency_s", {}, bounds);
}

// Seed-independent identity at small scale: the rt outputs equal the
// same-seed DES twin's (values up to FP summation order).
void CheckDesTwin(const Options& options, std::vector<TrialStats>* log, Report* report) {
  constexpr double kRate = 1e5;
  constexpr SimTime kDuration = Seconds(20);
  const Span span("check.des_twin");
  driver::ExperimentConfig des =
      workloads::MakeExperiment(QueryKind::kAggregation, kWorkers, kRate, kDuration);
  des.seed = options.seed;
  des.drain = Seconds(30);
  std::vector<engine::OutputRecord> des_outs;
  des.output_listener = [&des_outs](const engine::OutputRecord& out) {
    des_outs.push_back(out);
  };
  engines::FlinkConfig flink =
      workloads::CalibratedFlink({QueryKind::kAggregation, {}});
  flink.allowed_lateness = Seconds(4);
  const driver::ExperimentResult des_result = driver::RunExperiment(
      des, Probed([flink](const driver::SutContext&) { return engines::MakeFlink(flink); },
                  log));
  rt::RtPipelineConfig rt_config = workloads::MakeRealtime(
      Engine::kFlink, QueryKind::kAggregation, kWorkers, kRate, kDuration, options.seed);
  rt_config.num_tasks = 1;
  rt_config.capture_outputs = true;
  const rt::RtResult rt_result = rt::RunRtPipeline(rt_config);
  Canon des_canon, rt_canon;
  const bool once = Canonicalize(des_outs, &des_canon) &
                    Canonicalize(rt_result.outputs, &rt_canon);
  report->Check(des_result.failure.ok() && rt_result.failure.ok() && once &&
                    rt_result.late_dropped_tuples == 0 && des_canon.size() > 100 &&
                    SameOutputs(des_canon, rt_canon, 1e-9),
                StrFormat("rt vs DES twin: %zu vs %zu outputs differ", rt_canon.size(),
                          des_canon.size()));
}

uint64_t KeyDigest(const std::vector<engine::OutputRecord>& outs) {
  OutputDigest digest(/*with_value=*/false);
  for (const engine::OutputRecord& out : outs) digest.Add(out);
  return digest.value();
}

}  // namespace

void RunRtAgg(const Options& options, Report* report) {
  UseFineLatencyBuckets();
  rt::RtPipelineConfig config = RtAggConfig(options);
  MeasureSetup(options, report, [&] {
    const rt::RtResult warm = RunRtCapacity(RtAggConfig(options), 2e5, false);
    report->Check(warm.failure.ok(), "rt warm-up: " + warm.failure.ToString());
  });

  // Closed loop: unpaced capacity reps (traced runs alternate profiler
  // off / on), each checked against the first rep's outputs. Untraced
  // runs report the median rep: 21 reps leave ten beyond it.
  config.capture_outputs = true;
  const double records = options.smoke ? 2e5 : kCapacityRecords;
  const int reps = options.trace ? 4 : options.smoke ? 3 : 21;
  double sums[2][2] = {};  // [profiled] -> {records, wall}
  std::vector<double> rates, walls;
  Canon first;
  for (int rep = 0; rep < reps; ++rep) {
    const bool profile = options.trace && rep % 2 == 1;
    const Span span("rt.capacity");
    const double c0 = Now();
    const rt::RtResult r = RunRtCapacity(config, records, profile);
    walls.push_back(Now() - c0);
    rates.push_back(r.records_per_s);
    sums[profile][0] += static_cast<double>(r.input_records);
    sums[profile][1] += r.wall_seconds;
    report->Info(StrFormat("  capacity rep %2d: %7.3f M records/s%s", rep,
                           r.records_per_s / 1e6, profile ? " (profiled)" : ""));
    report->Check(r.failure.ok() && r.late_dropped_tuples == 0 && !r.outputs.empty(),
                  "rt capacity run: " + r.failure.ToString());
    Canon canon;
    const bool once = Canonicalize(r.outputs, &canon);
    if (rep == 0) {
      first = canon;
      const uint64_t digest = KeyDigest(r.outputs);
      report->Info(StrFormat("  capacity rep of %.0f records: %zu outputs, digest %016llx, "
                             "value %.17g",
                             records, r.outputs.size(),
                             static_cast<unsigned long long>(digest), r.output_value));
      if (options.seed == kReferenceSeed && !options.smoke) {
        report->Check(digest == kRtReference.digest &&
                          std::fabs(r.output_value - kRtReference.value) <=
                              1e-9 * kRtReference.value,
                      StrFormat("rt digest %016llx value %.17g, reference %016llx %.17g",
                                static_cast<unsigned long long>(digest), r.output_value,
                                static_cast<unsigned long long>(kRtReference.digest),
                                kRtReference.value));
      }
    }
    report->Check(once && SameOutputs(canon, first, 1e-9),
                  "rt capacity outputs differ from the first rep's");
    if (rep == 1 && profile) ReportRtProfile(r.profile, report);
  }

  // Open loop: one paced phase at a fixed rate below capacity. Latency is
  // timed from each event's scheduled time, so generator lag counts.
  config.capture_outputs = false;
  const double paced_s = options.smoke ? 1.0 : std::max(2.0, 0.45 * options.seconds) /
                                                   (options.trace ? 3 : 1);
  StartRegistry();
  const double cpu0 = CpuSeconds();
  const double p0 = Now();
  const rt::RtResult paced = RunRtPaced(config, kPacedRecordsPerSec, paced_s);
  const double p1 = Now();
  RecordSpan("rt.paced", p0, p1);
  const double cores = (CpuSeconds() - cpu0) / (p1 - p0);
  obs::Registry::Default().set_enabled(false);
  report->Check(paced.failure.ok() && paced.late_dropped_tuples == 0,
                "rt paced run: " + paced.failure.ToString());
  const obs::Histogram& latency =
      *obs::Registry::Default().GetHistogram("driver.sink.event_latency_s");

  if (!options.trace) {
    std::sort(rates.begin(), rates.end());
    report->Set("records_per_s", rates[rates.size() / 2], "1/s", rates.size());
    const Percentile p50 = HistogramPercentile(latency, 0.50);
    const Percentile p99 = HistogramPercentile(latency, 0.99);
    report->Check(options.smoke || p99.beyond >= kMinBeyond,
                  StrFormat("latency p99 has only %llu samples beyond it",
                            static_cast<unsigned long long>(p99.beyond)));
    report->Set("latency_p50_s", p50.value, "s", p50.n);
    report->Set("latency_p99_s", p99.value, "s", p99.n);
    report->Info(StrFormat("  (p99 has %llu samples beyond it)",
                           static_cast<unsigned long long>(p99.beyond)));
    report->Set("cpu_cores", cores, "cores");
    std::vector<TrialStats> twin;
    CheckDesTwin(options, &twin, report);
    return;
  }

  report->Set("rt.generator_lag_s", paced.wall_seconds - paced_s, "s");
  ReportCalls(walls, report);
  report->Set("trace.overhead",
              (sums[1][1] / sums[1][0]) / (sums[0][1] / sums[0][0]), "ratio", walls.size());
  StartRegistry();
  std::vector<TrialStats> twin;
  CheckDesTwin(options, &twin, report);
  ReportRegistryCounts(report);
  obs::Registry::Default().set_enabled(false);
  ReportEventsPerRecord(twin, report);

  LayerInputs inputs;
  inputs.stream = workloads::AggregationGenerator();
  inputs.rate = kCapacityTupleRate;
  inputs.generators = {{workloads::AggregationGenerator(), kCapacityTupleRate}};
  MeasureLayers(inputs, options, report);
}

}  // namespace perfbench
