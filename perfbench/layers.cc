// Per-layer probes. Each replays a workload's own stream through one
// module's public API and reports ns per record (event, probe): the total
// time over the total work of all repetitions, so no percentile needs a
// sample count it does not have.
#include <algorithm>
#include <string>

#include "bench.h"
#include "common/random.h"
#include "des/simulator.h"
#include "driver/record_stream.h"
#include "engine/columnar.h"
#include "engine/group_hash.h"
#include "engine/partition.h"
#include "engine/window.h"
#include "engine/window_state.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace sdps;  // NOLINT

namespace {

constexpr int kReps = 3;
// Records per data-plane run: the batch of the shuffle workload, and the
// run shape the partition / combine / keymap replays use.
constexpr size_t kRun = 32;
// 2 workers x 16 slots: the task fan-out of the paper's 2-node cluster.
constexpr int kParts = 32;
// In-band watermark cadence of the rt pipeline; the window replays fire
// at the same event-time spacing.
constexpr SimTime kFireEvery = Millis(200);
// Keeps replays whose results are otherwise unused from being optimised out.
volatile uint64_t g_sink = 0;

size_t TapeLength(const Options& options) { return options.smoke ? 20'000 : 1'000'000; }

std::vector<engine::Record> Tape(driver::GeneratorConfig config, double rate, uint64_t seed,
                                 size_t n) {
  config.rate = driver::ConstantRate(rate);
  driver::RecordStream stream(config, Rng(seed));
  std::vector<engine::Record> tape;
  tape.reserve(n);
  SimTime t = 0;
  for (size_t i = 0; i < n; ++i) {
    t = stream.NextTime(t);
    engine::Record rec = stream.Build(t);
    rec.ingest_time = t;
    tape.push_back(rec);
  }
  return tape;
}

// Total wall of kReps runs of `fn`, in ns per unit of work.
template <typename Fn>
double NsPer(const std::string& name, double units_per_rep, Fn&& fn) {
  double wall = 0;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = Now();
    fn();
    const double t1 = Now();
    RecordSpan(name, t0, t1);
    wall += t1 - t0;
  }
  return wall * 1e9 / (units_per_rep * kReps);
}

// Self-rescheduling callback chains: the heap stays `chains` deep.
double NsPerEvent(int chains, uint64_t total) {
  struct Chain {
    des::Simulator* sim;
    uint64_t remaining;
    SimTime step;
    void Fire() {
      if (--remaining > 0) sim->ScheduleAfter(step, [this] { Fire(); });
    }
  };
  uint64_t fired = 0;
  const double ns = NsPer("des.chains", static_cast<double>(total), [&] {
    des::Simulator sim;
    std::vector<Chain> state;
    state.reserve(static_cast<size_t>(chains));
    for (int i = 0; i < chains; ++i) {
      state.push_back(Chain{&sim, total / static_cast<uint64_t>(chains),
                            static_cast<SimTime>(i % 7 + 1)});
    }
    for (auto& c : state) sim.ScheduleAfter(c.step, [&c] { c.Fire(); });
    sim.RunUntilIdle();
    fired = sim.processed_events();
  });
  return ns * static_cast<double>(total) / static_cast<double>(std::max<uint64_t>(fired, 1));
}

// Adds the tape to a window state in kRun-record runs and fires on the
// rt watermark cadence; returns the outputs of the last repetition.
template <typename State, typename Fire>
double WindowNsPerRecord(const std::string& name, const std::vector<engine::Record>& tape,
                         Fire&& fire, uint64_t* outputs) {
  return NsPer(name, static_cast<double>(tape.size()), [&] {
    State state(engine::WindowAssigner(engine::WindowSpec{}));
    uint64_t fired = 0;
    SimTime next_fire = kFireEvery;
    for (size_t off = 0; off < tape.size(); off += kRun) {
      const size_t n = std::min(kRun, tape.size() - off);
      engine::AddBatch(state, tape.data() + off, n);
      const SimTime watermark = tape[off + n - 1].event_time;
      if (watermark >= next_fire) {
        fired += fire(state, watermark);
        next_fire = watermark + kFireEvery;
      }
    }
    fired += fire(state, Seconds(1 << 30));
    *outputs = fired;
  });
}

}  // namespace

void MeasureLayers(const LayerInputs& inputs, const Options& options, Report* report) {
  const size_t n = TapeLength(options);
  const uint64_t events = options.smoke ? 100'000 : 2'000'000;
  report->Set("des.ns_per_event.shallow", NsPerEvent(64, events), "ns", kReps);
  report->Set("des.ns_per_event.deep", NsPerEvent(4096, events), "ns", kReps);

  double replay_ns = 0;
  for (const auto& [generator, rate] : inputs.generators) {
    driver::GeneratorConfig config = generator;
    config.rate = driver::ConstantRate(rate);
    replay_ns += NsPer("driver.record_stream", static_cast<double>(n), [&] {
      driver::RecordStream stream(config, Rng(options.seed));
      SimTime t = 0;
      uint64_t keys = 0;
      for (size_t i = 0; i < n; ++i) {
        t = stream.NextTime(t);
        keys += stream.Build(t).key;
      }
      g_sink = keys;
    });
  }
  report->Set("driver.record_stream.ns_per_record",
              replay_ns / static_cast<double>(inputs.generators.size()), "ns",
              kReps * inputs.generators.size());

  const std::vector<engine::Record> tape = Tape(inputs.stream, inputs.rate, options.seed, n);
  uint64_t outputs = 0;
  report->Set("engine.agg_window.ns_per_record",
              WindowNsPerRecord<engine::AggWindowState>(
                  "engine.agg_window", tape,
                  [](engine::AggWindowState& s, SimTime wm) { return s.FireUpTo(wm).size(); },
                  &outputs),
              "ns", kReps);
  report->Check(outputs > 0, "agg window replay fired no outputs");
  report->Set("engine.buffered_window.ns_per_record",
              WindowNsPerRecord<engine::BufferedWindowState>(
                  "engine.buffered_window", tape,
                  [](engine::BufferedWindowState& s, SimTime wm) {
                    return s.FireUpTo(wm).outputs.size();
                  },
                  &outputs),
              "ns", kReps);
  report->Check(outputs > 0, "buffered window replay fired no outputs");
  const std::vector<engine::Record> join_tape =
      Tape(workloads::JoinGenerator(), 8e5, options.seed, n);
  report->Set("engine.join_window.ns_per_record",
              WindowNsPerRecord<engine::JoinWindowState>(
                  "engine.join_window", join_tape,
                  [](engine::JoinWindowState& s, SimTime wm) {
                    return s.FireUpTo(wm).outputs.size();
                  },
                  &outputs),
              "ns", kReps);
  report->Check(outputs > 0, "join window replay fired no outputs");

  const engine::Partitioner partitioner(kParts);
  engine::ColumnarBatch cols;
  engine::PartitionPlan plan;
  std::vector<engine::Record> rows;
  report->Set("engine.partition.ns_per_record",
              NsPer("engine.partition", static_cast<double>(n),
                    [&] {
                      for (size_t off = 0; off + kRun <= tape.size(); off += kRun) {
                        cols.LoadKeys(tape.data() + off, kRun);
                        engine::RadixPartition(cols.keys.data(), kRun, partitioner, &plan);
                        engine::GatherRows(tape.data() + off, plan, &rows);
                      }
                    }),
              "ns", kReps);

  engine::ShuffleCombiner combiner(engine::WindowSpec{}.slide);
  engine::RecordBatch combined;
  uint64_t groups = 0;
  report->Set("engine.combine.ns_per_record",
              NsPer("engine.combine", static_cast<double>(n),
                    [&] {
                      groups = 0;
                      for (size_t off = 0; off + kRun <= tape.size(); off += kRun) {
                        combined.Clear();
                        groups += combiner.Combine(tape.data() + off, kRun, &combined);
                      }
                    }),
              "ns", kReps);
  report->Set("engine.combine.out_per_in",
              static_cast<double>(groups) / static_cast<double>(n / kRun * kRun), "ratio",
              n / kRun * kRun);

  const struct {
    const char* name;
    driver::GeneratorConfig generator;
  } keymaps[] = {{"engine.keymap.ns_per_probe.1k", workloads::AggregationGenerator()},
                 {"engine.keymap.ns_per_probe.2m", workloads::ShuffleGenerator()}};
  for (const auto& km : keymaps) {
    std::vector<uint64_t> keys;
    keys.reserve(n);
    for (const engine::Record& r : Tape(km.generator, 1e6, options.seed, n)) {
      keys.push_back(r.key);
    }
    size_t distinct = 0;
    report->Set(km.name,
                NsPer("engine.keymap", static_cast<double>(n),
                      [&] {
                        engine::GroupedKeyMap<uint64_t> map;
                        for (size_t off = 0; off < n; off += kRun) {
                          map.FindOrInsertBatch(keys.data() + off, std::min(kRun, n - off),
                                                [](size_t, uint64_t& v, bool) { v += 1; });
                        }
                        distinct = map.size();
                      }),
                "ns", kReps);
    report->Check(distinct > 0, std::string(km.name) + ": empty key map");
  }
}

void StartRegistry() {
  obs::Registry::Default().set_enabled(true);
  obs::Registry::Default().ResetValues();
}

void ReportRegistryCounts(Report* report) {
  static const char* const kRegistryCounts[] = {
      "driver.queue.pushed_tuples", "driver.sink.outputs",  "engine.records.processed",
      "engine.window.fired",        "engine.shuffle.bytes", "engine.batch.jobs",
      "cluster.net.bytes",          "cluster.net.transfers", "cluster.gc.pauses"};
  const std::vector<obs::MetricRow> rows = obs::Registry::Default().Snapshot();
  for (const char* name : kRegistryCounts) {
    double total = 0;
    for (const obs::MetricRow& row : rows) {
      if (row.kind == obs::MetricRow::Kind::kCounter && row.name == name) total += row.value;
    }
    report->Set(name, total, "count");
  }
}

void ReportRtProfile(const rt::Profiler::Report& profile, Report* report) {
  struct Stage {
    const char* prefix;
    const char* name;
    double compute = 0, stall = 0, wait = 0, idle = 0, records = 0;
  } stages[] = {{"rt-src", "source"}, {"rt-task", "task"}, {"rt-sink", "sink"}};
  for (const rt::Profiler::StageReport& s : profile.stages) {
    for (Stage& st : stages) {
      if (s.name.rfind(st.prefix, 0) != 0) continue;
      st.compute += s.compute_s;
      st.stall += s.stall_s;
      st.wait += s.wait_s;
      st.idle += s.idle_s;
      st.records += static_cast<double>(s.records);
    }
  }
  const uint64_t samples = static_cast<uint64_t>(profile.samples);
  for (const Stage& st : stages) {
    const std::string base = std::string("rt.") + st.name + ".";
    report->Set(base + "compute_s", st.compute, "s", samples);
    report->Set(base + "stall_s", st.stall, "s", samples);
    report->Set(base + "wait_s", st.wait, "s", samples);
    report->Set(base + "idle_s", st.idle, "s", samples);
    report->Set(base + "records", st.records, "count");
  }
  double mean = 0;
  size_t max = 0;
  for (const rt::Profiler::RingReport& r : profile.rings) {
    mean = std::max(mean, r.mean_occupancy);
    max = std::max(max, r.max_occupancy);
  }
  report->Set("rt.ring.mean_occupancy", mean, "envelopes", samples);
  report->Set("rt.ring.max_occupancy", static_cast<double>(max), "envelopes", samples);
}

rt::RtResult RunRtCapacity(rt::RtPipelineConfig config, double records, bool profile) {
  config.paced = false;
  config.profile = profile;
  config.duration = Seconds(records * config.generator.tuples_per_record / config.total_rate);
  return rt::RunRtPipeline(config);
}

rt::RtResult RunRtPaced(rt::RtPipelineConfig config, double records_per_s, double seconds) {
  config.paced = true;
  config.total_rate = records_per_s * config.generator.tuples_per_record;
  config.duration = Seconds(seconds);
  return rt::RunRtPipeline(config);
}

void MeasureRtTwin(const rt::RtPipelineConfig& config, const Options& options,
                   double paced_records_per_s, Report* report) {
  const double t0 = Now();
  const rt::RtResult capacity =
      RunRtCapacity(config, options.smoke ? 2e5 : 4e6, /*profile=*/true);
  RecordSpan("rt_twin.capacity", t0, Now());
  report->Check(capacity.failure.ok() && capacity.profiled,
                "rt twin capacity run: " + capacity.failure.ToString());
  ReportRtProfile(capacity.profile, report);
  const double seconds = options.smoke ? 0.5 : 2.0;
  const Span span("rt_twin.paced");
  const rt::RtResult paced = RunRtPaced(config, paced_records_per_s, seconds);
  report->Check(paced.failure.ok(), "rt twin paced run: " + paced.failure.ToString());
  report->Set("rt.generator_lag_s", paced.wall_seconds - seconds, "s");
}

}  // namespace perfbench
