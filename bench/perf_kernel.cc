// Kernel microbenchmark for the hot paths the whole harness rides on:
//   * des::Simulator fn-event throughput (self-rescheduling callback
//     chains, 64 and 4096 concurrent chains — shallow and deep heaps);
//   * window-state Add/Fire throughput per backend (AggWindowState at
//     1 000 and 100 000 keys, BufferedWindowState, JoinWindowState);
//   * with --smoke, wall-clock of a small sustainable-rate search at
//     --jobs=1 vs the requested --jobs (trial-parallel speedup);
//   * rt_pipeline_b32: the same Flink-aggregation workload on the sdps::rt
//     backend (real threads + SPSC rings), measured records/s;
//   * with --realtime, one smoke per engine model on real threads: measured
//     records/s (unpaced), wall-clock sink latency percentiles (paced), and
//     the DES twin's modeled p50 as a calibration delta. --rt-only skips
//     the DES kernels entirely (the TSan CI job).
//
// Emits results/BENCH_kernel.json. scripts/check_perf.py gates CI on it
// against the committed BENCH_kernel.json at the repo root: any throughput
// metric more than 20% below its committed floor fails the build. Every
// DES measurement is best-of-kRepeats to shave scheduler noise; the rt
// pipeline rows are medians of interleaved profiled/unprofiled pairs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "des/simulator.h"
#include "driver/sustainable.h"
#include "engine/columnar.h"
#include "engine/group_hash.h"
#include "engine/partition.h"
#include "engine/window_state.h"
#include "exec/pool.h"
#include "rt/pipeline.h"
#include "workloads/realtime.h"

using namespace sdps;             // NOLINT
using namespace sdps::workloads;  // NOLINT

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kRepeats = 3;

template <typename Fn>
double BestOf(Fn&& run) {
  double best = 0;
  for (int i = 0; i < kRepeats; ++i) best = std::max(best, run());
  return best;
}

// Self-rescheduling callback chains: every event pops, fires, and pushes,
// so the heap is exercised at a steady depth of `chains` entries.
double FnEventsPerSec(int chains, uint64_t total) {
  struct Chain {
    des::Simulator* sim;
    uint64_t* fired;
    uint64_t remaining;
    SimTime step;
    void Fire() {
      ++*fired;
      if (--remaining > 0) {
        sim->ScheduleAfter(step, [this] { Fire(); });
      }
    }
  };
  return BestOf([&] {
    des::Simulator sim;
    uint64_t fired = 0;
    std::vector<Chain> state;
    state.reserve(static_cast<size_t>(chains));
    for (int i = 0; i < chains; ++i) {
      state.push_back(Chain{&sim, &fired, total / static_cast<uint64_t>(chains),
                            static_cast<SimTime>(i % 7 + 1)});
    }
    const double t0 = Now();
    for (auto& c : state) sim.ScheduleAfter(c.step, [&c] { c.Fire(); });
    sim.RunUntilIdle();
    return static_cast<double>(fired) / (Now() - t0);
  });
}

// Pre-generated record tape: measures window-state work, not the Rng.
std::vector<engine::Record> MakeTape(uint64_t n, uint64_t keys, bool join) {
  Rng rng(42);
  std::vector<engine::Record> recs(n);
  for (uint64_t i = 0; i < n; ++i) {
    recs[i].event_time = static_cast<SimTime>(i / 3);  // ~3 records per us
    recs[i].ingest_time = recs[i].event_time + 1000;
    recs[i].key = rng.NextBelow(keys);
    recs[i].value = 1.0;
    if (join) {
      recs[i].stream =
          (i & 31) ? engine::StreamId::kPurchases : engine::StreamId::kAds;
    }
  }
  return recs;
}

template <typename State, typename FireCount>
double RecordsPerSec(const std::vector<engine::Record>& tape, FireCount&& fired) {
  return BestOf([&] {
    engine::WindowAssigner assigner({Seconds(8), Seconds(4)});
    State state(assigner);
    uint64_t outputs = 0;
    const double t0 = Now();
    for (uint64_t i = 0; i < tape.size(); ++i) {
      state.Add(tape[i]);
      if ((i & 0xFFFFF) == 0xFFFFF) {
        outputs += fired(state, tape[i].event_time - Seconds(8));
      }
    }
    outputs += fired(state, Seconds(1 << 30));
    const double dt = Now() - t0;
    if (outputs == 0) std::fprintf(stderr, "suspicious: no outputs fired\n");
    return static_cast<double>(tape.size()) / dt;
  });
}

// Shuffle-fabric kernels (engine/columnar.h). The shuffle write as the
// engines execute it, block by block over a large-cardinality record
// stream: the columnar path (key-lane load, one-pass radix plan, exact
// flat destination-major gather — one allocation, sequential writes) vs
// the per-record loop it replaced (PartitionForKey's 64-bit divide, then
// push_back into one growing vector per destination, Spark's map-output
// shape). 48 partitions — a non-power of two, so the Partitioner's
// multiply-shift reciprocal path (not the pow2 mask fast path) is what
// gets timed. Their exact ratio is gated as shuffle_radix_speedup.
constexpr int kShuffleParts = 48;
// Runtime-opaque copy for the scalar reference: the engines' per-record
// path divides by a runtime task count, so the baseline must pay a real
// divide — a constexpr divisor would let the compiler strength-reduce it
// into exactly the multiply-shift the Partitioner is being credited for.
volatile int g_shuffle_parts = kShuffleParts;

double ShuffleScatterRecordsPerSec(bool radix) {
  Rng rng(7);
  const size_t n = 1 << 20;
  // Block = one staging run between flushes. 1024 keeps the radix working
  // set (key lane + index + gathered rows) cache-resident, which is the
  // regime the columnar path is built for; block sizes past ~16K spill
  // L2 and erode the win.
  const size_t block = 1024;
  std::vector<engine::Record> tape(n);
  for (size_t i = 0; i < n; ++i) {
    tape[i].key = rng.NextBelow(2'000'000);
    tape[i].event_time = static_cast<SimTime>(i / 3);
    tape[i].value = 1.0;
  }
  engine::Partitioner partitioner(kShuffleParts);
  engine::ColumnarBatch cols;
  engine::PartitionPlan plan;
  return BestOf([&] {
    uint64_t sink = 0;
    const double t0 = Now();
    for (size_t off = 0; off < n; off += block) {
      const engine::Record* base = tape.data() + off;
      if (radix) {
        cols.LoadKeys(base, block);
        engine::RadixPartition(cols.keys.data(), block, partitioner, &plan);
        std::vector<engine::Record> rows;
        engine::GatherRows(base, plan, &rows);
        sink += plan.RunSize(0) + static_cast<uint64_t>(rows[0].key);
      } else {
        const int parts = g_shuffle_parts;
        std::vector<std::vector<engine::Record>> raw(static_cast<size_t>(parts));
        for (size_t i = 0; i < block; ++i) {
          raw[static_cast<size_t>(engine::PartitionForKey(base[i].key, parts))]
              .push_back(base[i]);
        }
        sink += raw[0].size();
      }
    }
    const double dt = Now() - t0;
    if (sink == ~0ull) std::fprintf(stderr, "impossible\n");
    return static_cast<double>(n) / dt;
  });
}

// Combiner pre-aggregation over batch-sized runs drawn from a large key
// space: records/s through ShuffleCombiner::Combine at a run size typical
// of the batched data plane's link transfers.
double ShuffleCombineRecordsPerSec() {
  Rng rng(11);
  const size_t n = 1 << 21;
  const size_t run = 4096;
  std::vector<engine::Record> tape(n);
  for (size_t i = 0; i < n; ++i) {
    tape[i].event_time = static_cast<SimTime>(i / 3);
    tape[i].key = rng.NextBelow(2'000'000);
    tape[i].value = 1.0;
  }
  engine::ShuffleCombiner combiner(Seconds(4));
  engine::RecordBatch out;
  return BestOf([&] {
    uint64_t groups = 0;
    const double t0 = Now();
    for (size_t i = 0; i + run <= n; i += run) {
      out.Clear();
      groups += combiner.Combine(&tape[i], run, &out);
    }
    const double dt = Now() - t0;
    if (groups == 0) std::fprintf(stderr, "suspicious: combiner emitted 0\n");
    return static_cast<double>(n / run * run) / dt;
  });
}

// The scalar flat probe GroupedKeyMap replaced on every keyed hot path,
// kept here only as the group_probe_* baseline: interleaved uint64 key /
// value slots, Fibonacci bucket (top bits of key * 2^64/phi), linear
// probing, grown at 3/4 load, the all-ones key (the empty-slot sentinel)
// stored out of line.
class FlatProbeMap {
 public:
  size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }

  uint64_t& FindOrInsert(uint64_t key, bool* inserted) {
    if (key == kEmptyKey) [[unlikely]] {
      *inserted = !has_empty_key_;
      has_empty_key_ = true;
      return empty_val_;
    }
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) Grow();
    for (size_t i = Bucket(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) {
        *inserted = false;
        return s.val;
      }
      if (s.key == kEmptyKey) {
        s = Slot{key, 0};
        ++size_;
        *inserted = true;
        return s.val;
      }
    }
  }

 private:
  struct Slot {
    uint64_t key;
    uint64_t val;
  };
  static constexpr uint64_t kEmptyKey = ~0ull;

  size_t Bucket(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    const size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{kEmptyKey, 0});
    mask_ = cap - 1;
    shift_ = 64 - __builtin_ctzll(cap);
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      size_t i = Bucket(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;  // entries excluding the out-of-line empty key
  size_t mask_ = 0;
  int shift_ = 64;
  bool has_empty_key_ = false;
  uint64_t empty_val_ = 0;
};

// Group-probing hash kernels (engine/group_hash.h): GroupedKeyMap vs the
// scalar flat probe above, folding the same uniform key stream
// (find-or-insert + value increment — the combiner-shaped access
// pattern). Two regimes:
//   * cache-cold: millions of distinct scrambled keys — the table runs to
//     hundreds of MB so home probes miss even a large server L3 (the key
//     space is sized for 256MB+ tables; 1M keys would sit entirely inside
//     the 260MB L3 some cloud hosts expose and measure cache, not DRAM).
//     Keys are passed through the splitmix64 finalizer so group occupancy
//     is Poisson, not the artificially-perfect spread Fibonacci hashing
//     gives dense integer ids. The grouped-batch / flat ratio is gated as
//     group_probe_speedup (>= x1.5).
//   * cache-resident: 4k distinct dense keys — the windowed-aggregation
//     regime (small catalogue ids). Floors only: a flat linear probe is
//     already near-optimal when the whole table sits in L1/L2, so the
//     grouped map's two-array layout trails it slightly here; the floor
//     gates that the gap stays small, not that grouping wins.
// The cold run also exports the grouped map's probe-length distribution
// (ProbeStats, in groups probed past home) so tag/load-factor clustering
// regressions are visible directly, not just as throughput loss.
struct GroupProbeResult {
  double flat_per_s = 0;           // FlatProbeMap loop
  double grouped_scalar_per_s = 0; // GroupedKeyMap, one FindOrInsert per key
  double grouped_batch_per_s = 0;  // GroupedKeyMap::FindOrInsertBatch
  engine::GroupedKeyMap<uint64_t>::ProbeStats stats;
};

GroupProbeResult GroupProbeBench(uint64_t key_space, size_t n_ops,
                                 bool scramble) {
  Rng rng(23);
  std::vector<uint64_t> keys(n_ops);
  for (auto& k : keys) {
    k = rng.NextBelow(key_space);
    if (scramble) k = engine::MixKey(k);
  }
  const size_t run = 4096;  // the batched data plane's link-transfer shape
  GroupProbeResult r;
  r.flat_per_s = BestOf([&] {
    FlatProbeMap map;
    const double t0 = Now();
    for (const uint64_t k : keys) {
      bool inserted;
      map.FindOrInsert(k, &inserted) += 1;
    }
    const double dt = Now() - t0;
    if (map.size() == 0) std::fprintf(stderr, "suspicious: empty flat map\n");
    return static_cast<double>(n_ops) / dt;
  });
  r.grouped_scalar_per_s = BestOf([&] {
    engine::GroupedKeyMap<uint64_t> map;
    const double t0 = Now();
    for (const uint64_t k : keys) {
      bool inserted;
      map.FindOrInsert(k, &inserted) += 1;
    }
    const double dt = Now() - t0;
    if (map.size() == 0) std::fprintf(stderr, "suspicious: empty grouped map\n");
    return static_cast<double>(n_ops) / dt;
  });
  engine::GroupedKeyMap<uint64_t> batched;
  r.grouped_batch_per_s = BestOf([&] {
    batched = engine::GroupedKeyMap<uint64_t>();
    const double t0 = Now();
    for (size_t off = 0; off < n_ops; off += run) {
      const size_t m = std::min(run, n_ops - off);
      batched.FindOrInsertBatch(keys.data() + off, m,
                                [](size_t, uint64_t& v, bool) { v += 1; });
    }
    const double dt = Now() - t0;
    return static_cast<double>(n_ops) / dt;
  });
  r.stats = batched.ComputeProbeStats();
  return r;
}

// End-to-end pipeline throughput: one Flink aggregation trial, driven
// hard enough that the driver queues hold a backlog (so PopBatch finds
// full batches), measured as logical generator records simulated per
// wall-clock second. The same logical workload runs at --batch=1 (the
// per-record event sequence) and at a coalescing batch size; the ratio is
// the data-plane batching speedup the CI floor gates.
constexpr int kPipelineBatch = 32;

double PipelineRecordsPerSec(int batch) {
  driver::ExperimentConfig config =
      MakeExperiment(engine::QueryKind::kAggregation, 2, 2.5e6, Seconds(10));
  config.batch = batch;
  // Overload is intentional here: neutralize the sustainability limits so
  // the full horizon is simulated at every batch size.
  config.backlog_hard_limit_s = 1e9;
  config.backlog_end_limit_s = 1e9;
  config.backlog_slope_frac = 1e9;
  auto factory = MakeEngineFactory(
      Engine::kFlink, engine::QueryConfig{engine::QueryKind::kAggregation, {}});
  const double records = config.total_rate * ToSeconds(config.duration) /
                         static_cast<double>(config.generator.tuples_per_record);
  return BestOf([&] {
    const double t0 = Now();
    const auto result = driver::RunExperiment(config, factory);
    const double dt = Now() - t0;
    if (result.output_records == 0) {
      std::fprintf(stderr, "suspicious: pipeline trial produced no outputs\n");
    }
    return records / dt;
  });
}

// End-to-end shuffle-workload throughput: the large-cardinality shuffle
// preset (2M uniform keys) through the Flink engine with the batched data
// plane and the shuffle-side combiner on — the configuration the shuffle
// fabric exists for.
double PipelineShuffleRecordsPerSec() {
  driver::ExperimentConfig config = MakeShuffle(2, 2.5e6, Seconds(10));
  config.batch = kPipelineBatch;
  config.backlog_hard_limit_s = 1e9;
  config.backlog_end_limit_s = 1e9;
  config.backlog_slope_frac = 1e9;
  EngineTuning tuning;
  tuning.shuffle_combine = true;
  auto factory = MakeEngineFactory(
      Engine::kFlink, engine::QueryConfig{engine::QueryKind::kAggregation, {}},
      tuning);
  const double records = config.total_rate * ToSeconds(config.duration) /
                         static_cast<double>(config.generator.tuples_per_record);
  return BestOf([&] {
    const double t0 = Now();
    const auto result = driver::RunExperiment(config, factory);
    const double dt = Now() - t0;
    if (result.output_records == 0) {
      std::fprintf(stderr, "suspicious: shuffle trial produced no outputs\n");
    }
    return records / dt;
  });
}

// Realtime kernel rows: the same Flink-aggregation workload as
// pipeline_b32 executed on the rt backend — real threads, SPSC rings,
// wall-clock time — unpaced (sources emit as fast as the rings accept), so
// the number is the host's measured pipeline capacity rather than a model
// prediction. After one discarded warm-up run (the process's first rt run
// pays for cold thread and ring set-up), measured as kRtPairs back-to-back
// pairs, one run with the sampling profiler on (the committed floor — the
// observability plane must not cost throughput) and one with it off,
// alternating which side goes first. Each row is its side's median;
// rt_profiler_overhead gates the median of the per-pair ratios, so host
// drift between pairs cancels and a few noisy pairs cannot trip the gate.
constexpr int kRtPairs = 7;

struct RtPipelinePairs {
  double profiled = 0;    // median records/s, profiler on
  double unprofiled = 0;  // median records/s, profiler off
  double overhead = 0;    // median of per-pair profiled/unprofiled ratios
  std::vector<double> ratios;  // per pair, in run order
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

RtPipelinePairs MeasureRtPipelinePairs() {
  rt::RtPipelineConfig config = MakeRealtime(
      Engine::kFlink, engine::QueryKind::kAggregation, 2, 2.5e6, Seconds(10));
  config.batch = kPipelineBatch;
  config.trace = bench::RtTrace();
  const auto run = [&config](bool profile) {
    config.profile = profile;
    const rt::RtResult r = rt::RunRtPipeline(config);
    if (r.output_records == 0) {
      std::fprintf(stderr, "suspicious: rt pipeline produced no outputs\n");
    }
    return r.records_per_s;
  };
  run(false);  // warm-up
  std::vector<double> on, off, ratios;
  for (int i = 0; i < kRtPairs; ++i) {
    const bool on_first = i % 2 == 0;
    const double first = run(on_first);
    const double second = run(!on_first);
    on.push_back(on_first ? first : second);
    off.push_back(on_first ? second : first);
    ratios.push_back(off.back() > 0 ? on.back() / off.back() : 0.0);
  }
  return {Median(on), Median(off), Median(ratios), ratios};
}

// Per-stage stall/compute/idle table from a profiled run (the sampler's
// CPU/occupancy snapshots + the stages' own block/wait tallies).
void PrintStageBreakdown(const rt::Profiler::Report& report) {
  if (report.stages.empty()) return;
  printf("    %-12s %8s %9s %8s %8s %8s %12s\n", "stage", "wall_s", "compute_s",
         "stall_s", "wait_s", "idle_s", "records");
  for (const auto& s : report.stages) {
    printf("    %-12s %8.2f %9.2f %8.2f %8.2f %8.2f %12llu\n", s.name.c_str(),
           s.wall_s, s.compute_s, s.stall_s, s.wait_s, s.idle_s,
           static_cast<unsigned long long>(s.records));
  }
  double max_mean = 0;
  std::string busiest;
  for (const auto& r : report.rings) {
    if (r.mean_occupancy >= max_mean) {
      max_mean = r.mean_occupancy;
      busiest = r.name;
    }
  }
  if (!busiest.empty()) {
    printf("    busiest ring %s: mean occupancy %.1f (%d samples over %.1f s)\n",
           busiest.c_str(), max_mean, static_cast<int>(report.samples),
           report.duration_s);
  }
}

// One engine's --realtime smoke: an unpaced run for measured throughput
// plus a paced run at a light offered rate for wall-clock sink latency.
struct RtSmoke {
  rt::RtResult unpaced;
  rt::RtResult paced;
  /// DES twin's modeled event-latency p50 at the paced rate, seconds
  /// (0 when the calibration run was skipped under --rt-only).
  double des_p50_s = 0;
};

RtSmoke RunRtSmoke(Engine engine, double paced_rate, SimTime duration,
                   bool calibrate) {
  RtSmoke smoke;
  rt::RtPipelineConfig config = MakeRealtime(
      engine, engine::QueryKind::kAggregation, 2, 2.5e6, duration);
  config.batch = std::max(1, bench::BatchSize());
  // The unpaced (capacity) run carries the observability plane: profiler
  // always (the stall/compute/idle breakdown is part of the smoke's
  // output), wall-clock tracing when --rt-trace was given.
  config.profile = true;
  config.trace = bench::RtTrace();
  smoke.unpaced = rt::RunRtPipeline(config);
  // The paced (latency) run stays unprofiled unless asked: percentiles
  // shouldn't carry even the sampler's noise by default.
  config.profile = bench::RtProfile();
  config.total_rate = paced_rate;
  config.paced = true;
  smoke.paced = rt::RunRtPipeline(config);
  if (calibrate) {
    // The DES twin at the same offered rate: its latency is what the model
    // *predicts* for the paper cluster; the paced rt run is what this host
    // actually *does*. The ratio is the calibration delta.
    const auto des = bench::MeasureAt(engine, engine::QueryKind::kAggregation, 2,
                                      paced_rate, duration);
    smoke.des_p50_s = ToSeconds(des.event_latency.Quantile(0.5));
  }
  return smoke;
}

double SearchWallClock(int jobs) {
  driver::SearchConfig search;
  // Deliberately unsustainable start so the ladder descends several rungs
  // and the bisection phase runs — that is the fan-out being timed.
  search.initial_rate = 2.0e6;
  search.trial_duration = Seconds(10);
  search.refine_iterations = 3;
  search.jobs = jobs;
  driver::ExperimentConfig base =
      MakeExperiment(engine::QueryKind::kAggregation, 2, search.initial_rate,
                     search.trial_duration);
  auto factory = MakeEngineFactory(
      Engine::kFlink, engine::QueryConfig{engine::QueryKind::kAggregation, {}});
  const double t0 = Now();
  const auto result = driver::FindSustainableThroughput(base, factory, search);
  const double dt = Now() - t0;
  std::printf("  search --jobs=%d: %.2fs wall, %zu trials, %.2f M/s\n", jobs, dt,
              result.trials.size(), result.sustainable_rate / 1e6);
  return dt;
}

}  // namespace

int main(int argc, char** argv) {
  sdps::bench::TelemetryScope telemetry(argc, argv);
  bool smoke = false;
  bool rt_only = false;
  FlagParser flags;
  flags.AddSwitch("--smoke", &smoke,
                  "also time a small rate search at --jobs=1 vs --jobs; "
                  "shortens the --realtime trials");
  flags.AddSwitch("--rt-only", &rt_only,
                  "skip the DES kernels and run only the realtime backend "
                  "(the TSan CI smoke; implies --realtime)");
  bench::ParseFlagsOrExit(flags, argc, argv);
  const bool realtime = bench::Realtime() || rt_only;
  printf("== perf_kernel: DES + window-state hot-path throughput ==\n\n");

  double fn64 = 0, fn4k = 0, agg1k = 0, agg100k = 0, buffered = 0, join = 0;
  double pipe_b1 = 0, pipe_bn = 0;
  RtPipelinePairs rt_pipe;
  double shuffle_radix = 0, shuffle_scalar = 0, shuffle_combine = 0;
  double pipe_shuffle = 0;
  GroupProbeResult probe_cold, probe_hot;
  if (!rt_only) {
    fn64 = FnEventsPerSec(64, 4'000'000);
    printf("  fn_events_64     %8.1f M events/s\n", fn64 / 1e6);
    fn4k = FnEventsPerSec(4096, 4'000'000);
    printf("  fn_events_4096   %8.1f M events/s\n", fn4k / 1e6);

    const auto agg_fire = [](engine::AggWindowState& s, SimTime t) {
      return s.FireUpTo(t).size();
    };
    const auto buf_fire = [](auto& s, SimTime t) {
      return s.FireUpTo(t).outputs.size();
    };
    agg1k = RecordsPerSec<engine::AggWindowState>(MakeTape(3'000'000, 1000, false),
                                                  agg_fire);
    printf("  agg_1k_keys      %8.1f M records/s\n", agg1k / 1e6);
    agg100k = RecordsPerSec<engine::AggWindowState>(
        MakeTape(3'000'000, 100'000, false), agg_fire);
    printf("  agg_100k_keys    %8.1f M records/s\n", agg100k / 1e6);
    buffered = RecordsPerSec<engine::BufferedWindowState>(
        MakeTape(2'000'000, 1000, false), buf_fire);
    printf("  buffered_1k_keys %8.1f M records/s\n", buffered / 1e6);
    join = RecordsPerSec<engine::JoinWindowState>(MakeTape(2'000'000, 200'000, true),
                                                  buf_fire);
    printf("  join_200k_keys   %8.1f M records/s\n", join / 1e6);

    shuffle_radix = ShuffleScatterRecordsPerSec(/*radix=*/true);
    printf("  shuffle_radix    %8.1f M records/s  (%d parts)\n",
           shuffle_radix / 1e6, kShuffleParts);
    shuffle_scalar = ShuffleScatterRecordsPerSec(/*radix=*/false);
    printf("  shuffle_scalar   %8.1f M records/s  (x%.2f radix speedup)\n",
           shuffle_scalar / 1e6,
           shuffle_scalar > 0 ? shuffle_radix / shuffle_scalar : 0.0);
    shuffle_combine = ShuffleCombineRecordsPerSec();
    printf("  shuffle_combine  %8.1f M records/s\n", shuffle_combine / 1e6);

    probe_cold = GroupProbeBench(16'000'000, 1 << 23, /*scramble=*/true);
    printf("  group_probe_cold %8.1f M probes/s  (flat %.1f, grouped scalar "
           "%.1f; x%.2f batch speedup)\n",
           probe_cold.grouped_batch_per_s / 1e6, probe_cold.flat_per_s / 1e6,
           probe_cold.grouped_scalar_per_s / 1e6,
           probe_cold.flat_per_s > 0
               ? probe_cold.grouped_batch_per_s / probe_cold.flat_per_s
               : 0.0);
    printf("    cold probe lengths: mean %.3f, max %zu groups "
           "(capacity %zu)\n",
           probe_cold.stats.mean_probe, probe_cold.stats.max_probe,
           probe_cold.stats.capacity);
    probe_hot = GroupProbeBench(4096, 1 << 22, /*scramble=*/false);
    printf("  group_probe_hot  %8.1f M probes/s  (flat %.1f; cache-resident)\n",
           probe_hot.grouped_batch_per_s / 1e6, probe_hot.flat_per_s / 1e6);

    pipe_b1 = PipelineRecordsPerSec(1);
    printf("  pipeline_b1      %8.1f k records/s\n", pipe_b1 / 1e3);
    pipe_bn = PipelineRecordsPerSec(kPipelineBatch);
    printf("  pipeline_b%-2d     %8.1f k records/s  (x%.2f vs --batch=1)\n",
           kPipelineBatch, pipe_bn / 1e3, pipe_bn / pipe_b1);
    pipe_shuffle = PipelineShuffleRecordsPerSec();
    printf("  pipeline_shuffle_b%-2d %4.1f k records/s  (2M keys, combiner on)\n",
           kPipelineBatch, pipe_shuffle / 1e3);

    rt_pipe = MeasureRtPipelinePairs();
    printf("  rt_pipeline_b%-2d  %8.1f k records/s  (real threads, profiler on)\n",
           kPipelineBatch, rt_pipe.profiled / 1e3);
    printf("  rt_pipeline_b%-2d  %8.1f k records/s  (profiler off; overhead "
           "x%.3f, median of %d pairs)\n",
           kPipelineBatch, rt_pipe.unprofiled / 1e3, rt_pipe.overhead, kRtPairs);
    printf("    per-pair overhead:");
    for (const double r : rt_pipe.ratios) printf(" x%.3f", r);
    printf("\n");
  }

  // --realtime: one smoke per engine model on real threads — measured
  // records/s from the unpaced run, wall-clock sink latency from the paced
  // run, and (outside --rt-only) the DES twin's modeled p50 for the
  // calibration delta.
  const Engine kEngines[] = {Engine::kFlink, Engine::kStorm, Engine::kSpark};
  RtSmoke rt_smokes[3];
  const double rt_paced_rate = 4e5;  // tuples/s, light enough for any host
  const SimTime rt_duration = smoke ? Seconds(6) : Seconds(30);
  if (realtime) {
    printf("\nrealtime smoke (2 sources, batch=%d, paced at %.0f k tuples/s "
           "for %.0f s):\n",
           std::max(1, bench::BatchSize()), rt_paced_rate / 1e3,
           ToSeconds(rt_duration));
    for (int e = 0; e < 3; ++e) {
      rt_smokes[e] = RunRtSmoke(kEngines[e], rt_paced_rate, rt_duration, !rt_only);
      const RtSmoke& s = rt_smokes[e];
      printf("  %-5s %8.1f k records/s measured; paced p50/p95/p99 = "
             "%.3f/%.3f/%.3f s",
             EngineName(kEngines[e]).c_str(), s.unpaced.records_per_s / 1e3,
             s.paced.event_p50_s, s.paced.event_p95_s, s.paced.event_p99_s);
      if (s.des_p50_s > 0) {
        printf("  (DES modeled p50 %.3f s, delta x%.2f)", s.des_p50_s,
               s.paced.event_p50_s / s.des_p50_s);
      }
      printf("\n");
      if (s.unpaced.profiled) PrintStageBreakdown(s.unpaced.profile);
      if (s.unpaced.late_dropped_tuples != 0 || s.paced.late_dropped_tuples != 0) {
        std::fprintf(stderr, "suspicious: rt %s dropped late tuples\n",
                     EngineName(kEngines[e]).c_str());
      }
    }
  }

  double search_j1 = 0, search_jn = 0;
  int jn = 1;
  if (smoke && !rt_only) {
    jn = exec::ResolveJobs(bench::Jobs());
    printf("\nsearch smoke (Flink agg, 2 workers, 10s trials):\n");
    search_j1 = SearchWallClock(1);
    search_jn = jn > 1 ? SearchWallClock(jn) : search_j1;
    if (jn > 1 && search_jn > 0) {
      printf("  speedup x%.2f at --jobs=%d\n", search_j1 / search_jn, jn);
    }
  }

  const std::string path = bench::ResultsPath("BENCH_kernel.json");
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return bench::Exit(telemetry, 2);
  }
  std::fprintf(f, "{\n  \"metrics\": {\n");
  if (!rt_only) {
    std::fprintf(f, "    \"fn_events_64_per_s\": %.0f,\n", fn64);
    std::fprintf(f, "    \"fn_events_4096_per_s\": %.0f,\n", fn4k);
    std::fprintf(f, "    \"agg_1k_records_per_s\": %.0f,\n", agg1k);
    std::fprintf(f, "    \"agg_100k_records_per_s\": %.0f,\n", agg100k);
    std::fprintf(f, "    \"buffered_records_per_s\": %.0f,\n", buffered);
    std::fprintf(f, "    \"join_records_per_s\": %.0f,\n", join);
    std::fprintf(f, "    \"shuffle_partition_records_per_s\": %.0f,\n",
                 shuffle_radix);
    std::fprintf(f, "    \"shuffle_scalar_records_per_s\": %.0f,\n",
                 shuffle_scalar);
    std::fprintf(f, "    \"shuffle_combine_records_per_s\": %.0f,\n",
                 shuffle_combine);
    std::fprintf(f, "    \"group_probe_cold_flat_per_s\": %.0f,\n",
                 probe_cold.flat_per_s);
    std::fprintf(f, "    \"group_probe_cold_scalar_per_s\": %.0f,\n",
                 probe_cold.grouped_scalar_per_s);
    std::fprintf(f, "    \"group_probe_cold_batch_per_s\": %.0f,\n",
                 probe_cold.grouped_batch_per_s);
    std::fprintf(f, "    \"group_probe_hot_flat_per_s\": %.0f,\n",
                 probe_hot.flat_per_s);
    std::fprintf(f, "    \"group_probe_hot_batch_per_s\": %.0f,\n",
                 probe_hot.grouped_batch_per_s);
    std::fprintf(f, "    \"group_probe_cold_max_probe_groups\": %zu,\n",
                 probe_cold.stats.max_probe);
    std::fprintf(f, "    \"group_probe_cold_mean_probe_milligroups\": %.0f,\n",
                 probe_cold.stats.mean_probe * 1000.0);
    std::fprintf(f, "    \"pipeline_b1_records_per_s\": %.0f,\n", pipe_b1);
    std::fprintf(f, "    \"pipeline_b%d_records_per_s\": %.0f,\n", kPipelineBatch,
                 pipe_bn);
    std::fprintf(f, "    \"pipeline_shuffle_b%d_records_per_s\": %.0f,\n",
                 kPipelineBatch, pipe_shuffle);
    std::fprintf(f, "    \"rt_pipeline_b%d_records_per_s\": %.0f,\n",
                 kPipelineBatch, rt_pipe.profiled);
    std::fprintf(f, "    \"rt_pipeline_b%d_noprof_records_per_s\": %.0f\n",
                 kPipelineBatch, rt_pipe.unprofiled);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"ratios\": {\n");
    std::fprintf(f,
                 "    \"pipeline_batch_speedup\": {\"num\": "
                 "\"pipeline_b%d_records_per_s\", \"den\": "
                 "\"pipeline_b1_records_per_s\", \"value\": %.3f},\n",
                 kPipelineBatch, pipe_bn / pipe_b1);
    std::fprintf(f,
                 "    \"shuffle_radix_speedup\": {\"num\": "
                 "\"shuffle_partition_records_per_s\", \"den\": "
                 "\"shuffle_scalar_records_per_s\", \"value\": %.3f},\n",
                 shuffle_scalar > 0 ? shuffle_radix / shuffle_scalar : 0.0);
    std::fprintf(f,
                 "    \"group_probe_speedup\": {\"num\": "
                 "\"group_probe_cold_batch_per_s\", \"den\": "
                 "\"group_probe_cold_flat_per_s\", \"value\": %.3f},\n",
                 probe_cold.flat_per_s > 0
                     ? probe_cold.grouped_batch_per_s / probe_cold.flat_per_s
                     : 0.0);
    std::fprintf(f,
                 "    \"rt_profiler_overhead\": {\"num\": "
                 "\"rt_pipeline_b%d_records_per_s\", \"den\": "
                 "\"rt_pipeline_b%d_noprof_records_per_s\", \"value\": %.3f}\n",
                 kPipelineBatch, kPipelineBatch, rt_pipe.overhead);
    std::fprintf(f, "  },\n");
  } else {
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"realtime\": {\"ran\": %s", realtime ? "true" : "false");
  if (realtime) {
    std::fprintf(f,
                 ", \"batch\": %d, \"paced_rate_tuples_per_s\": %.0f, "
                 "\"duration_s\": %.0f,\n    \"engines\": {",
                 std::max(1, bench::BatchSize()), rt_paced_rate,
                 ToSeconds(rt_duration));
    for (int e = 0; e < 3; ++e) {
      const RtSmoke& s = rt_smokes[e];
      std::fprintf(
          f,
          "%s\n      \"%s\": {\"records_per_s\": %.0f, \"p50_s\": %.4f, "
          "\"p95_s\": %.4f, \"p99_s\": %.4f, \"des_p50_s\": %.4f, "
          "\"calibration_p50_ratio\": %.3f, \"late_dropped_tuples\": %llu",
          e == 0 ? "" : ",", EngineName(kEngines[e]).c_str(),
          s.unpaced.records_per_s, s.paced.event_p50_s, s.paced.event_p95_s,
          s.paced.event_p99_s, s.des_p50_s,
          s.des_p50_s > 0 ? s.paced.event_p50_s / s.des_p50_s : 0.0,
          static_cast<unsigned long long>(s.paced.late_dropped_tuples +
                                          s.unpaced.late_dropped_tuples));
      if (s.unpaced.profiled) {
        const rt::Profiler::Report& report = s.unpaced.profile;
        std::fprintf(f, ",\n        \"profiler_samples\": %lld, \"stages\": [",
                     static_cast<long long>(report.samples));
        for (size_t i = 0; i < report.stages.size(); ++i) {
          const auto& st = report.stages[i];
          std::fprintf(f,
                       "%s\n          {\"name\": \"%s\", \"wall_s\": %.3f, "
                       "\"compute_s\": %.3f, \"stall_s\": %.3f, \"wait_s\": "
                       "%.3f, \"idle_s\": %.3f, \"records\": %llu}",
                       i == 0 ? "" : ",", st.name.c_str(), st.wall_s,
                       st.compute_s, st.stall_s, st.wait_s, st.idle_s,
                       static_cast<unsigned long long>(st.records));
        }
        std::fprintf(f, "\n        ]");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n    }");
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"search_smoke\": {\"ran\": %s, \"jobs\": %d, "
                  "\"wall_s_jobs1\": %.3f, \"wall_s_jobsN\": %.3f},\n",
               smoke && !rt_only ? "true" : "false", jn, search_j1, search_jn);
  std::fprintf(f, "  \"repeats\": %d\n}\n", kRepeats);
  std::fclose(f);
  printf("\nwrote %s\n", path.c_str());
  return bench::Exit(telemetry);
}
