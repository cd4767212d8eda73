#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "workloads/calibration.h"

namespace perfbench {

using namespace sdps;  // NOLINT

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

struct SpanRecord {
  std::string name;
  double start;
  double end;
};
bool g_spans_enabled = false;
std::vector<SpanRecord> g_spans;

}  // namespace

void EnableSpans() { g_spans_enabled = true; }

void RecordSpan(const std::string& name, double start, double end) {
  if (g_spans_enabled) g_spans.push_back({name, start, end});
}

bool WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double epoch = g_spans.empty() ? 0 : g_spans.front().start;
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f}",
                 i == 0 ? "" : ",", s.name.c_str(), (s.start - epoch) * 1e6,
                 (s.end - s.start) * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double MedianWall(int reps, const std::function<void()>& fn) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn();
    walls.push_back(Now() - t0);
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
  std::printf("  %-40s %14.6g %-6s (n=%llu)\n", name.c_str(), value, unit.c_str(),
              static_cast<unsigned long long>(samples));
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("  CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Info(const std::string& line) const { std::printf("%s\n", line.c_str()); }

Percentile HistogramPercentile(const obs::Histogram& histogram, double q) {
  Percentile p;
  const std::vector<uint64_t> counts = histogram.bucket_counts();
  const std::vector<double>& bounds = histogram.bounds();
  for (const uint64_t c : counts) p.n += c;
  if (p.n == 0) return p;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(p.n))));
  p.beyond = p.n - rank;
  uint64_t below = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (below + counts[i] < rank) {
      below += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    const double within =
        static_cast<double>(rank - below) / static_cast<double>(counts[i]);
    p.value = lo + (hi - lo) * within;
    break;
  }
  return p;
}

namespace {

uint64_t Mix(uint64_t k) {
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

}  // namespace

void OutputDigest::Add(const engine::OutputRecord& out) {
  uint64_t value_bits = 0;
  if (with_value_) std::memcpy(&value_bits, &out.value, sizeof(value_bits));
  sum_ += Mix(out.key ^ Mix(static_cast<uint64_t>(out.window_end) ^
                            Mix(out.weight ^ Mix(value_bits))));
  ++count_;
}

bool Canonicalize(const std::vector<engine::OutputRecord>& outs, Canon* canon) {
  bool once = true;
  for (const engine::OutputRecord& out : outs) {
    once &= canon->emplace(std::make_pair(out.key, out.window_end),
                           std::make_pair(out.value, out.weight))
                .second;
  }
  return once;
}

bool SameOutputs(const Canon& a, const Canon& b, double rel_tol) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.second != ib->second.second) {
      return false;
    }
    const double x = ia->second.first;
    const double y = ib->second.first;
    if (std::fabs(x - y) > rel_tol * std::max({1.0, std::fabs(x), std::fabs(y)})) {
      return false;
    }
  }
  return true;
}

namespace {

class ProbeSut final : public driver::Sut {
 public:
  ProbeSut(std::unique_ptr<driver::Sut> inner, std::vector<TrialStats>* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }

  Status Start(const driver::SutContext& ctx) override {
    ctx_ = ctx;
    start_ = Now();
    return inner_->Start(ctx);
  }

  void Stop() override {
    inner_->Stop();
    TrialStats stats;
    const double end = Now();
    RecordSpan("trial." + inner_->name(), start_, end);
    stats.wall_s = end - start_;
    uint64_t tuples = 0;
    for (driver::DriverQueue* queue : ctx_.queues) tuples += queue->total_pushed_tuples();
    stats.records = static_cast<double>(tuples) / workloads::kBenchTuplesPerRecord;
    stats.events = ctx_.sim->processed_events();
    const driver::Histogram& latency = ctx_.sink->event_latency();
    stats.latency_n = latency.count();
    stats.latency_p50_s = ToSeconds(latency.Quantile(0.50));
    stats.latency_p99_s = ToSeconds(latency.Quantile(0.99));
    log_->push_back(stats);
  }

  void ExportSeries(std::map<std::string, driver::TimeSeries>* out) const override {
    inner_->ExportSeries(out);
  }

 private:
  std::unique_ptr<driver::Sut> inner_;
  std::vector<TrialStats>* log_;
  driver::SutContext ctx_;
  double start_ = 0;
};

}  // namespace

driver::SutFactory Probed(driver::SutFactory inner, std::vector<TrialStats>* log) {
  return [inner = std::move(inner), log](const driver::SutContext& ctx) {
    return std::make_unique<ProbeSut>(inner(ctx), log);
  };
}

TrialTotals Totals(const std::vector<TrialStats>& trials) {
  TrialTotals totals;
  for (const TrialStats& t : trials) {
    totals.records += t.records;
    totals.events += t.events;
  }
  return totals;
}

}  // namespace perfbench
