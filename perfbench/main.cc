// sdps_perfbench: runs one workload of the SDPS-Bench performance
// benchmark and prints its metrics. Usually launched through run.py,
// which builds this binary and keeps the metrics BENCHMARK.json names.
//
//   sdps_perfbench --workload paper_search|shuffle_2m|rt_agg --seed N
//                  --seconds S --trace 0|1 [--smoke] [--commit REV]
//                  [--spans FILE]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric measured ({"value", "unit"}). Exit code 1 when a check
// failed, 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "common/strings.h"

namespace {

using perfbench::Options;

void Usage() {
  std::fprintf(stderr,
               "usage: sdps_perfbench --workload paper_search|shuffle_2m|rt_agg "
               "--seed N --seconds S --trace 0|1 [--smoke] [--commit REV] "
               "[--spans FILE]\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--spans") {
      options.spans = value;
    } else {
      Usage();
    }
  }
  if (options.seconds <= 0) Usage();
  return options;
}

// JSON string escaping for the few free-text provenance fields.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0 && c < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void PrintProvenance(const Options& options) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  std::printf(
      "provenance {\"host\": %s, \"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"commit\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %s}\n",
      Quote(host).c_str(), std::thread::hardware_concurrency(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(PERFBENCH_COMPILER).c_str(),
      Quote(options.commit).c_str(), Quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0,
      options.smoke ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  void (*run)(const Options&, perfbench::Report*) = nullptr;
  if (options.workload == "paper_search") run = perfbench::RunPaperSearch;
  if (options.workload == "shuffle_2m") run = perfbench::RunShuffle;
  if (options.workload == "rt_agg") run = perfbench::RunRtAgg;
  if (run == nullptr) Usage();

  PrintProvenance(options);
  perfbench::Report report;
  if (!options.spans.empty()) perfbench::EnableSpans();
  run(options, &report);
  if (!options.spans.empty()) {
    report.Check(perfbench::WriteSpans(options.spans), "cannot write " + options.spans);
    report.Info("  spans written to " + options.spans);
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  const double share = static_cast<double>(report.failed()) /
                       static_cast<double>(std::max<uint64_t>(report.attempted(), 1));
  std::printf("  %-40s %14.6g %-6s (%llu of %llu checks failed)\n", "failed_share", share,
              "share", static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));

  std::string json = sdps::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      report.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted()),
      static_cast<unsigned long long>(report.failed()));
  const char* sep = "";
  for (const auto& [name, metric] : report.metrics()) {
    json += sdps::StrFormat("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", sep,
                            name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("%s}}\n", json.c_str());
  return report.failed() == 0 ? 0 : 1;
}
