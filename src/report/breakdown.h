// Latency-attribution breakdown rendering (the Fig. 12 companion table):
// per-engine mean seconds spent in each pipeline stage, from the lineage
// tracker's closed samples.
#ifndef SDPS_REPORT_BREAKDOWN_H_
#define SDPS_REPORT_BREAKDOWN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/lineage.h"

namespace sdps::report {

/// One engine's aggregate attribution.
struct EngineBreakdown {
  std::string engine;
  obs::LineageBreakdown breakdown;
};

/// Column-aligned table: one row per engine, mean seconds per stage plus
/// total and closed-sample count. The stage columns sum to the total
/// column by construction (telescoping stamps).
std::string RenderBreakdownTable(const std::vector<EngineBreakdown>& rows);

/// Long-format CSV (engine, stage, mean_seconds, share) — the shape
/// scripts/plot_results.py's `breakdown` subcommand stacks into bars.
Status WriteBreakdownCsv(const std::string& path,
                         const std::vector<EngineBreakdown>& rows);

}  // namespace sdps::report

#endif  // SDPS_REPORT_BREAKDOWN_H_
