#include "report/breakdown.h"

#include "common/csv.h"
#include "common/strings.h"
#include "report/table.h"

namespace sdps::report {

namespace {

constexpr obs::LineageStage kStages[obs::kNumLineageStages] = {
    obs::LineageStage::kQueueWait, obs::LineageStage::kNetwork,
    obs::LineageStage::kOperator, obs::LineageStage::kWindow,
    obs::LineageStage::kSink,
};

}  // namespace

std::string RenderBreakdownTable(const std::vector<EngineBreakdown>& rows) {
  std::vector<std::string> headers = {"engine", "samples"};
  for (const obs::LineageStage stage : kStages) {
    headers.push_back(std::string(obs::LineageStageName(stage)) + "_s");
  }
  headers.push_back("total_s");
  Table table(std::move(headers));
  for (const EngineBreakdown& row : rows) {
    std::vector<std::string> cells = {row.engine,
                                      StrFormat("%llu", static_cast<unsigned long long>(
                                                            row.breakdown.records))};
    for (const obs::LineageStage stage : kStages) {
      cells.push_back(StrFormat("%.4f", row.breakdown.MeanStageSeconds(stage)));
    }
    cells.push_back(StrFormat("%.4f", row.breakdown.MeanTotalSeconds()));
    table.AddRow(std::move(cells));
  }
  return table.Render();
}

Status WriteBreakdownCsv(const std::string& path,
                         const std::vector<EngineBreakdown>& rows) {
  SDPS_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  writer.WriteHeader({"engine", "stage", "mean_seconds", "share"});
  for (const EngineBreakdown& row : rows) {
    const double total = row.breakdown.MeanTotalSeconds();
    for (const obs::LineageStage stage : kStages) {
      const double mean = row.breakdown.MeanStageSeconds(stage);
      writer.WriteRow({row.engine, obs::LineageStageName(stage),
                       StrFormat("%.6f", mean),
                       StrFormat("%.6f", total > 0 ? mean / total : 0.0)});
    }
  }
  return writer.Close();
}

}  // namespace sdps::report
