// Ingest-stamp invariants of the rt source (DESIGN.md §6): every record's
// ingest stamp is the source's most recent wall-clock read — per record
// when paced (the read PaceTo makes), per staged batch when unpaced. So:
//   * paced, a stamp is never before the record's planned emission, and
//     every output has max_event_time <= max_ingest_time;
//   * in both modes, every stamp is a real read of the run's clock:
//     0 <= max_ingest_time <= the run's wall end.
#include <vector>

#include "gtest/gtest.h"
#include "rt/pipeline.h"
#include "workloads/realtime.h"

namespace sdps {
namespace {

rt::RtResult RunFlinkAgg(bool paced) {
  rt::RtPipelineConfig config =
      workloads::MakeRealtime(workloads::Engine::kFlink, engine::QueryKind::kAggregation,
                              2, paced ? 1e5 : 1e6, Seconds(2), /*seed=*/11);
  config.batch = 32;
  config.paced = paced;
  config.capture_outputs = true;
  config.pin_threads = false;
  return rt::RunRtPipeline(config);
}

void ExpectStampsWithinRun(const rt::RtResult& r) {
  ASSERT_TRUE(r.failure.ok()) << r.failure.ToString();
  ASSERT_FALSE(r.outputs.empty());
  for (const engine::OutputRecord& out : r.outputs) {
    EXPECT_GE(out.max_ingest_time, 0);
    EXPECT_LE(ToSeconds(out.max_ingest_time), r.wall_seconds);
  }
}

TEST(RtIngestStampTest, PacedStampsNeverPrecedeEventTime) {
  const rt::RtResult r = RunFlinkAgg(/*paced=*/true);
  ExpectStampsWithinRun(r);
  for (const engine::OutputRecord& out : r.outputs) {
    EXPECT_LE(out.max_event_time, out.max_ingest_time)
        << "key " << out.key << " window_end " << out.window_end;
  }
}

TEST(RtIngestStampTest, UnpacedBatchStampsAreRealClockReads) {
  ExpectStampsWithinRun(RunFlinkAgg(/*paced=*/false));
}

}  // namespace
}  // namespace sdps
