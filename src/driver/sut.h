// The boundary between the benchmark driver and the system under test
// (paper Section III-C: complete separation of driver and SUT). The driver
// hands the SUT its queues and sink; everything else — measurement,
// generation, sustainability judgement — happens outside the SUT.
#ifndef SDPS_DRIVER_SUT_H_
#define SDPS_DRIVER_SUT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "des/simulator.h"
#include "driver/latency_sink.h"
#include "driver/queue.h"
#include "driver/timeseries.h"

namespace sdps::driver {

struct SutContext {
  des::Simulator* sim = nullptr;
  cluster::Cluster* cluster = nullptr;
  /// One queue per driver node; the SUT connects sources to them.
  std::vector<DriverQueue*> queues;
  /// All outputs are emitted here (after crossing the egress network).
  LatencySink* sink = nullptr;
  /// The SUT reports fatal conditions (dropped connection, OOM, stalled
  /// topology). The driver halts the experiment and classifies the run as
  /// not sustaining the given throughput.
  std::function<void(Status)> report_failure;
  uint64_t seed = 0;
  /// Data-plane batch size the engines should move records in (resolved
  /// from ExperimentConfig::batch / --batch). 1 = runs of one record
  /// (per-record scheduling).
  int batch = 1;
};

class Sut {
 public:
  virtual ~Sut() = default;

  virtual std::string name() const = 0;

  /// Spawns the engine's processes onto ctx.sim. Returns an error when the
  /// configuration is unusable (e.g., unsupported query).
  virtual Status Start(const SutContext& ctx) = 0;

  /// Releases inputs (e.g., closes internal channels). Called by the
  /// runner after the experiment horizon.
  virtual void Stop() {}

  /// Exports engine-internal diagnostic series (e.g., Spark scheduler
  /// delay for Fig. 11). Keys are series names.
  virtual void ExportSeries(std::map<std::string, TimeSeries>* out) const { (void)out; }
};

/// Creates a SUT bound to an experiment's simulator/cluster. The factory
/// is invoked once per experiment run (sustainable-throughput search runs
/// many experiments).
using SutFactory = std::function<std::unique_ptr<Sut>(const SutContext&)>;

}  // namespace sdps::driver

#endif  // SDPS_DRIVER_SUT_H_
