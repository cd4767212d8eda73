#include "cluster/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <random>
#include <vector>

#include "cluster/cluster.h"
#include "des/resource.h"
#include "des/simulator.h"
#include "des/task.h"

namespace sdps::cluster {
namespace {

// Admits a run on `link` with a continuation that resumes the awaiting
// coroutine when the run's last item arrives.
struct Transfer {
  Link& link;
  const int64_t* bytes;
  size_t n;
  SimTime* completions;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    link.Admit(bytes, n, completions, [h] { h.resume(); });
  }
  void await_resume() const {}
};

TEST(LinkTest, TransferTakesBytesOverBandwidthPlusLatency) {
  des::Simulator sim;
  Link link(sim, /*bytes_per_sec=*/1e6, /*latency=*/200);
  SimTime done_at = -1;
  sim.Spawn([](des::Simulator& s, Link& l, SimTime& t) -> des::Task<> {
    const int64_t bytes = 1000;  // 1000 B at 1 MB/s = 1000 us
    co_await Transfer{l, &bytes, 1, nullptr};
    t = s.now();
  }(sim, link, done_at));
  sim.RunUntilIdle();
  EXPECT_EQ(done_at, 1200);
  EXPECT_EQ(link.bytes_transferred(), 1000);
}

TEST(LinkTest, TransfersSerializeFifo) {
  des::Simulator sim;
  Link link(sim, 1e6, 0);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](des::Simulator& s, Link& l, std::vector<SimTime>& d) -> des::Task<> {
      const int64_t bytes = 1000;
      co_await Transfer{l, &bytes, 1, nullptr};
      d.push_back(s.now());
    }(sim, link, done));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{1000, 2000, 3000}));
}

// A run's per-item arrivals are the schedule of its items sent one by one
// on the FIFO line: each item's line time is rounded on its own.
TEST(LinkTest, RunArrivalsMatchItemsSentOneByOne) {
  const std::vector<int64_t> bytes = {1000, 333, 1, 2500};
  des::Simulator sim;
  Link link(sim, 3e6, 200);
  std::vector<SimTime> run(bytes.size(), -1);
  SimTime run_done = -1;
  sim.Spawn([](des::Simulator& s, Link& l, const std::vector<int64_t>& b,
               std::vector<SimTime>& arrivals, SimTime& done) -> des::Task<> {
    co_await Transfer{l, b.data(), b.size(), arrivals.data()};
    done = s.now();
  }(sim, link, bytes, run, run_done));
  sim.RunUntilIdle();

  des::Simulator serial_sim;
  Link serial_link(serial_sim, 3e6, 200);
  std::vector<SimTime> serial;
  for (const int64_t& b : bytes) {
    serial_sim.Spawn([](des::Simulator& s, Link& l, const int64_t& item,
                        std::vector<SimTime>& d) -> des::Task<> {
      co_await Transfer{l, &item, 1, nullptr};
      d.push_back(s.now());
    }(serial_sim, serial_link, b, serial));
  }
  serial_sim.RunUntilIdle();
  EXPECT_EQ(run, serial);
  EXPECT_EQ(run_done, serial.back());
  EXPECT_EQ(link.bytes_transferred(), serial_link.bytes_transferred());
}

// Flows admitted at random instants (some at the same microsecond, most
// queueing behind each other) and at changing rate scales arrive exactly as
// on a reference line built the slow way: a one-server des::Resource held
// for the run's line time, then a propagation Delay.
TEST(LinkTest, ContendedArrivalsMatchFcfsReference) {
  constexpr double kBytesPerSec = 2e6;
  constexpr SimTime kLatency = 150;
  struct Flow {
    SimTime admit_at;
    double rate_scale;
    std::vector<int64_t> bytes;
  };
  std::mt19937_64 rng(7);
  std::vector<Flow> flows(40);
  for (Flow& flow : flows) {
    flow.admit_at = static_cast<SimTime>(rng() % 60) * 250;
    flow.rate_scale = (rng() % 4 == 0) ? 0.25 + static_cast<double>(rng() % 8) / 4 : 1.0;
    flow.bytes.resize(1 + rng() % 5);
    for (int64_t& b : flow.bytes) b = static_cast<int64_t>(rng() % 3000);
  }

  struct Result {
    std::vector<SimTime> arrivals;
    SimTime resumed_at = -1;
  };
  std::vector<Result> got(flows.size());
  des::Simulator sim;
  Link link(sim, kBytesPerSec, kLatency);
  for (size_t f = 0; f < flows.size(); ++f) {
    got[f].arrivals.assign(flows[f].bytes.size(), -1);
    sim.Spawn([](des::Simulator& s, Link& l, const Flow& flow, Result& r) -> des::Task<> {
      co_await des::Delay(s, flow.admit_at);
      l.set_rate_scale(flow.rate_scale);
      co_await Transfer{l, flow.bytes.data(), flow.bytes.size(), r.arrivals.data()};
      r.resumed_at = s.now();
    }(sim, link, flows[f], got[f]));
  }
  sim.RunUntilIdle();

  std::vector<Result> want(flows.size());
  des::Simulator ref_sim;
  des::Resource line(ref_sim, 1);
  for (size_t f = 0; f < flows.size(); ++f) {
    ref_sim.Spawn([](des::Simulator& s, des::Resource& res, const Flow& flow,
                     Result& r) -> des::Task<> {
      co_await des::Delay(s, flow.admit_at);
      std::vector<SimTime> prefix;
      SimTime line_time = 0;
      for (const int64_t b : flow.bytes) {
        line_time += std::llround(static_cast<double>(b) /
                                  (kBytesPerSec * flow.rate_scale) * 1e6);
        prefix.push_back(line_time);
      }
      const SimTime start = co_await res.Use(line_time);
      for (const SimTime p : prefix) r.arrivals.push_back(start + p + kLatency);
      co_await des::Delay(s, kLatency);
      r.resumed_at = s.now();
    }(ref_sim, line, flows[f], want[f]));
  }
  ref_sim.RunUntilIdle();

  SimTime last_arrival = 0;
  for (size_t f = 0; f < flows.size(); ++f) {
    EXPECT_EQ(got[f].arrivals, want[f].arrivals) << "flow " << f;
    EXPECT_EQ(got[f].resumed_at, want[f].resumed_at) << "flow " << f;
    EXPECT_EQ(got[f].resumed_at, want[f].arrivals.back()) << "flow " << f;
    last_arrival = std::max(last_arrival, want[f].resumed_at);
  }
  // The reference line really was contended: its work outlasts the
  // admission window.
  EXPECT_GT(last_arrival, 60 * 250);
}

// The line time of a payload size is memoised; a rate-scale change must
// drop the memo, so the same size is timed at the new rate.
TEST(LinkTest, RateScaleChangeRecomputesMemoisedLineTime) {
  des::Simulator sim;
  Link link(sim, 1e6, 0);
  std::vector<SimTime> done;
  sim.Spawn([](des::Simulator& s, Link& l, std::vector<SimTime>& d) -> des::Task<> {
    const int64_t bytes = 1000;  // 1000 us at 1 MB/s
    co_await Transfer{l, &bytes, 1, nullptr};
    d.push_back(s.now());
    l.set_rate_scale(0.5);  // 2000 us
    co_await Transfer{l, &bytes, 1, nullptr};
    d.push_back(s.now());
    l.set_rate_scale(4.0);  // 250 us
    co_await Transfer{l, &bytes, 1, nullptr};
    d.push_back(s.now());
  }(sim, link, done));
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{1000, 3000, 3250}));
}

TEST(LinkTest, SaturationThroughputMatchesBandwidth) {
  des::Simulator sim;
  Link link(sim, 1e6, 0);  // 1 MB/s
  sim.Spawn([](des::Simulator&, Link& l) -> des::Task<> {
    const int64_t bytes = 10000;
    for (int i = 0; i < 100; ++i) co_await Transfer{l, &bytes, 1, nullptr};
  }(sim, link));
  sim.RunUntilIdle();
  // 1 MB over a 1 MB/s link = 1 simulated second.
  EXPECT_EQ(sim.now(), Seconds(1));
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterConfig Config() {
    ClusterConfig config;
    config.workers = 2;
    config.drivers = 2;
    config.nic_bytes_per_sec = 1e6;
    config.trunk_bytes_per_sec = 1e6;
    config.link_latency_us = 0;
    return config;
  }
};

TEST_F(ClusterTest, TopologySizes) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  EXPECT_EQ(cluster.num_workers(), 2);
  EXPECT_EQ(cluster.num_drivers(), 2);
  EXPECT_EQ(cluster.master().group(), NodeGroup::kMaster);
  EXPECT_EQ(cluster.worker(0).group(), NodeGroup::kWorker);
  EXPECT_EQ(cluster.driver(1).group(), NodeGroup::kDriver);
  // All node ids distinct.
  EXPECT_NE(cluster.worker(0).id(), cluster.worker(1).id());
  EXPECT_NE(cluster.worker(0).id(), cluster.driver(0).id());
}

TEST_F(ClusterTest, DriversDefaultToWorkerCount) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.drivers = -1;
  config.workers = 4;
  Cluster cluster(sim, config);
  EXPECT_EQ(cluster.num_drivers(), 4);
}

TEST_F(ClusterTest, SameNodeSendIsInstant) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.worker(0), c.worker(0), 1 << 20);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(0)), 0);
}

// A same-node send is an in-process handoff: it neither schedules nor
// runs an event, and every item arrives now.
TEST_F(ClusterTest, SameNodeSendBatchSchedulesNoEvent) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  const std::vector<int64_t> bytes = {400, 100, 500};
  std::vector<SimTime> arrivals(bytes.size(), -1);
  size_t pending_after = 0;
  uint64_t processed_after = 0;
  sim.ScheduleAt(700, [&] {
    sim.Spawn([](Cluster& c, const std::vector<int64_t>& b, std::vector<SimTime>& a,
                 size_t& pending, uint64_t& processed) -> des::Task<> {
      des::Simulator& s = c.sim();
      const size_t pending_before = s.pending_events();
      const uint64_t processed_before = s.processed_events();
      co_await c.SendBatch(c.worker(1), c.worker(1), b.data(), b.size(), a.data());
      pending = s.pending_events() - pending_before;
      processed = s.processed_events() - processed_before;
    }(cluster, bytes, arrivals, pending_after, processed_after));
  });
  sim.RunUntilIdle();
  EXPECT_EQ(pending_after, 0u);
  EXPECT_EQ(processed_after, 0u);
  EXPECT_EQ(sim.processed_events(), 1u);  // the spawning callback only
  EXPECT_EQ(arrivals, (std::vector<SimTime>{700, 700, 700}));
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(1)), 0);
}

TEST_F(ClusterTest, DriverToWorkerCrossesIngestTrunk) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.driver(0), c.worker(1), 1000);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 1000);
  EXPECT_EQ(cluster.trunk_egress().bytes_transferred(), 0);
  // NIC out of the driver + NIC in of the worker.
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.driver(0)), 1000);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(1)), 1000);
  // Three store-and-forward hops at 1 MB/s each.
  EXPECT_EQ(sim.now(), 3000);
}

// A hop is one event: the run's arrival at the hop's far end.
TEST_F(ClusterTest, CrossTrunkSendIsOneEventPerHop) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.link_latency_us = 200;
  Cluster cluster(sim, config);
  const std::vector<int64_t> bytes = {400, 100, 500};
  std::vector<SimTime> arrivals(bytes.size(), -1);
  sim.Spawn([](Cluster& c, const std::vector<int64_t>& b,
               std::vector<SimTime>& a) -> des::Task<> {
    co_await c.SendBatch(c.driver(0), c.worker(1), b.data(), b.size(), a.data());
  }(cluster, bytes, arrivals));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.processed_events(), 3u);
  // Three store-and-forward hops of 1000 us line time and 200 us latency;
  // the last hop starts at 2400 us.
  EXPECT_EQ(sim.now(), 3600);
  EXPECT_EQ(arrivals, (std::vector<SimTime>{3000, 3100, 3600}));
}

// A link books a transfer's bytes when the transfer arrives at its far
// end, i.e. after line time and propagation latency.
TEST_F(ClusterTest, NetworkBytesAreBookedOnArrival) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.link_latency_us = 200;
  Cluster cluster(sim, config);
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.driver(0), c.worker(1), 1000);
  }(cluster));
  // Driver NIC: line 0-1000 us, arrival 1200; trunk: 1200-2200, arrival
  // 2400; worker NIC: 2400-3400, arrival 3600.
  sim.RunUntil(1199);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.driver(0)), 0);
  sim.RunUntil(1200);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.driver(0)), 1000);
  sim.RunUntil(2399);
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 0);
  sim.RunUntil(2400);
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 1000);
  sim.RunUntil(3599);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(1)), 0);
  sim.RunUntil(3600);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(1)), 1000);
}

TEST_F(ClusterTest, WorkerToDriverCrossesEgressTrunk) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.worker(0), c.driver(0), 500);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.trunk_egress().bytes_transferred(), 500);
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 0);
}

TEST_F(ClusterTest, WorkerToWorkerSkipsTrunk) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.worker(0), c.worker(1), 700);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 0);
  EXPECT_EQ(cluster.trunk_egress().bytes_transferred(), 0);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(0)), 700);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(1)), 700);
}

TEST_F(ClusterTest, TrunkIsTheSharedBottleneck) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.nic_bytes_per_sec = 100e6;  // fast NICs
  config.trunk_bytes_per_sec = 1e6;  // slow shared trunk
  Cluster cluster(sim, config);
  // Both drivers push 1 MB each through the shared trunk concurrently.
  for (int d = 0; d < 2; ++d) {
    sim.Spawn([](Cluster& c, int from) -> des::Task<> {
      co_await c.Send(c.driver(from), c.worker(from), 1 << 20);
    }(cluster, d));
  }
  sim.RunUntilIdle();
  // 2 MB over the 1 MB/s trunk needs >= ~2.1 simulated seconds.
  EXPECT_GE(sim.now(), Seconds(2));
}

}  // namespace
}  // namespace sdps::cluster
