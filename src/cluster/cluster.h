// Cluster assembly: driver nodes + worker nodes + master, their NICs, and
// the inter-rack trunk. Mirrors the paper's deployment: "a dedicated master
// for the streaming systems and an equal number of workers and driver
// nodes (2, 4, and 8)", 16 cores / 16 GB per node, 1 Gb/s network.
#ifndef SDPS_CLUSTER_CLUSTER_H_
#define SDPS_CLUSTER_CLUSTER_H_

#include <coroutine>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/network.h"
#include "cluster/node.h"
#include "common/time_util.h"
#include "des/simulator.h"

namespace sdps::cluster {

struct ClusterConfig {
  int workers = 4;
  /// Paper: driver node count equals worker count.
  int drivers = -1;  // -1 -> same as workers
  NodeConfig node;
  /// 1 Gb/s NICs.
  double nic_bytes_per_sec = 125e6;
  /// Shared inter-rack trunk between the driver group and the SUT group,
  /// one Link per direction. Calibrated so that ~1.2 M tuples/s of ingest
  /// saturates it (see workloads/calibration.h).
  double trunk_bytes_per_sec = 120e6;
  SimTime link_latency_us = 200;
};

/// Piecewise-linear lookup in an engine's {workers, factor} coordination
/// overhead table (sorted by workers; clamped at both ends).
double InterpolateOverhead(const std::vector<std::pair<int, double>>& table,
                           int workers);

/// Owns all nodes and links of one simulated deployment.
class Cluster {
 public:
  Cluster(des::Simulator& sim, const ClusterConfig& config);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  int num_drivers() const { return static_cast<int>(drivers_.size()); }

  Node& worker(int i) { return *workers_.at(i); }
  Node& driver(int i) { return *drivers_.at(i); }
  Node& master() { return *master_; }

  const ClusterConfig& config() const { return config_; }
  des::Simulator& sim() { return sim_; }

  class SendAwaiter;

  /// Moves `bytes` from `from` to `to`, respecting NIC and trunk capacity:
  /// a SendBatch of one payload. Same-node transfers complete immediately.
  SendAwaiter Send(Node& from, Node& to, int64_t bytes);

  /// Moves a back-to-back run of payloads from `from` to `to` with one
  /// admission, and one DES event, per hop (instead of n per hop). When
  /// `arrivals` is non-null it receives each item's arrival time at `to`
  /// (the final hop's per-item arrival schedule). The run is
  /// store-and-forwarded hop by hop as a unit — the whole run reaches the
  /// trunk before it is admitted there — whereas n serial Sends would
  /// pipeline items across hops; within each hop the per-item schedule is
  /// exact (see Link::Admit). `bytes` must stay valid until the send
  /// completes.
  SendAwaiter SendBatch(Node& from, Node& to, const int64_t* bytes, size_t n,
                        SimTime* arrivals);

  /// Total bytes that crossed each node's NIC (in + out), for Fig. 10.
  int64_t NodeNetworkBytes(const Node& node) const;

  /// Looks up a node by its chaos-spec name ("w0".."wN", "d0".."dN",
  /// "master"). Returns nullptr for unknown names.
  Node* FindNode(const std::string& name);

  /// Chaos injection: scales both directions of `node`'s NIC (1.0 =
  /// nominal). See Link::set_rate_scale for the in-flight-transfer caveat.
  void ScaleNodeNicRate(const Node& node, double scale);

  /// Trunk counters (ingest direction = driver -> worker).
  const Link& trunk_ingest() const { return *trunk_ingest_; }
  const Link& trunk_egress() const { return *trunk_egress_; }

 private:
  struct Nic {
    std::unique_ptr<Link> in;
    std::unique_ptr<Link> out;
  };

  Nic MakeNic() const;
  const Nic& nic(const Node& node) const;

  des::Simulator& sim_;
  ClusterConfig config_;
  std::unique_ptr<Node> master_;
  std::vector<std::unique_ptr<Node>> drivers_;
  std::vector<std::unique_ptr<Node>> workers_;
  std::vector<Nic> driver_nics_;
  std::vector<Nic> worker_nics_;
  Nic master_nic_;
  std::unique_ptr<Link> trunk_ingest_;  // driver group -> worker group
  std::unique_ptr<Link> trunk_egress_;  // worker group -> driver group
};

/// The awaiter of one send (`co_await cluster.SendBatch(...)`). It lives
/// in the awaiting coroutine's frame for the whole send, so each hop's
/// arrival event needs to capture only a pointer to it: a send creates no
/// coroutine frame of its own. Not copyable or movable (Send points
/// `bytes_` at `single_`); returned by guaranteed copy elision.
class Cluster::SendAwaiter {
 public:
  SendAwaiter(const SendAwaiter&) = delete;
  SendAwaiter& operator=(const SendAwaiter&) = delete;

  /// A same-node send is an in-process handoff: ready at once, no event.
  bool await_ready() const noexcept { return num_hops_ == 0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  friend class Cluster;
  SendAwaiter(Cluster& cluster, Node& from, Node& to, const int64_t* bytes, size_t n,
              SimTime* arrivals);
  SendAwaiter(Cluster& cluster, Node& from, Node& to, int64_t bytes);

  /// Admits the run on hops_[hop_]; its arrival event calls Arrived().
  void AdmitHop();
  void Arrived();

  const int64_t* bytes_;
  size_t n_;
  SimTime* arrivals_;
  int64_t single_ = 0;  // Send's one payload
  int64_t total_ = 0;
  Link* hops_[3] = {};
  size_t num_hops_ = 0;  // 0: same node
  size_t hop_ = 0;
  bool crosses_trunk_ = false;
  std::coroutine_handle<> caller_;
};

inline Cluster::SendAwaiter Cluster::Send(Node& from, Node& to, int64_t bytes) {
  return SendAwaiter(*this, from, to, bytes);
}

inline Cluster::SendAwaiter Cluster::SendBatch(Node& from, Node& to, const int64_t* bytes,
                                               size_t n, SimTime* arrivals) {
  return SendAwaiter(*this, from, to, bytes, n, arrivals);
}

/// Outgoing payload sizes of one run, grouped by destination node in
/// first-appearance order (one SendBatch per group). Clear() keeps every
/// group's storage, so a steady-state run allocates nothing.
class TransferGroups {
 public:
  struct Group {
    Node* node = nullptr;
    std::vector<int64_t> bytes;
  };

  void Clear() { used_ = 0; }

  /// The byte list bound for `to`, opened empty on its first use after
  /// Clear(). Valid until the next To() call.
  std::vector<int64_t>& To(Node& to) {
    for (size_t g = 0; g < used_; ++g) {
      if (groups_[g].node == &to) return groups_[g].bytes;
    }
    if (used_ == groups_.size()) groups_.emplace_back();
    Group& group = groups_[used_++];
    group.node = &to;
    group.bytes.clear();
    return group.bytes;
  }

  const Group* begin() const { return groups_.data(); }
  const Group* end() const { return groups_.data() + used_; }

 private:
  std::vector<Group> groups_;
  size_t used_ = 0;
};

}  // namespace sdps::cluster

#endif  // SDPS_CLUSTER_CLUSTER_H_
