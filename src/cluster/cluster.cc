#include "cluster/cluster.h"

#include "common/strings.h"
#include "obs/metrics.h"

namespace sdps::cluster {

double InterpolateOverhead(const std::vector<std::pair<int, double>>& table,
                           int workers) {
  SDPS_CHECK(!table.empty());
  if (workers <= table.front().first) return table.front().second;
  for (size_t i = 1; i < table.size(); ++i) {
    if (workers <= table[i].first) {
      const auto [x0, y0] = table[i - 1];
      const auto [x1, y1] = table[i];
      const double f = static_cast<double>(workers - x0) / static_cast<double>(x1 - x0);
      return y0 + f * (y1 - y0);
    }
  }
  return table.back().second;
}

Cluster::Cluster(des::Simulator& sim, const ClusterConfig& config)
    : sim_(sim), config_(config) {
  SDPS_CHECK_GT(config_.workers, 0);
  if (config_.drivers < 0) config_.drivers = config_.workers;
  SDPS_CHECK_GT(config_.drivers, 0);

  NodeId next_id = 0;
  master_ = std::make_unique<Node>(sim_, next_id++, NodeGroup::kMaster, "master",
                                   config_.node);
  master_nic_ = MakeNic();
  for (int i = 0; i < config_.drivers; ++i) {
    drivers_.push_back(std::make_unique<Node>(
        sim_, next_id++, NodeGroup::kDriver, StrFormat("driver-%d", i), config_.node));
    driver_nics_.push_back(MakeNic());
  }
  for (int i = 0; i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<Node>(
        sim_, next_id++, NodeGroup::kWorker, StrFormat("worker-%d", i), config_.node));
    worker_nics_.push_back(MakeNic());
  }
  trunk_ingest_ = std::make_unique<Link>(sim_, config_.trunk_bytes_per_sec,
                                         config_.link_latency_us);
  trunk_egress_ = std::make_unique<Link>(sim_, config_.trunk_bytes_per_sec,
                                         config_.link_latency_us);
}

Cluster::Nic Cluster::MakeNic() const {
  return Nic{
      std::make_unique<Link>(sim_, config_.nic_bytes_per_sec, config_.link_latency_us),
      std::make_unique<Link>(sim_, config_.nic_bytes_per_sec, config_.link_latency_us),
  };
}

const Cluster::Nic& Cluster::nic(const Node& node) const {
  switch (node.group()) {
    case NodeGroup::kMaster:
      return master_nic_;
    case NodeGroup::kDriver:
      return driver_nics_.at(static_cast<size_t>(node.id()) - 1);
    case NodeGroup::kWorker:
      return worker_nics_.at(static_cast<size_t>(node.id()) - 1 -
                             static_cast<size_t>(config_.drivers));
  }
  SDPS_CHECK(false) << "unreachable";
  return master_nic_;
}

Cluster::SendAwaiter::SendAwaiter(Cluster& cluster, Node& from, Node& to, int64_t bytes)
    : SendAwaiter(cluster, from, to, &single_, 1, nullptr) {
  single_ = bytes;
}

Cluster::SendAwaiter::SendAwaiter(Cluster& cluster, Node& from, Node& to,
                                  const int64_t* bytes, size_t n, SimTime* arrivals)
    : bytes_(bytes), n_(n), arrivals_(arrivals) {
  SDPS_CHECK_GT(n, 0u);
  if (from.id() == to.id()) {  // in-process handoff
    if (arrivals != nullptr) {
      for (size_t i = 0; i < n; ++i) arrivals[i] = cluster.sim_.now();
    }
    return;
  }
  // Route: sender NIC, the trunk when the run changes node group, receiver
  // NIC.
  hops_[num_hops_++] = cluster.nic(from).out.get();
  crosses_trunk_ = from.group() != to.group();
  if (crosses_trunk_) {
    hops_[num_hops_++] =
        (to.group() == NodeGroup::kWorker || to.group() == NodeGroup::kMaster)
            ? cluster.trunk_ingest_.get()
            : cluster.trunk_egress_.get();
  }
  hops_[num_hops_++] = cluster.nic(to).in.get();
}

void Cluster::SendAwaiter::await_suspend(std::coroutine_handle<> h) {
  static obs::Counter* net_transfers =
      obs::Registry::Default().GetCounter("cluster.net.transfers");
  static obs::Counter* net_bytes =
      obs::Registry::Default().GetCounter("cluster.net.bytes");
  caller_ = h;
  for (size_t i = 0; i < n_; ++i) total_ += bytes_[i];
  net_transfers->Add(n_);
  net_bytes->Add(static_cast<uint64_t>(total_));
  AdmitHop();
}

// One event per hop: the run's arrival at the hop's far end, where the
// link books the bytes and the next hop is admitted. Each hop is admitted
// at the instant the run reaches it, so runs that meet on the trunk or a
// receiver NIC are served in arrival order. Only the final hop's
// completions are the arrival times.
void Cluster::SendAwaiter::AdmitHop() {
  hops_[hop_]->Admit(bytes_, n_, hop_ + 1 == num_hops_ ? arrivals_ : nullptr,
                     [this] { Arrived(); });
}

void Cluster::SendAwaiter::Arrived() {
  if (hop_ == 0 && crosses_trunk_) {
    static obs::Counter* trunk_bytes =
        obs::Registry::Default().GetCounter("cluster.net.trunk_bytes");
    trunk_bytes->Add(static_cast<uint64_t>(total_));
  }
  if (++hop_ < num_hops_) {
    AdmitHop();
  } else {
    caller_.resume();
  }
}

int64_t Cluster::NodeNetworkBytes(const Node& node) const {
  const Nic& n = nic(node);
  return n.in->bytes_transferred() + n.out->bytes_transferred();
}

Node* Cluster::FindNode(const std::string& name) {
  if (name == "master") return master_.get();
  if (name.size() < 2) return nullptr;
  const char group = name[0];
  if (group != 'w' && group != 'd') return nullptr;
  int index = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return nullptr;
    index = index * 10 + (name[i] - '0');
  }
  if (group == 'w') {
    return index < num_workers() ? workers_[static_cast<size_t>(index)].get() : nullptr;
  }
  return index < num_drivers() ? drivers_[static_cast<size_t>(index)].get() : nullptr;
}

void Cluster::ScaleNodeNicRate(const Node& node, double scale) {
  const Nic& n = nic(node);
  n.in->set_rate_scale(scale);
  n.out->set_rate_scale(scale);
}

}  // namespace sdps::cluster
