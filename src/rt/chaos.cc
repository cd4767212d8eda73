#include "rt/chaos.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/strings.h"

namespace sdps::rt {

namespace {

/// Parses "<prefix><index>" (e.g. "w3" → 3). Returns -1 on mismatch.
int SlotIndex(const std::string& node, char prefix) {
  if (node.size() < 2 || node[0] != prefix) return -1;
  for (size_t i = 1; i < node.size(); ++i) {
    if (node[i] < '0' || node[i] > '9') return -1;
  }
  return std::atoi(node.c_str() + 1);
}

Status CompileError(const chaos::FaultEvent& ev, const std::string& why) {
  return Status::InvalidArgument(
      StrFormat("rt chaos: %s on \"%s\": %s", chaos::FaultKindName(ev.kind),
                ev.node.c_str(), why.c_str()));
}

}  // namespace

bool RtChaosPlan::HasFault(chaos::FaultKind kind) const {
  const auto any = [kind](const std::vector<std::vector<RtFault>>& slots) {
    for (const auto& faults : slots) {
      for (const RtFault& f : faults) {
        if (f.kind == kind) return true;
      }
    }
    return false;
  };
  return any(source_faults) || any(task_faults);
}

std::vector<std::pair<SimTime, SimTime>> RtChaosPlan::WallWindows(
    SimTime grace, bool supervised) const {
  std::vector<std::pair<SimTime, SimTime>> windows;
  const auto collect = [&](const std::vector<std::vector<RtFault>>& slots) {
    for (const auto& faults : slots) {
      for (const RtFault& f : faults) {
        const bool straggle = f.kind == chaos::FaultKind::kStraggle;
        if (!straggle && !supervised) continue;  // unrecovered: let it trip
        const SimTime extent = straggle ? f.duration : grace;
        windows.emplace_back(f.at, f.at + std::max(f.duration, extent));
      }
    }
  };
  collect(source_faults);
  collect(task_faults);
  std::sort(windows.begin(), windows.end());
  return windows;
}

Result<RtChaosPlan> RtChaosPlan::Compile(const chaos::FaultSchedule& schedule,
                                         int num_sources, int num_tasks) {
  RtChaosPlan plan;
  plan.source_faults.resize(static_cast<size_t>(num_sources));
  plan.task_faults.resize(static_cast<size_t>(num_tasks));
  for (const chaos::FaultEvent& ev : schedule.events()) {
    switch (ev.kind) {
      case chaos::FaultKind::kCrash:
      case chaos::FaultKind::kWedge:
      case chaos::FaultKind::kStraggle:
        break;
      default:
        return CompileError(
            ev, "resource-model faults have no realtime analogue (use the DES)");
    }
    if (ev.at < 0) return CompileError(ev, "negative injection time");
    RtFault fault;
    fault.kind = ev.kind;
    fault.at = ev.at;
    fault.duration = ev.duration;
    fault.factor = ev.factor;

    // "w<i>"/"t<i>": task slot. "d<i>": source slot (straggle only).
    int task = SlotIndex(ev.node, 'w');
    if (task < 0) task = SlotIndex(ev.node, 't');
    if (task >= 0) {
      if (task >= num_tasks) {
        return CompileError(
            ev, StrFormat("task slot out of range (have t0..t%d)", num_tasks - 1));
      }
      plan.task_faults[static_cast<size_t>(task)].push_back(fault);
      continue;
    }
    const int source = SlotIndex(ev.node, 'd');
    if (source >= 0) {
      if (source >= num_sources) {
        return CompileError(ev, StrFormat("source slot out of range (have d0..d%d)",
                                          num_sources - 1));
      }
      if (ev.kind != chaos::FaultKind::kStraggle) {
        return CompileError(ev,
                            "sources are unsupervised (no replayable input to "
                            "recover from) — only straggle applies");
      }
      plan.source_faults[static_cast<size_t>(source)].push_back(fault);
      continue;
    }
    return CompileError(ev, StrFormat("unknown slot (have t0..t%d / w aliases, d0..d%d)",
                                      num_tasks - 1, num_sources - 1));
  }
  const auto by_time = [](const RtFault& a, const RtFault& b) { return a.at < b.at; };
  for (auto& faults : plan.source_faults) {
    std::stable_sort(faults.begin(), faults.end(), by_time);
  }
  for (auto& faults : plan.task_faults) {
    std::stable_sort(faults.begin(), faults.end(), by_time);
  }
  return plan;
}

const RtFault* SlotChaos::Due(SimTime now) {
  for (RtFault& f : faults_) {
    if (f.fired || f.at > now) continue;
    if (f.kind != chaos::FaultKind::kCrash && f.kind != chaos::FaultKind::kWedge) {
      continue;
    }
    f.fired = true;
    return &f;
  }
  return nullptr;
}

SimTime SlotChaos::StraggleSleep(SimTime now, SimTime busy) const {
  double slowest = 1.0;
  for (const RtFault& f : faults_) {
    if (f.kind != chaos::FaultKind::kStraggle) continue;
    if (now < f.at || now >= f.at + f.duration) continue;
    slowest = std::min(slowest, f.factor);
  }
  if (slowest >= 1.0 || slowest <= 0.0) return 0;
  return static_cast<SimTime>(static_cast<double>(busy) * (1.0 / slowest - 1.0));
}

}  // namespace sdps::rt
