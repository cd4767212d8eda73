#include "des/simulator.h"

#include <algorithm>
#include <bit>

namespace sdps::des {

namespace {
constexpr size_t kArity = 4;
}

Simulator::Simulator() : slots_(kWheelSpan) {}

Simulator::~Simulator() {
  // Drop pending events without running them, then destroy root frames
  // (finished frames park at final suspend; suspended ones cascade-destroy
  // their child frames). Wait-lists in channels/resources never touch
  // handles during their own destruction, so dangling entries are inert.
  far_.clear();
  chunks_.clear();
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    if (*it) it->destroy();
  }
}

void Simulator::Spawn(Task<> task) {
  std::coroutine_handle<> h = task.release();
  roots_.push_back(h);
  h.resume();  // run until first suspension
}

void Simulator::GrowNodes() {
  if ((num_nodes_ & ((uint32_t{1} << kChunkBits) - 1)) == 0) {
    chunks_.push_back(std::make_unique<Node[]>(size_t{1} << kChunkBits));
  }
  free_nodes_ = num_nodes_++;  // its `next` is kNil: the list's only node
}

size_t Simulator::NextBusySlot() const {
  const size_t start = static_cast<size_t>(now_) & kSlotMask;
  size_t word = start >> 6;
  const uint64_t here = busy_[word] & (~uint64_t{0} << (start & 63));
  if (here != 0) return (word << 6) + static_cast<size_t>(std::countr_zero(here));
  // The first busy word after `word`; else wrap to the first busy word
  // overall (possibly `word` itself, whose bits below `start` are the
  // latest times in the span).
  const uint64_t later = word + 1 < 64 ? busy_words_ & (~uint64_t{0} << (word + 1)) : 0;
  word = static_cast<size_t>(std::countr_zero(later != 0 ? later : busy_words_));
  return (word << 6) + static_cast<size_t>(std::countr_zero(busy_[word]));
}

void Simulator::AdvanceTo(SimTime t) {
  now_ = t;
  while (!far_.empty() && KeyTime(far_.front().key) - now_ < kWheelSpan) {
    const FarEntry entry = PopFar();
    Append(static_cast<size_t>(KeyTime(entry.key)) & kSlotMask, entry.node);
  }
}

void Simulator::PushFar(FarEntry entry) {
  // Sift up with a hole: parents slide down into the hole until the new
  // key's level is found, so each entry is written exactly once.
  size_t i = far_.size();
  far_.emplace_back();
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (far_[parent].key <= entry.key) break;
    far_[i] = far_[parent];
    i = parent;
  }
  far_[i] = entry;
}

Simulator::FarEntry Simulator::PopFar() {
  const FarEntry top = far_.front();
  const FarEntry last = far_.back();
  far_.pop_back();
  const size_t n = far_.size();
  if (n > 0) {
    // Sift the displaced last entry down with a hole at the root.
    size_t i = 0;
    for (;;) {
      const size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      EventKey best_key = far_[first_child].key;
      const size_t end = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        const EventKey ck = far_[c].key;
        if (ck < best_key) {
          best = c;
          best_key = ck;
        }
      }
      if (best_key >= last.key) break;
      far_[i] = far_[best];
      i = best;
    }
    far_[i] = last;
  }
  return top;
}

bool Simulator::StepUntil(SimTime limit) {
  size_t slot;
  if (wheel_events_ > 0) {
    slot = NextBusySlot();
    const SimTime t =
        now_ + static_cast<SimTime>((slot - static_cast<size_t>(now_)) & kSlotMask);
    if (t > limit) return false;
    if (t != now_) AdvanceTo(t);
  } else {
    if (far_.empty()) return false;
    const SimTime t = KeyTime(far_.front().key);
    if (t > limit) return false;
    AdvanceTo(t);  // migrates this event (and its span) into the wheel
    slot = static_cast<size_t>(t) & kSlotMask;
  }
  Slot& s = slots_[slot];
  const uint32_t node = s.head;
  Node& n = NodeAt(node);
  s.head = n.next;
  if (s.head == kNil) {
    const size_t word = slot >> 6;
    busy_[word] &= ~(uint64_t{1} << (slot & 63));
    if (busy_[word] == 0) busy_words_ &= ~(uint64_t{1} << word);
  }
  --wheel_events_;
  ++processed_events_;
  // Run in place, then recycle the node: events the callback schedules
  // take other nodes.
  n.fn();
  n.fn.Reset();
  n.next = free_nodes_;
  free_nodes_ = node;
  return true;
}

void Simulator::RunUntilIdle() {
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  SDPS_CHECK_GE(t, now_);
  stop_requested_ = false;
  while (!stop_requested_ && StepUntil(t)) {
  }
  if (!stop_requested_) AdvanceTo(t);
}

}  // namespace sdps::des
