#include "engine/window_state.h"

#include <algorithm>

#include "engine/watermark.h"

namespace sdps::engine {

namespace {

constexpr uint32_t kNil = 0xFFFFFFFFu;

/// Finds or creates the slot for window `id` in a vector sorted ascending
/// by id. Scans from the back: records arrive roughly in time order, so
/// the target is nearly always the last or second-to-last slot, and open
/// windows number size/slide + 1 (a handful), so the worst case is short.
/// `make` builds a fresh slot value for a missing window.
template <typename W, typename MakeW>
W& WindowSlot(std::vector<W>& v, int64_t id, MakeW&& make) {
  size_t i = v.size();
  while (i > 0 && v[i - 1].id > id) --i;
  if (i > 0 && v[i - 1].id == id) return v[i - 1];
  return *v.insert(v.begin() + static_cast<ptrdiff_t>(i), make(id));
}

}  // namespace

void SortOutputs(std::vector<OutputRecord>& out, size_t first) {
  std::stable_sort(out.begin() + static_cast<ptrdiff_t>(first), out.end(),
                   [](const OutputRecord& a, const OutputRecord& b) {
    if (a.max_event_time != b.max_event_time) return a.max_event_time < b.max_event_time;
    return a.key < b.key;
  });
}

int64_t AggWindowState::LastWindowCached(SimTime event_time) {
  if (event_time < cached_slide_start_ || event_time >= cached_slide_end_)
      [[unlikely]] {
    cached_last_window_ = assigner_.LastWindowFor(event_time);
    cached_slide_start_ = assigner_.WindowStart(cached_last_window_);
    cached_slide_end_ = cached_slide_start_ + assigner_.spec().slide;
  }
  return cached_last_window_;
}

void AggWindowState::FoldLanes(const Record& rec, uint32_t row, int64_t first,
                               int64_t last, AddResult* result) {
  size_t lane_idx = LaneOf(first, ring_mask_);
  for (int64_t w = first; w <= last; ++w) {
    Lane& lane = lanes_[static_cast<size_t>(row) * ring_size_ + lane_idx];
    if (lane.window != w) [[unlikely]] {
      if (lane.window != kNoWindow) {
        // Ring conflict: another open window occupies this lane. Row
        // indices survive GrowRing, only lane positions move.
        GrowRing(w);
        MergeIntoRow(rec, row, w, result);
        lane_idx = LaneOf(w + 1, ring_mask_);
        continue;
      }
      ClaimLane(lane, w);
    }
    lane.agg.Merge(rec);
    ++result->window_updates;
    lane_idx = (lane_idx + 1) & ring_mask_;
  }
}

AddResult AggWindowState::Add(const Record& rec) {
  AddResult result;
  const int64_t last = LastWindowCached(rec.event_time);
  const int64_t first = last - overlap_ + 1;
  if (first < min_unfired_window_) [[unlikely]] {
    // Some (maybe all) of the record's windows already fired.
    for (int64_t w = first; w <= last; ++w) {
      if (w < min_unfired_window_) {
        result.late_tuples += rec.weight;
      } else {
        MergeIntoRow(rec, ResolveRow(rec.key), w, &result);
      }
    }
    return result;
  }
  FoldLanes(rec, ResolveRow(rec.key), first, last, &result);
  return result;
}

uint32_t AggWindowState::NewRow(uint64_t key) {
  const uint32_t row = static_cast<uint32_t>(row_keys_.size());
  row_keys_.push_back(key);
  lanes_.resize(lanes_.size() + ring_size_, Lane{kNoWindow, {}});
  return row;
}

uint32_t AggWindowState::ResolveRow(uint64_t key) {
  bool inserted;
  uint32_t& slot = key_rows_.FindOrInsert(key, &inserted);
  if (inserted) [[unlikely]] slot = NewRow(key);
  return slot;
}

void AggWindowState::ClaimLane(Lane& lane, int64_t w) {
  lane.window = w;
  lane.agg = WindowKeyAgg{};
  ++entries_;
  // First contribution to this window from any key opens it.
  if (open_ids_.empty() || open_ids_.back() < w) {
    open_ids_.push_back(w);
  } else {
    size_t i = open_ids_.size();
    while (i > 0 && open_ids_[i - 1] > w) --i;
    if (i == 0 || open_ids_[i - 1] != w) {
      open_ids_.insert(open_ids_.begin() + static_cast<ptrdiff_t>(i), w);
    }
  }
}

void AggWindowState::GrowRing(int64_t incoming) {
  std::vector<int64_t> ids = open_ids_;
  // `incoming` may already be open (claimed through another key's row while
  // its lane in this row collided); a duplicate id would make the xor
  // injectivity check below unsatisfiable at any ring size.
  if (!std::binary_search(ids.begin(), ids.end(), incoming)) ids.push_back(incoming);
  size_t r = ring_size_;
  for (bool injective = false; !injective;) {
    r *= 2;
    injective = true;
    for (size_t i = 0; i < ids.size() && injective; ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        if (((static_cast<uint64_t>(ids[i]) ^ static_cast<uint64_t>(ids[j])) &
             (r - 1)) == 0) {
          injective = false;  // still collide under this mask; double again
          break;
        }
      }
    }
  }
  // Terminates once r exceeds the open-window id span. Migrate every row.
  std::vector<Lane> grown(row_keys_.size() * r, Lane{kNoWindow, {}});
  for (size_t row = 0; row < row_keys_.size(); ++row) {
    for (size_t l = 0; l < ring_size_; ++l) {
      const Lane& old = lanes_[row * ring_size_ + l];
      if (old.window == kNoWindow) continue;
      grown[row * r + LaneOf(old.window, r - 1)] = old;
    }
  }
  lanes_ = std::move(grown);
  ring_size_ = r;
  ring_mask_ = r - 1;
}

void AggWindowState::MergeIntoRow(const Record& rec, uint32_t row, int64_t w,
                                  AddResult* result) {
  Lane* lane = &lanes_[static_cast<size_t>(row) * ring_size_ + LaneOf(w, ring_mask_)];
  if (lane->window != w) {
    if (lane->window != kNoWindow) {
      GrowRing(w);  // guarantees w's lane is free afterwards
      lane = &lanes_[static_cast<size_t>(row) * ring_size_ + LaneOf(w, ring_mask_)];
    }
    ClaimLane(*lane, w);
  }
  lane->agg.Merge(rec);
  ++result->window_updates;
}

std::vector<OutputRecord> AggWindowState::FireUpTo(SimTime watermark) {
  std::vector<OutputRecord> out;
  size_t fired = 0;
  while (fired < open_ids_.size()) {
    const int64_t w = open_ids_[fired];
    const SimTime window_end = assigner_.WindowEnd(w);
    if (window_end > watermark) break;
    min_unfired_window_ = std::max(min_unfired_window_, w + 1);
    const size_t lane_idx = LaneOf(w, ring_mask_);
    for (size_t r = 0; r < row_keys_.size(); ++r) {
      Lane& lane = lanes_[r * ring_size_ + lane_idx];
      if (lane.window != w) continue;
      OutputRecord rec;
      rec.key = row_keys_[r];
      rec.value = lane.agg.sum;
      rec.weight = 1;  // one result tuple per (window, key)
      rec.max_event_time = lane.agg.max_event_time;
      rec.max_ingest_time = lane.agg.max_ingest_time;
      rec.lineage = lane.agg.lineage;
      rec.window_end = window_end;
      out.push_back(rec);
      lane.window = kNoWindow;
      --entries_;
    }
    ++fired;
  }
  open_ids_.erase(open_ids_.begin(), open_ids_.begin() + static_cast<ptrdiff_t>(fired));
  SortOutputs(out);
  return out;
}

AddResult BufferedWindowState::Add(const Record& rec) {
  AddResult result;
  scratch_windows_.clear();
  assigner_.Assign(rec.event_time, &scratch_windows_);
  for (const int64_t w : scratch_windows_) {
    if (w < min_unfired_window_) {
      result.late_tuples += rec.weight;
      continue;
    }
    OpenWindow& win = WindowSlot(windows_, w, [this](int64_t id) {
      OpenWindow nw{id, {}};
      if (!arena_.empty()) {  // recycled buffers come back pre-cleared
        nw.records = std::move(arena_.back());
        arena_.pop_back();
      }
      return nw;
    });
    win.records.push_back(rec);
    // Buffer accounting is physical: a combiner partial is one buffered
    // object however many logical tuples it pre-aggregates.
    buffered_tuples_ += PhysicalTuples(rec);
    ++result.window_updates;
  }
  return result;
}

BufferedWindowState::Fired BufferedWindowState::FireUpTo(SimTime watermark) {
  Fired fired;
  size_t n_fired = 0;
  while (n_fired < windows_.size()) {
    OpenWindow& win = windows_[n_fired];
    const SimTime window_end = assigner_.WindowEnd(win.id);
    if (window_end > watermark) break;
    min_unfired_window_ = std::max(min_unfired_window_, win.id + 1);
    // Bulk evaluation: scan every buffered record of the window, one key
    // probe each (this burst is the Storm model's CPU spike; at shuffle
    // cardinalities it is probe-bound exactly like the combiner fold).
    fire_aggs_.Clear();
    uint64_t window_tuples = 0;
    for (const Record& r : win.records) {
      bool inserted;
      fire_aggs_.FindOrInsert(r.key, &inserted).Merge(r);
      window_tuples += PhysicalTuples(r);  // Add's buffer charge
    }
    fired.tuples_scanned += window_tuples;
    fire_aggs_.ForEach([&](uint64_t key, const WindowKeyAgg& agg) {
      OutputRecord rec;
      rec.key = key;
      rec.value = agg.sum;
      rec.weight = 1;
      rec.max_event_time = agg.max_event_time;
      rec.max_ingest_time = agg.max_ingest_time;
      rec.lineage = agg.lineage;
      rec.window_end = window_end;
      fired.outputs.push_back(rec);
    });
    buffered_tuples_ -= window_tuples;
    win.records.clear();
    arena_.push_back(std::move(win.records));
    ++n_fired;
  }
  windows_.erase(windows_.begin(), windows_.begin() + static_cast<ptrdiff_t>(n_fired));
  SortOutputs(fired.outputs);
  return fired;
}

AddResult JoinWindowState::Add(const Record& rec) {
  AddResult result;
  scratch_windows_.clear();
  assigner_.Assign(rec.event_time, &scratch_windows_);
  for (const int64_t w : scratch_windows_) {
    if (w < min_unfired_window_) {
      result.late_tuples += rec.weight;
      continue;
    }
    ++result.window_updates;
    OpenWindow& win = WindowSlot(windows_, w, [this](int64_t id) {
      OpenWindow nw{id, {}};
      if (!arena_.empty()) {  // recycled buffers come back pre-cleared
        nw.side = std::move(arena_.back());
        arena_.pop_back();
      }
      return nw;
    });
    SideBuffers& side = win.side;
    if (rec.stream == StreamId::kPurchases) {
      side.purchases.push_back(rec);
      side.purchase_tuples += rec.weight;
    } else {
      side.ads.push_back(rec);
      side.ad_tuples += rec.weight;
    }
    if (rec.event_time > side.max_event_time) side.max_event_time = rec.event_time;
    if (rec.ingest_time > side.max_ingest_time) side.max_ingest_time = rec.ingest_time;
    buffered_tuples_ += rec.weight;
  }
  return result;
}

JoinWindowState::Fired JoinWindowState::FireUpTo(SimTime watermark) {
  Fired fired;
  size_t n_fired = 0;
  while (n_fired < windows_.size()) {
    OpenWindow& win = windows_[n_fired];
    const SimTime window_end = assigner_.WindowEnd(win.id);
    if (window_end > watermark) break;
    min_unfired_window_ = std::max(min_unfired_window_, win.id + 1);
    SideBuffers& side = win.side;
    // Hash join: build on ads (per-key chains in insertion order, so the
    // output order matches the historical vector-of-pointers build),
    // probe with purchases.
    build_.Clear();
    const size_t n_ads = side.ads.size();
    build_next_.resize(n_ads);
    for (size_t i = 0; i < n_ads; ++i) {
      bool inserted;
      AdChain& chain = build_.FindOrInsert(side.ads[i].key, &inserted);
      fired.join_work += side.ads[i].weight;
      build_next_[i] = kNil;
      if (inserted) {
        chain.head = static_cast<uint32_t>(i);
      } else {
        build_next_[chain.tail] = static_cast<uint32_t>(i);
      }
      chain.tail = static_cast<uint32_t>(i);
    }
    fired.naive_pairs += side.purchase_tuples * side.ad_tuples;
    for (const Record& p : side.purchases) {
      fired.join_work += p.weight;
      const AdChain* chain = build_.Find(p.key);
      if (chain == nullptr) continue;
      for (uint32_t i = chain->head; i != kNil; i = build_next_[i]) {
        const Record& ad = side.ads[i];
        OutputRecord rec;
        rec.key = p.key;
        rec.value = p.value;
        // Paper Fig. 2: results carry the max event-time of the window.
        rec.max_event_time = side.max_event_time;
        rec.max_ingest_time = side.max_ingest_time;
        rec.weight = p.weight;
        rec.lineage = p.lineage >= 0 ? p.lineage : ad.lineage;
        rec.window_end = window_end;
        fired.outputs.push_back(rec);
        fired.join_work += p.weight;
      }
    }
    fired.tuples_evicted += side.purchase_tuples + side.ad_tuples;
    buffered_tuples_ -= side.purchase_tuples + side.ad_tuples;
    side.Recycle();
    arena_.push_back(std::move(win.side));
    ++n_fired;
  }
  windows_.erase(windows_.begin(), windows_.begin() + static_cast<ptrdiff_t>(n_fired));
  SortOutputs(fired.outputs);
  return fired;
}

void BucketPartial::Add(const Record& rec, QueryKind kind) {
  if (kind == QueryKind::kAggregation) {
    bool inserted;
    aggs.FindOrInsert(rec.key, &inserted).Merge(rec);
  } else if (rec.stream == StreamId::kPurchases) {
    purchases.push_back(rec);
  } else {
    ads.push_back(rec);
  }
  tuples += PhysicalTuples(rec);
  max_event_time = std::max(max_event_time, rec.event_time);
  max_ingest_time = std::max(max_ingest_time, rec.ingest_time);
}

void BucketPartial::Merge(uint64_t key, const WindowKeyAgg& agg) {
  bool inserted;
  aggs.FindOrInsert(key, &inserted).Merge(agg);
  tuples += agg.weight;
  max_event_time = std::max(max_event_time, agg.max_event_time);
  max_ingest_time = std::max(max_ingest_time, agg.max_ingest_time);
}

void RunningAggregate::Fold(const BucketPartial& partial) {
  partial.aggs.ForEach([&](uint64_t key, const WindowKeyAgg& agg) {
    bool inserted;
    WindowKeyAgg& run = running_.FindOrInsert(key, &inserted);
    if (run.weight == 0) ++live_keys_;  // partials carry weight > 0
    run.Merge(agg);
  });
}

void RunningAggregate::Evict(const BucketPartial& partial) {
  partial.aggs.ForEach([&](uint64_t key, const WindowKeyAgg& agg) {
    WindowKeyAgg* run = running_.Find(key);  // every partial was folded in
    run->sum -= agg.sum;
    run->weight -= agg.weight;
    if (run->weight == 0) {
      *run = WindowKeyAgg{};  // folds exactly like a fresh entry
      --live_keys_;
    }
  });
}

void RunningAggregate::Emit(SimTime window_end, std::vector<OutputRecord>* out) const {
  const size_t first = out->size();
  out->reserve(first + live_keys_);
  running_.ForEach([&](uint64_t key, const WindowKeyAgg& agg) {
    if (agg.weight == 0) return;
    out->push_back({agg.max_event_time, agg.max_ingest_time, key, agg.sum, 1,
                    agg.lineage, window_end});
  });
  SortOutputs(*out, first);
}

BucketWindowState::BucketWindowState(const QueryConfig& query, SimTime interval,
                                     int64_t resume_boundary)
    : kind_(query.kind),
      interval_(interval),
      range_buckets_(query.window.range / interval),
      slide_buckets_(query.window.slide / interval),
      next_boundary_(resume_boundary >= 0 ? resume_boundary : slide_buckets_) {}

AddResult BucketWindowState::Add(const Record& rec) {
  buckets_[FloorDiv(rec.event_time, interval_) + 1].Add(rec, kind_);
  return AddResult{1, 0};
}

std::optional<uint64_t> BucketWindowState::FireNext(SimTime frontier,
                                                    std::vector<OutputRecord>* out) {
  const int64_t nb = next_boundary_;
  if (nb * interval_ > frontier) return std::nullopt;
  if (frontier >= kFinalWatermark && buckets_.empty()) return std::nullopt;
  std::vector<const BucketPartial*> window;
  for (auto it = buckets_.lower_bound(nb - range_buckets_ + 1);
       it != buckets_.end() && it->first <= nb; ++it) {
    window.push_back(&it->second);
  }
  const uint64_t work = Evaluate(kind_, window, nb * interval_, out);
  // Evict buckets no later boundary's window covers (the next boundary's
  // window starts after bucket nb + slide - range).
  const int64_t evict_thru = nb + slide_buckets_ - range_buckets_;
  while (!buckets_.empty() && buckets_.begin()->first <= evict_thru) {
    buckets_.erase(buckets_.begin());
  }
  next_boundary_ += slide_buckets_;
  return work;
}

std::vector<OutputRecord> BucketWindowState::FireUpTo(SimTime frontier) {
  std::vector<OutputRecord> out;
  while (FireNext(frontier, &out)) {
  }
  return out;
}

uint64_t BucketWindowState::Evaluate(QueryKind kind,
                                     const std::vector<const BucketPartial*>& window,
                                     SimTime end, std::vector<OutputRecord>* out) {
  const size_t first = out->size();
  uint64_t work = 0;
  bool inserted;
  if (kind == QueryKind::kAggregation) {
    GroupedKeyMap<WindowKeyAgg> merged;
    for (const BucketPartial* b : window) {
      b->aggs.ForEach([&](uint64_t key, const WindowKeyAgg& agg) {
        merged.FindOrInsert(key, &inserted).Merge(agg);
      });
      work += b->aggs.size();
    }
    merged.ForEach([&](uint64_t key, const WindowKeyAgg& agg) {
      out->push_back({agg.max_event_time, agg.max_ingest_time, key, agg.sum, 1,
                      agg.lineage, end});
    });
    SortOutputs(*out, first);
    return work;
  }
  GroupedKeyMap<std::vector<const Record*>> build;
  SimTime max_event = 0, max_ingest = 0;
  for (const BucketPartial* b : window) {
    for (const Record& ad : b->ads) {
      build.FindOrInsert(ad.key, &inserted).push_back(&ad);
      work += ad.weight;
    }
    max_event = std::max(max_event, b->max_event_time);
    max_ingest = std::max(max_ingest, b->max_ingest_time);
  }
  for (const BucketPartial* b : window) {
    for (const Record& p : b->purchases) {
      work += p.weight;
      const auto* match = build.Find(p.key);
      if (match == nullptr) continue;
      for (const Record* ad : *match) {
        out->push_back({max_event, max_ingest, p.key, p.value, p.weight,
                        p.lineage >= 0 ? p.lineage : ad->lineage, end});
      }
    }
  }
  SortOutputs(*out, first);
  return work;
}

}  // namespace sdps::engine
