#include "engine/columnar.h"

#include <numeric>

namespace sdps::engine {

void RadixPartition(const uint64_t* keys, size_t n,
                    const Partitioner& partitioner, PartitionPlan* plan) {
  const int parts = partitioner.parts();
  plan->parts = parts;
  plan->active.clear();
  plan->index.resize(n);
  uint32_t* index = plan->index.data();
  if (parts == 1) {
    // One destination: the plan is the identity permutation. No key is
    // read and no hash computed.
    plan->offsets.assign({0, static_cast<uint32_t>(n)});
    if (n != 0) plan->active.push_back(0);
    std::iota(index, index + n, 0u);
    return;
  }
  plan->dests.resize(n);
  plan->offsets.assign(static_cast<size_t>(parts) + 1, 0);

  // Pass 1: mix + assign + histogram. The mixed hash feeds the
  // divide-free ApplyMixed, so the whole loop is multiply/shift/add.
  uint32_t* dests = plan->dests.data();
  uint32_t* offsets = plan->offsets.data();  // offsets[d] = count(d) for now
  for (size_t i = 0; i < n; ++i) {
    const int d = partitioner.ApplyMixed(MixKey(keys[i]));
    dests[i] = static_cast<uint32_t>(d);
    ++offsets[d];
  }

  // Inclusive prefix sum: offsets[p] becomes the end of run p. The
  // destinations that received records are listed on the way, so
  // consumers walk only non-empty runs (a run of one touches one
  // destination, not all).
  uint32_t end = 0;
  for (int p = 0; p < parts; ++p) {
    if (offsets[p] != 0) plan->active.push_back(p);
    end += offsets[p];
    offsets[p] = end;
  }
  offsets[parts] = end;

  // Stable scatter, back to front: each record takes the last free slot
  // of its run, so ascending i per destination keeps arrival order, and
  // offsets[p] walks down from the end of run p to its start.
  for (size_t i = n; i-- > 0;) index[--offsets[dests[i]]] = static_cast<uint32_t>(i);
}

void GatherRows(const Record* recs, const PartitionPlan& plan,
                std::vector<Record>* rows) {
  const size_t n = plan.index.size();
  rows->resize(n);
  Record* out = rows->data();
  const uint32_t* index = plan.index.data();
  for (size_t i = 0; i < n; ++i) out[i] = recs[index[i]];
}

void ShuffleCombiner::FoldRecord(const Record& r) {
  bool inserted;
  uint32_t& head = head_.FindOrInsert(r.key, &inserted);
  if (inserted) head = kNone;
  const int64_t bucket = FloorDiv(r.event_time, bucket_width_);
  // The exact contribution WindowKeyAgg::Merge would add for r.
  const double contribution = r.preagg ? r.value : r.value * r.weight;
  uint32_t gi = head;
  while (gi != kNone && groups_[gi].bucket != bucket) {
    gi = groups_[gi].next;
  }
  if (gi == kNone) {
    Group g;
    g.bucket = bucket;
    g.next = head;
    g.rec = r;
    g.rec.value = contribution;
    g.rec.preagg = true;
    head = static_cast<uint32_t>(groups_.size());
    groups_.push_back(g);
    return;
  }
  Record& into = groups_[gi].rec;
  into.value += contribution;
  into.weight += r.weight;
  if (r.event_time > into.event_time) into.event_time = r.event_time;
  if (r.ingest_time > into.ingest_time) into.ingest_time = r.ingest_time;
  if (into.lineage < 0) into.lineage = r.lineage;
}

void ShuffleCombiner::Add(const Record* recs, size_t n) {
  for (size_t i = 0; i < n; ++i) FoldRecord(recs[i]);
}

void ShuffleCombiner::AddPermuted(const Record* recs, const uint32_t* idx,
                                  size_t n) {
  for (size_t i = 0; i < n; ++i) FoldRecord(recs[idx[i]]);
}

size_t ShuffleCombiner::Emit(RecordBatch* out) const {
  out->Reserve(out->size() + groups_.size());
  for (const Group& g : groups_) out->PushBack(g.rec);
  return groups_.size();
}

size_t ShuffleCombiner::Emit(std::vector<Record>* out) const {
  out->reserve(out->size() + groups_.size());
  for (const Group& g : groups_) out->push_back(g.rec);
  return groups_.size();
}

uint64_t TreeCombine(std::vector<RecordBatch>* groups,
                     ShuffleCombiner* combiner) {
  uint64_t folded = 0;
  std::vector<RecordBatch>& g = *groups;
  std::vector<RecordBatch> next;
  while (g.size() > 1) {
    next.clear();
    next.reserve((g.size() + 1) / 2);
    for (size_t i = 0; i < g.size(); i += 2) {
      if (i + 1 == g.size()) {  // odd group rides up a level untouched
        next.push_back(std::move(g[i]));
        continue;
      }
      folded += g[i].size() + g[i + 1].size();
      combiner->Reset();
      combiner->Add(g[i].begin(), g[i].size());
      combiner->Add(g[i + 1].begin(), g[i + 1].size());
      RecordBatch merged;
      combiner->Emit(&merged);
      next.push_back(std::move(merged));
    }
    g.swap(next);
  }
  return folded;
}

}  // namespace sdps::engine
