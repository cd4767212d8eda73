// Record batches: the unit moved through the batched data plane, plus the
// process-wide default batch size (the `--batch=N` knob).
//
// A RecordBatch is a run of records that entered the data plane together:
// the generator emits one burst per wakeup, DriverQueue::PopBatch hands a
// source up to `batch` queued records per resume, and the FIFO resources
// (cluster::Link lines, worker CPUs) admit the whole run with one heap
// event. Per-record event-times, lineage stamps, metering, and window
// mutations are all preserved — batching coalesces *scheduling*, not
// semantics. `--batch=1` runs the same code with runs of one record.
#ifndef SDPS_ENGINE_BATCH_H_
#define SDPS_ENGINE_BATCH_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "engine/record.h"

namespace sdps::engine {

/// A run of records moving through the data plane together. Records are
/// stored contiguously (they are small, trivially copyable structs, so a
/// flat vector is already the SoA-friendly layout for every per-field
/// sweep the engines do: WireBytes sums, cost vectors, key partitioning).
/// The inline capacity covers the common batch sizes without touching the
/// allocator; larger bursts spill to the heap transparently.
class RecordBatch {
 public:
  RecordBatch() { records_.reserve(kInlineCapacity); }

  void Reserve(size_t n) { records_.reserve(n); }
  void Clear() {
    records_.clear();
    sums_valid_ = false;
  }
  void PushBack(const Record& rec) {
    records_.push_back(rec);
    sums_valid_ = false;
  }
  void PushBack(Record&& rec) {
    records_.push_back(rec);
    sums_valid_ = false;
  }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  /// Mutable access may change weights/preagg, so it drops the cached
  /// sums; use the const overloads on sealed batches to keep them.
  Record& operator[](size_t i) {
    sums_valid_ = false;
    return records_[i];
  }
  const Record& operator[](size_t i) const { return records_[i]; }
  Record* begin() {
    sums_valid_ = false;
    return records_.data();
  }
  Record* end() { return records_.data() + records_.size(); }
  const Record* begin() const { return records_.data(); }
  const Record* end() const { return records_.data() + records_.size(); }

  /// Computes and memoizes the weight/wire sums. Call when the batch
  /// stops mutating (queue burst creation, shuffle flush); the cached
  /// sums travel with the batch through moves so every later admission
  /// site reads them instead of re-summing. Mutation invalidates.
  void Seal() const { ComputeSums(); }
  bool sealed() const { return sums_valid_; }

  /// Summed logical tuples (records are weight-scaled).
  uint64_t TotalWeight() const {
    if (!sums_valid_) ComputeSums();
    return cached_weight_;
  }

  /// Summed wire size of the run (physical tuples: combiner partials
  /// count once).
  int64_t TotalWireBytes() const {
    if (!sums_valid_) ComputeSums();
    return cached_wire_bytes_;
  }

  static constexpr size_t kInlineCapacity = 64;

 private:
  void ComputeSums() const {
    uint64_t weight = 0;
    int64_t wire = 0;
    for (const Record& r : records_) {
      weight += static_cast<uint64_t>(r.weight);
      wire += WireBytes(r);
    }
    cached_weight_ = weight;
    cached_wire_bytes_ = wire;
    sums_valid_ = true;
  }

  std::vector<Record> records_;
  // Memoized sums: logically derived state, so mutable + const compute.
  mutable uint64_t cached_weight_ = 0;
  mutable int64_t cached_wire_bytes_ = 0;
  mutable bool sums_valid_ = false;
};

/// Process-wide data-plane batch size, set from `--batch=N` before any
/// trial runs (bench::TelemetryScope consumes the flag) and read by
/// driver::RunExperiment when ExperimentConfig::batch is 0. The default
/// is 1: runs of one record, i.e. per-record scheduling.
int DefaultDataPlaneBatch();
void SetDefaultDataPlaneBatch(int batch);

}  // namespace sdps::engine

#endif  // SDPS_ENGINE_BATCH_H_
