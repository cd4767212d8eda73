// Columnar shuffle kernels: struct-of-arrays batch views, one-pass radix
// partitioning, and shuffle-side combiner pre-aggregation.
//
// The paper's workloads keep key cardinality small enough that windowing
// dominates; at millions of distinct keys (ShuffleBench's regime) the
// shuffle itself — key mixing, partition assignment, per-destination
// scatter, and the wire transfer — becomes the bottleneck. These kernels
// make that path batch-oriented:
//
//   ColumnarBatch   gathers a run's keys into one contiguous lane so the
//                   partition sweep below runs as a tight, vectorizable
//                   loop instead of striding 48-byte rows.
//   RadixPartition  assigns every record of a batch to its destination in
//                   one histogram + prefix-sum + scatter pass, producing a
//                   destination-major permutation that preserves arrival
//                   order within each destination (stable). Replaces the
//                   per-record PartitionForKey call (and its 64-bit
//                   divide) on the shuffle path.
//   ShuffleCombiner folds a batch into per-(key, time-bucket) partial
//                   aggregates before the link transfer, so a combined
//                   record crosses the wire as ONE physical tuple
//                   (Record::preagg) while keeping full logical weight.
//
// Combiner exactness: window membership of a record depends only on
// FloorDiv(event_time, slide) (WindowAssigner::LastWindowFor), so any two
// records in the same slide-width time bucket belong to exactly the same
// set of windows — pre-aggregating them commutes with window assignment.
// The partial's value accumulates the same `value * weight` products
// WindowKeyAgg::Merge would have added, in the same per-key arrival
// order, so downstream merges add the exact same doubles. The Spark
// model's deterministic mode buckets by micro-batch interval instead;
// passing that width keeps its bucket partials pure the same way.
#ifndef SDPS_ENGINE_COLUMNAR_H_
#define SDPS_ENGINE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time_util.h"
#include "engine/batch.h"
#include "engine/group_hash.h"
#include "engine/partition.h"
#include "engine/record.h"

namespace sdps::engine {

/// Key lane of a record run — all the partition pass reads. LoadKeys
/// gathers it from row-major records; it stays valid until the next load.
struct ColumnarBatch {
  std::vector<uint64_t> keys;

  void LoadKeys(const Record* recs, size_t n) {
    keys.resize(n);
    for (size_t i = 0; i < n; ++i) keys[i] = recs[i].key;
  }
};

/// Output of one radix-partition pass: a stable destination-major
/// permutation of record indices. Records of destination p are
/// index[offsets[p] .. offsets[p+1]), in their original relative order.
struct PartitionPlan {
  int parts = 0;
  std::vector<uint32_t> offsets;  // parts + 1 prefix sums
  std::vector<uint32_t> index;    // record indices, destination-major
  std::vector<int> active;        // destinations with a non-empty run, ascending

  const uint32_t* Begin(int p) const { return index.data() + offsets[p]; }
  const uint32_t* End(int p) const { return index.data() + offsets[p + 1]; }
  uint32_t RunSize(int p) const { return offsets[p + 1] - offsets[p]; }

  std::vector<uint32_t> dests;  // per-record destination, reused across passes
};

/// One-pass radix partitioning: histogram, prefix sum, stable scatter.
/// Exactly equivalent to assigning PartitionForKey(keys[i], parts) per
/// record and appending i to its destination's list. With one part the
/// plan is the identity, built without reading `keys` (which may then be
/// null or unloaded).
void RadixPartition(const uint64_t* keys, size_t n,
                    const Partitioner& partitioner, PartitionPlan* plan);

/// Materializes the plan's destination-major permutation into one flat
/// buffer: *rows = recs[index[0]], recs[index[1]], ... — partition p's
/// records land at [offsets[p], offsets[p+1]) in their arrival order. One
/// allocation and a fully sequential write stream, versus one growing
/// vector per destination on the per-record path.
void GatherRows(const Record* recs, const PartitionPlan& plan,
                std::vector<Record>* rows);

/// Shuffle-side combiner: folds record runs into per-(key, time-bucket)
/// partials, emitted as pre-aggregated records (Record::preagg) in
/// first-appearance order. `bucket_width` is the window slide (Flink /
/// Storm / rt models) or the micro-batch interval (Spark deterministic
/// mode) — see the exactness argument in the file comment.
class ShuffleCombiner {
 public:
  explicit ShuffleCombiner(SimTime bucket_width)
      : bucket_width_(bucket_width) {
    SDPS_CHECK_GT(bucket_width, 0);
  }

  /// Drops accumulated groups, keeping capacity.
  void Reset() {
    head_.Clear();
    groups_.clear();
  }

  /// Folds recs[0..n) into the current groups, in input order. Accepts
  /// pre-aggregated inputs (tree combine): their partial sums fold in
  /// directly.
  void Add(const Record* recs, size_t n);

  /// Single-record fold — for callers feeding records one at a time.
  void Add(const Record& rec) { FoldRecord(rec); }

  /// Folds recs[idx[0..n)] in index order — the PartitionPlan-run shape
  /// (Spark's map-side combine walks one destination's permuted indices).
  void AddPermuted(const Record* recs, const uint32_t* idx, size_t n);

  /// Appends one combined record per group to *out, in the order the
  /// groups first appeared, and returns the group count. State is left
  /// intact (call Reset before reuse).
  size_t Emit(RecordBatch* out) const;

  /// Same, into a plain record vector (the Spark model's map-output rows).
  size_t Emit(std::vector<Record>* out) const;

  /// Reset + Add + Emit in one call: combine a single run.
  size_t Combine(const Record* recs, size_t n, RecordBatch* out) {
    Reset();
    Add(recs, n);
    return Emit(out);
  }

  size_t group_count() const { return groups_.size(); }

 private:
  static constexpr uint32_t kNone = ~0u;

  struct Group {
    int64_t bucket;
    uint32_t next;  // next group for the same key (distinct bucket)
    Record rec;
  };

  /// Folds one record into its (key, bucket) group: one key probe, then a
  /// walk of the key's group chain.
  void FoldRecord(const Record& r);

  SimTime bucket_width_;
  GroupedKeyMap<uint32_t> head_;  // key -> head of its group chain
  std::vector<Group> groups_;
};

/// Tree-combine step for the Spark model's aggregate: pairwise-combines
/// record groups (one per map output) until a single group remains,
/// replacing *groups with it. Returns the total records folded across all
/// levels — the driver for the reduce-side merge CPU charge. Exact for
/// the same reason single-level combining is: groups stay bucket-pure at
/// every level.
uint64_t TreeCombine(std::vector<RecordBatch>* groups,
                     ShuffleCombiner* combiner);

}  // namespace sdps::engine

#endif  // SDPS_ENGINE_COLUMNAR_H_
