// Keyed window state backends.
//
//  * AggWindowState     — incremental per-(window, key) running aggregates,
//                         the Flink "on-the-fly" style (each sliding window
//                         keeps its own aggregate; no cross-window sharing,
//                         matching the paper's Experiment 3 observation).
//  * BufferedWindowState— full-record buffering with bulk evaluation at
//                         trigger time, the Storm style (memory-hungry,
//                         CPU burst at window close).
//  * JoinWindowState    — two-sided window buffers with hash-join
//                         evaluation at trigger time (Flink 1.1 / Spark
//                         both evaluate window joins at window close).
//  * BucketWindowState  — Spark's event-time bucket partials, combined
//                         per window at frontier-gated boundaries (the
//                         deterministic micro-batch model both backends
//                         share, DESIGN.md §6).
//
// Storage layout (perf-critical — every simulated tuple passes through
// Add): open windows live in a sorted vector keyed by consecutive window
// ids (sliding windows overlap by size/slide, so there are only a handful
// open at once — ordered lookup is a short scan from the back, not a
// red-black tree walk), and all keyed state, Spark's bucket partials and
// join builds included, lives in flat open-addressing tables
// (engine::GroupedKeyMap, 16-wide group probing, one probe per record).
// Fired windows return their tables/buffers to a scratch arena so
// steady-state firing never touches the allocator. Every evaluation's
// outputs leave through SortOutputs: no table order reaches an output.
//
// Output event-/processing-times follow the paper's Definitions 3 and 4:
// aggregation outputs carry the max event-/ingest-time of the contributing
// events of that key; join outputs carry the max over the whole window
// contents of both sides (the paper's Fig. 2 semantics).
#ifndef SDPS_ENGINE_WINDOW_STATE_H_
#define SDPS_ENGINE_WINDOW_STATE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "engine/group_hash.h"
#include "engine/query.h"
#include "engine/record.h"
#include "engine/watermark.h"
#include "engine/window.h"

namespace sdps::engine {

/// Running aggregate of one key inside one window.
struct WindowKeyAgg {
  double sum = 0.0;
  uint64_t weight = 0;
  /// Max times start at SimTime min so a record with legitimate time 0
  /// (simulation start) still registers as the max.
  SimTime max_event_time = std::numeric_limits<SimTime>::min();
  SimTime max_ingest_time = std::numeric_limits<SimTime>::min();
  /// Lineage id of the first sampled contributor (latency attribution);
  /// -1 when none of the merged records was sampled.
  int32_t lineage = -1;

  void Merge(const Record& r) {
    // A combiner partial (preagg) already carries the summed
    // value*weight products of its contributors; folding it in adds the
    // exact double the per-record merges would have added.
    sum += r.preagg ? r.value : r.value * r.weight;
    weight += r.weight;
    if (r.event_time > max_event_time) max_event_time = r.event_time;
    if (r.ingest_time > max_ingest_time) max_ingest_time = r.ingest_time;
    if (lineage < 0) lineage = r.lineage;
  }

  /// Folds in another partial (a tree-aggregate or bucket combine step):
  /// the same aggregate as merging both partials' records.
  void Merge(const WindowKeyAgg& other) {
    sum += other.sum;
    weight += other.weight;
    if (other.max_event_time > max_event_time) max_event_time = other.max_event_time;
    if (other.max_ingest_time > max_ingest_time) max_ingest_time = other.max_ingest_time;
    if (lineage < 0) lineage = other.lineage;
  }
};

/// Sorts out[first..] by (max_event_time, key), the one output order of
/// every window state. Stable: a key firing in two overlapping windows,
/// or one key's join pairs, tie; every backend appends windows in
/// ascending id order, so stability gives all of them one total order.
void SortOutputs(std::vector<OutputRecord>& out, size_t first = 0);

/// Result of adding one record to window state. With out-of-order input,
/// some (or all) of a record's windows may already have fired; those
/// contributions are dropped and reported (re-opening a fired window
/// would double-emit it on the next trigger).
struct AddResult {
  /// Window-updates performed (the engine charges CPU per update).
  int window_updates = 0;
  /// Logical tuples x windows whose contribution arrived too late.
  uint64_t late_tuples = 0;

  void Accumulate(const AddResult& r) {
    window_updates += r.window_updates;
    late_tuples += r.late_tuples;
  }
};

/// Folds a run of records into `state` in order (identical mutations to n
/// serial Adds — batching the data plane must not reorder state updates).
/// When `per_record` is non-null it receives each record's own AddResult
/// (engines charge CPU per window update, per record). Returns the sum.
template <typename State>
AddResult AddBatch(State& state, const Record* recs, size_t n,
                   AddResult* per_record = nullptr) {
  AddResult total;
  for (size_t i = 0; i < n; ++i) {
    const AddResult r = state.Add(recs[i]);
    if (per_record != nullptr) per_record[i] = r;
    total.Accumulate(r);
  }
  return total;
}

/// Incremental sliding-window SUM aggregation (SELECT SUM(price) ...
/// GROUP BY gemPackID from Listing 1).
///
/// Layout is key-major, not window-major: each key resolves (one hash
/// probe) to a row of adjacent lanes, one per open window (lane = window
/// id masked by the ring size, a power of two >= WindowsPerRecord()).
/// Folding a record touches one hash slot and one contiguous row instead
/// of `overlap` separate node-based maps. Out-of-order input can hold
/// more windows open than the ring has lanes; when two open windows
/// collide under the mask, the ring doubles until the open set maps
/// injectively and all rows migrate (rare — only under disorder spans
/// larger than the window range).
class AggWindowState {
 public:
  explicit AggWindowState(const WindowAssigner& assigner)
      : assigner_(assigner), overlap_(assigner.WindowsPerRecord()) {
    ring_size_ = 1;
    while (ring_size_ < static_cast<size_t>(overlap_)) ring_size_ *= 2;
    ring_mask_ = ring_size_ - 1;
  }

  /// Folds the record into every still-open window it belongs to.
  AddResult Add(const Record& rec);

  /// Fires all windows with end <= watermark, oldest first; outputs one
  /// record per (window, key), then drops the window state.
  std::vector<OutputRecord> FireUpTo(SimTime watermark);

  /// Estimated heap footprint of the open state.
  int64_t state_bytes() const { return entries_ * kBytesPerEntry; }
  size_t open_windows() const { return open_ids_.size(); }
  int64_t entries() const { return entries_; }

  /// Per-(window,key) JVM-heap entry estimate: boxed key + aggregate
  /// object + hash-map node overhead.
  static constexpr int64_t kBytesPerEntry = 96;

 private:
  /// One (window, key) running aggregate. `window` tags which window the
  /// lane currently belongs to; kNoWindow marks a free lane.
  struct Lane {
    int64_t window;
    WindowKeyAgg agg;
  };

  static constexpr int64_t kNoWindow = std::numeric_limits<int64_t>::min();

  static size_t LaneOf(int64_t w, size_t mask) {
    return static_cast<size_t>(static_cast<uint64_t>(w) & mask);
  }

  /// Returns the lane-row index for `key`, allocating a row of free lanes
  /// on first sight.
  uint32_t ResolveRow(uint64_t key);
  /// Allocates the lane row for a key the map just saw for the first time.
  uint32_t NewRow(uint64_t key);
  /// Refreshes the one-entry window-assignment cache for `event_time` and
  /// returns the last window id the record belongs to.
  int64_t LastWindowCached(SimTime event_time);
  /// Claims a free lane for window `w` and tracks it in open_ids_.
  void ClaimLane(Lane& lane, int64_t w);
  /// Doubles the lane ring until every open window (and `incoming`) maps
  /// to a distinct lane, migrating all rows.
  void GrowRing(int64_t incoming);
  /// Folds rec's windows [first, last] into its resolved lane row (row
  /// indices survive GrowRing).
  void FoldLanes(const Record& rec, uint32_t row, int64_t first, int64_t last,
                 AddResult* result);
  /// Single-window merge into a resolved row (late-path and ring-conflict
  /// slow path).
  void MergeIntoRow(const Record& rec, uint32_t row, int64_t w,
                    AddResult* result);

  WindowAssigner assigner_;
  int64_t overlap_;                 // windows per record
  size_t ring_size_;                // lanes per row (power of two)
  size_t ring_mask_;                // ring_size_ - 1
  GroupedKeyMap<uint32_t> key_rows_;  // key -> row index
  std::vector<uint64_t> row_keys_;  // row index -> key
  std::vector<Lane> lanes_;         // row-major, ring_size_ lanes per row
  std::vector<int64_t> open_ids_;   // sorted ascending, unfired windows
  int64_t entries_ = 0;
  int64_t min_unfired_window_ = std::numeric_limits<int64_t>::min();
  // One-entry window-assignment cache: event times arrive nearly
  // monotonically, so almost every record lands in the same slide as its
  // predecessor — skipping the int64 division in the hot path.
  SimTime cached_slide_start_ = 1;  // empty interval until first miss
  SimTime cached_slide_end_ = 0;
  int64_t cached_last_window_ = 0;
};

/// Full-record buffering per window with bulk aggregation at fire time
/// (Storm's window bolt keeps the raw tuple buffer).
class BufferedWindowState {
 public:
  explicit BufferedWindowState(const WindowAssigner& assigner) : assigner_(assigner) {}

  /// Buffers the record into every still-open window it belongs to.
  AddResult Add(const Record& rec);

  struct Fired {
    std::vector<OutputRecord> outputs;
    /// Logical tuples scanned during bulk evaluation (CPU charge for the
    /// burst at trigger time).
    uint64_t tuples_scanned = 0;
  };

  Fired FireUpTo(SimTime watermark);

  int64_t state_bytes() const {
    return static_cast<int64_t>(buffered_tuples_) * kBytesPerTuple;
  }
  /// Logical tuples buffered (weight-scaled; a record counts `weight` times).
  uint64_t buffered_tuples() const { return buffered_tuples_; }

  /// Raw tuple object on the JVM heap (fields + object headers + list node).
  static constexpr int64_t kBytesPerTuple = 160;

 private:
  struct OpenWindow {
    int64_t id;
    std::vector<Record> records;
  };

  WindowAssigner assigner_;
  std::vector<OpenWindow> windows_;        // sorted ascending by id
  std::vector<std::vector<Record>> arena_;  // recycled fired buffers
  GroupedKeyMap<WindowKeyAgg> fire_aggs_;   // reused across fired windows
  uint64_t buffered_tuples_ = 0;
  int64_t min_unfired_window_ = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> scratch_windows_;
};

/// Two-sided window buffer with hash-join evaluation at fire time
/// (Listing 1's windowed join: PURCHASES ⋈ ADS on the composite key).
class JoinWindowState {
 public:
  explicit JoinWindowState(const WindowAssigner& assigner) : assigner_(assigner) {}

  AddResult Add(const Record& rec);

  struct Fired {
    std::vector<OutputRecord> outputs;
    /// Hash builds + probes performed, in logical tuples (CPU charge for a
    /// hash-join implementation).
    uint64_t join_work = 0;
    /// Sum over fired windows of |purchases| x |ads| in logical tuples —
    /// the CPU charge for a naive nested-loop implementation (Storm's
    /// hand-rolled join in the paper's Experiment 2).
    uint64_t naive_pairs = 0;
    /// Logical tuples evicted from state.
    uint64_t tuples_evicted = 0;
  };

  Fired FireUpTo(SimTime watermark);

  int64_t state_bytes() const {
    return static_cast<int64_t>(buffered_tuples_) * kBytesPerTuple;
  }
  uint64_t buffered_tuples() const { return buffered_tuples_; }

  static constexpr int64_t kBytesPerTuple = 160;

 private:
  struct SideBuffers {
    std::vector<Record> purchases;
    std::vector<Record> ads;
    uint64_t purchase_tuples = 0;
    uint64_t ad_tuples = 0;
    /// Max over both sides (paper Fig. 2 semantics); SimTime min so a
    /// record at time 0 registers.
    SimTime max_event_time = std::numeric_limits<SimTime>::min();
    SimTime max_ingest_time = std::numeric_limits<SimTime>::min();

    void Recycle() {
      purchases.clear();
      ads.clear();
      purchase_tuples = 0;
      ad_tuples = 0;
      max_event_time = std::numeric_limits<SimTime>::min();
      max_ingest_time = std::numeric_limits<SimTime>::min();
    }
  };

  struct OpenWindow {
    int64_t id;
    SideBuffers side;
  };

  /// Per-key ad chain for the fire-time hash join: index of the first and
  /// last matching ad in the window's ad buffer (chained through
  /// build_next_, oldest first — preserving ad insertion order in the
  /// join output).
  struct AdChain {
    uint32_t head;
    uint32_t tail;
  };

  WindowAssigner assigner_;
  std::vector<OpenWindow> windows_;   // sorted ascending by id
  std::vector<SideBuffers> arena_;    // recycled fired buffers
  GroupedKeyMap<AdChain> build_;      // reused across fired windows
  std::vector<uint32_t> build_next_;  // parallel to a window's ad buffer
  uint64_t buffered_tuples_ = 0;
  int64_t min_unfired_window_ = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> scratch_windows_;
};

/// One Spark bucket: the records of one event-time bucket (deterministic
/// batching) or of one job (the classic arrival-batched reduce), kept as
/// per-key partial aggregates (aggregation query) or raw two-sided
/// buffers (join query).
struct BucketPartial {
  GroupedKeyMap<WindowKeyAgg> aggs;  // aggregation query
  std::vector<Record> purchases;     // join query
  std::vector<Record> ads;
  /// Physical tuples folded in: a shuffle-combined partial is deserialized,
  /// folded and retained as ONE object (equal to weight without a
  /// combiner).
  uint64_t tuples = 0;
  SimTime max_event_time = 0;
  SimTime max_ingest_time = 0;

  void Add(const Record& rec, QueryKind kind);
  /// Folds in a tree-aggregate partial of `key` (agg.weight tuples).
  void Merge(uint64_t key, const WindowKeyAgg& agg);
};

/// Spark's inverse-reduce window (the paper's "Inverse Reduce Function"
/// fix for Experiment 3): one running per-key aggregate over the job
/// partials inside the window. Each job's partial is folded in when the
/// job runs and subtracted when it leaves the window. The map is
/// insert-only: a key whose weight returns to 0 is reset in place, so it
/// folds again exactly like a fresh key.
class RunningAggregate {
 public:
  /// Folds in a job's partial.
  void Fold(const BucketPartial& partial);
  /// Subtracts a partial Fold() took in. The max times are kept: event
  /// time grows with the job index, so the newer partials hold the max.
  void Evict(const BucketPartial& partial);
  /// Appends one output per live key, closing at `window_end`, in
  /// SortOutputs order.
  void Emit(SimTime window_end, std::vector<OutputRecord>* out) const;
  /// Keys of weight > 0.
  size_t live_keys() const { return live_keys_; }

 private:
  GroupedKeyMap<WindowKeyAgg> running_;
  size_t live_keys_ = 0;
};

/// Spark's event-time bucket window (deterministic batching): bucket b
/// holds the records with event time in [(b-1)*interval, b*interval), and
/// boundary nb (a multiple of slide/interval) evaluates the window of
/// buckets (nb - range/interval, nb], ending at nb*interval. A boundary
/// fires only once the frontier — every record below it has been added —
/// reaches its end, so the output multiset is a pure function of the
/// input stream, not of arrival timing (each boundary's outputs sorted as
/// Flink's and Storm's). Assumes in-order event times per input (a record
/// for an already-fired boundary is not reported late). The DES SparkSut's
/// deterministic reduce and the rt Spark task both run this state (DESIGN.md §6).
class BucketWindowState {
 public:
  /// `resume_boundary` >= 0 restarts the cursor at a committed boundary (a
  /// recovered incarnation must not re-evaluate what it already emitted);
  /// -1 starts at the first boundary.
  BucketWindowState(const QueryConfig& query, SimTime interval,
                    int64_t resume_boundary = -1);

  /// Folds the record into its event-time bucket (one window update).
  AddResult Add(const Record& rec);

  /// Fires the next boundary if `frontier` has reached its end: appends its
  /// outputs to *out, evicts the buckets no later boundary covers and
  /// advances the cursor. Returns the boundary's work (see Evaluate), or
  /// nullopt when no boundary is due — including once the final frontier
  /// (kFinalWatermark) has flushed every bucket. One boundary per call, so
  /// a DES caller can charge and emit boundary by boundary.
  std::optional<uint64_t> FireNext(SimTime frontier, std::vector<OutputRecord>* out);

  /// Fires every due boundary, oldest first.
  std::vector<OutputRecord> FireUpTo(SimTime frontier);

  /// Evaluates one window over `window` (its buckets, oldest first) with
  /// window_end `end`, appending the outputs to *out in SortOutputs order.
  /// Aggregation: one output per key with the merged partials; returns the
  /// partial entries merged. Join: build on the ads, probe with the
  /// purchases — one output per matching (purchase, ad) pair carrying the
  /// purchase's value and weight and the window's max times (paper Fig. 2);
  /// returns the side weights scanned.
  static uint64_t Evaluate(QueryKind kind,
                           const std::vector<const BucketPartial*>& window,
                           SimTime end, std::vector<OutputRecord>* out);

  /// The next boundary FireNext evaluates: every boundary below it has
  /// fired (the recovery cursor).
  int64_t next_boundary() const { return next_boundary_; }
  /// Buckets per window (range / interval).
  int64_t range_buckets() const { return range_buckets_; }
  /// Open buckets by index, ascending.
  const std::map<int64_t, BucketPartial>& buckets() const { return buckets_; }

 private:
  QueryKind kind_;
  SimTime interval_;
  int64_t range_buckets_;
  int64_t slide_buckets_;
  int64_t next_boundary_;
  std::map<int64_t, BucketPartial> buckets_;
};

/// A task's logical window state, one alternative per engine model and
/// query: incremental aggregates (Flink), buffered windows (Storm), the
/// join buffers (Flink and Storm), bucket partials (Spark).
using WindowState =
    std::variant<AggWindowState, BufferedWindowState, JoinWindowState, BucketWindowState>;

/// One window task's state, owned by the SUT rather than by the task, so a
/// checkpoint restore or a worker restart can replace it while the task
/// runs on. Assigning a slot holding the same alternative keeps the state
/// object in place: a task's reference to it stays valid.
struct TaskSlot {
  WindowState state;
  WatermarkTracker tracker;
};

}  // namespace sdps::engine

#endif  // SDPS_ENGINE_WINDOW_STATE_H_
