#include "engine/window_state.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/watermark.h"

namespace sdps::engine {
namespace {

Record MakeRecord(SimTime event_time, uint64_t key, double value,
                  SimTime ingest_time = -1, StreamId stream = StreamId::kPurchases,
                  uint32_t weight = 1) {
  Record r;
  r.event_time = event_time;
  r.ingest_time = ingest_time < 0 ? event_time + Seconds(1) : ingest_time;
  r.key = key;
  r.value = value;
  r.weight = weight;
  r.stream = stream;
  return r;
}

// ---------------------------------------------------------------------------
// The paper's Fig. 1 worked example: a 10-minute window (5, 605]; events per
// key US/Ger/Jpn; the output's event time is the max event time of the
// key's events, and SUM aggregates the prices. (Our windows are [0, 600)
// aligned; we use second-scale times inside one window and check the same
// aggregates and Definition-3 event times.)
// ---------------------------------------------------------------------------
TEST(AggWindowStateTest, PaperFigure1Example) {
  constexpr uint64_t kUs = 1, kGer = 2, kJpn = 3;
  WindowAssigner assigner({Minutes(10), Minutes(10)});
  AggWindowState state(assigner);
  // US: (580, 12), (590, 20), (600 -> use 599.999.., keep 600-eps) => paper
  // uses inclusive 600; with [start, end) windows we place it at 599.
  state.Add(MakeRecord(Seconds(580), kUs, 12));
  state.Add(MakeRecord(Seconds(590), kUs, 20));
  state.Add(MakeRecord(Seconds(599), kUs, 10));
  state.Add(MakeRecord(Seconds(580), kGer, 43));
  state.Add(MakeRecord(Seconds(590), kGer, 20));
  state.Add(MakeRecord(Seconds(595), kGer, 20));
  state.Add(MakeRecord(Seconds(580), kJpn, 33));
  state.Add(MakeRecord(Seconds(590), kJpn, 20));
  state.Add(MakeRecord(Seconds(599), kJpn, 77));

  auto outputs = state.FireUpTo(Minutes(10));
  ASSERT_EQ(outputs.size(), 3u);
  std::map<uint64_t, OutputRecord> by_key;
  for (const auto& out : outputs) by_key[out.key] = out;

  EXPECT_DOUBLE_EQ(by_key[kUs].value, 42.0);   // 12 + 20 + 10
  EXPECT_DOUBLE_EQ(by_key[kGer].value, 83.0);  // 43 + 20 + 20
  EXPECT_DOUBLE_EQ(by_key[kJpn].value, 130.0); // 33 + 20 + 77
  // Definition 3: output event-time = max event-time of its inputs.
  EXPECT_EQ(by_key[kUs].max_event_time, Seconds(599));
  EXPECT_EQ(by_key[kGer].max_event_time, Seconds(595));
  EXPECT_EQ(by_key[kJpn].max_event_time, Seconds(599));
}

TEST(AggWindowStateTest, SlidingWindowCountsRecordInAllWindows) {
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  AggWindowState state(assigner);
  EXPECT_EQ(state.Add(MakeRecord(Seconds(5), 1, 10.0)).window_updates, 2);
  auto outs0 = state.FireUpTo(Seconds(8));   // window [0, 8)
  ASSERT_EQ(outs0.size(), 1u);
  EXPECT_DOUBLE_EQ(outs0[0].value, 10.0);
  auto outs1 = state.FireUpTo(Seconds(12));  // window [4, 12)
  ASSERT_EQ(outs1.size(), 1u);
  EXPECT_DOUBLE_EQ(outs1[0].value, 10.0);
}

TEST(AggWindowStateTest, WeightScalesSum) {
  WindowAssigner assigner({Seconds(4), Seconds(4)});
  AggWindowState state(assigner);
  state.Add(MakeRecord(Seconds(1), 7, 3.0, -1, StreamId::kPurchases, /*weight=*/5));
  auto outs = state.FireUpTo(Seconds(4));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_DOUBLE_EQ(outs[0].value, 15.0);
}

TEST(AggWindowStateTest, FireOnlyClosesRipeWindows) {
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  AggWindowState state(assigner);
  state.Add(MakeRecord(Seconds(2), 1, 1.0));  // windows [-4,4) and [0,8)
  state.Add(MakeRecord(Seconds(9), 1, 2.0));  // windows [4,12) and [8,16)
  // Watermark 8 closes [-4,4) and [0,8) but not the later windows.
  auto outs = state.FireUpTo(Seconds(8));
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_DOUBLE_EQ(outs[0].value, 1.0);
  EXPECT_DOUBLE_EQ(outs[1].value, 1.0);
  EXPECT_EQ(state.open_windows(), 2u);
}

TEST(AggWindowStateTest, StateBytesGrowAndShrink) {
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  AggWindowState state(assigner);
  EXPECT_EQ(state.state_bytes(), 0);
  for (int k = 0; k < 100; ++k) state.Add(MakeRecord(Seconds(1), k, 1.0));
  EXPECT_EQ(state.state_bytes(), 200 * AggWindowState::kBytesPerEntry);
  state.FireUpTo(Seconds(100));
  EXPECT_EQ(state.state_bytes(), 0);
}

// Randomised equivalence against a brute-force reference.
TEST(WindowKeyAggTest, TracksMaxTimesAtAndBelowZero) {
  // Regression: max times used to start at 0, so records whose event times
  // were <= 0 (simulation epoch, or pre-epoch skew) never registered and
  // fired outputs reported a phantom max_event_time of 0.
  WindowKeyAgg agg;
  Record r = MakeRecord(-Seconds(2), 1, 10.0, /*ingest_time=*/0);
  agg.Merge(r);
  EXPECT_EQ(agg.max_event_time, -Seconds(2));
  EXPECT_EQ(agg.max_ingest_time, 0);
  Record r2 = MakeRecord(-Seconds(5), 1, 1.0, /*ingest_time=*/0);
  agg.Merge(r2);
  EXPECT_EQ(agg.max_event_time, -Seconds(2));  // -5s does not displace -2s
  EXPECT_DOUBLE_EQ(agg.sum, 11.0);
}

TEST(WindowKeyAggTest, MergingPartialsEqualsMergingTheirRecords) {
  // Two partials over disjoint record runs, merged, must equal one
  // aggregate over both runs in order (integer values keep sums exact).
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    WindowKeyAgg a, b, all;
    const int n = static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < n; ++i) {
      const SimTime event = static_cast<SimTime>(rng.NextBelow(Seconds(100))) - Seconds(50);
      Record r = MakeRecord(event, 1, static_cast<double>(rng.NextBelow(100)),
                            static_cast<SimTime>(rng.NextBelow(Seconds(100))),
                            StreamId::kPurchases,
                            static_cast<uint32_t>(rng.NextBelow(3) + 1));
      r.lineage = rng.NextDouble() < 0.2 ? static_cast<int32_t>(i) : -1;
      (i < n / 2 ? a : b).Merge(r);
      all.Merge(r);
    }
    a.Merge(b);
    EXPECT_DOUBLE_EQ(a.sum, all.sum);
    EXPECT_EQ(a.weight, all.weight);
    EXPECT_EQ(a.max_event_time, all.max_event_time);
    EXPECT_EQ(a.max_ingest_time, all.max_ingest_time);
    EXPECT_EQ(a.lineage, all.lineage);
  }
}

TEST(AggWindowStateTest, OutOfOrderReclaimOfOpenWindowLane) {
  // Regression for the lane-ring index: with out-of-order input a window
  // can be open (claimed through one key's row) while another key's row
  // still holds a colliding window at the same lane. The ring must grow and
  // migrate — this exact sequence used to loop forever in GrowRing.
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  AggWindowState state(assigner);
  // key 1 opens windows 0 and 1; key 2 then opens 2 and 3 (lane-colliding
  // with 0 and 1 under the initial ring); key 1 re-touches 2 and 3.
  state.Add(MakeRecord(Seconds(4), 1, 10.0));
  state.Add(MakeRecord(Seconds(12), 2, 20.0));
  state.Add(MakeRecord(Seconds(12), 1, 30.0));
  EXPECT_EQ(state.open_windows(), 4u);

  std::vector<std::tuple<SimTime, uint64_t, double>> outs;
  for (const auto& out : state.FireUpTo(Seconds(100))) {
    outs.emplace_back(out.max_event_time, out.key, out.value);
  }
  std::sort(outs.begin(), outs.end());
  // t=4s lands in windows [0,8) and [4,12); t=12s in [8,16) and [12,20);
  // each record therefore yields two per-window outputs.
  const std::vector<std::tuple<SimTime, uint64_t, double>> expected = {
      {Seconds(4), 1, 10.0},  {Seconds(4), 1, 10.0},
      {Seconds(12), 1, 30.0}, {Seconds(12), 1, 30.0},
      {Seconds(12), 2, 20.0}, {Seconds(12), 2, 20.0}};
  EXPECT_EQ(outs, expected);
}

TEST(AggWindowStateTest, MatchesBruteForceReference) {
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  AggWindowState state(assigner);
  Rng rng(99);
  std::vector<Record> all;
  for (int i = 0; i < 3000; ++i) {
    Record r = MakeRecord(static_cast<SimTime>(rng.NextBelow(Seconds(40))),
                          rng.NextBelow(20), rng.Uniform(1, 100));
    all.push_back(r);
    state.Add(r);
  }
  auto outs = state.FireUpTo(Seconds(100));
  // Reference: per (window, key) sums.
  std::map<std::pair<int64_t, uint64_t>, double> ref;
  std::vector<int64_t> windows;
  for (const Record& r : all) {
    windows.clear();
    assigner.Assign(r.event_time, &windows);
    for (int64_t w : windows) ref[{w, r.key}] += r.value;
  }
  ASSERT_EQ(outs.size(), ref.size());
  double out_total = 0, ref_total = 0;
  for (const auto& o : outs) out_total += o.value;
  for (const auto& [k, v] : ref) ref_total += v;
  EXPECT_NEAR(out_total, ref_total, 1e-6 * ref_total);
}

TEST(BufferedWindowStateTest, SameResultsAsIncrementalButScansTuples) {
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  AggWindowState incremental(assigner);
  BufferedWindowState buffered(assigner);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Record r = MakeRecord(static_cast<SimTime>(rng.NextBelow(Seconds(20))),
                          rng.NextBelow(10), rng.Uniform(1, 10));
    incremental.Add(r);
    buffered.Add(r);
  }
  auto a = incremental.FireUpTo(Seconds(100));
  auto b = buffered.FireUpTo(Seconds(100));
  ASSERT_EQ(a.size(), b.outputs.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b.outputs[i].key);
    EXPECT_NEAR(a[i].value, b.outputs[i].value, 1e-9);
    EXPECT_EQ(a[i].max_event_time, b.outputs[i].max_event_time);
  }
  // 500 records x 2 windows each were scanned in bulk.
  EXPECT_EQ(b.tuples_scanned, 1000u);
}

TEST(BufferedWindowStateTest, MemoryFootprintTracksBufferedTuples) {
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  BufferedWindowState state(assigner);
  state.Add(MakeRecord(Seconds(1), 1, 1.0, -1, StreamId::kPurchases, 50));
  // Weight 50, two windows -> 100 buffered logical tuples.
  EXPECT_EQ(state.buffered_tuples(), 100u);
  EXPECT_EQ(state.state_bytes(), 100 * BufferedWindowState::kBytesPerTuple);
  auto fired = state.FireUpTo(Seconds(100));
  EXPECT_EQ(state.buffered_tuples(), 0u);
  EXPECT_EQ(fired.tuples_scanned, 100u);
}

// ---------------------------------------------------------------------------
// The paper's Fig. 2 worked example: ads (yellow) and purchases (green) in a
// 10-minute window; ads max_time = 500, purchases max_time = 600; every
// join result carries event-time 600 = max event-time of the window.
// ---------------------------------------------------------------------------
TEST(JoinWindowStateTest, PaperFigure2Example) {
  constexpr uint64_t kUser1Gem2 = 12;
  WindowAssigner assigner({Minutes(10), Minutes(10)});
  JoinWindowState state(assigner);
  // One ad at time 500.
  state.Add(MakeRecord(Seconds(500), kUser1Gem2, 0, Seconds(501), StreamId::kAds));
  // Three purchases at 580, 550, 599 (paper's 600 falls on our boundary).
  state.Add(MakeRecord(Seconds(580), kUser1Gem2, 10, Seconds(581)));
  state.Add(MakeRecord(Seconds(550), kUser1Gem2, 20, Seconds(551)));
  state.Add(MakeRecord(Seconds(599), kUser1Gem2, 30, Seconds(600)));

  auto fired = state.FireUpTo(Minutes(10));
  ASSERT_EQ(fired.outputs.size(), 3u);
  for (const auto& out : fired.outputs) {
    EXPECT_EQ(out.key, kUser1Gem2);
    // All results carry the window's max event-time (599 here, 600 in the
    // paper's inclusive-window rendering).
    EXPECT_EQ(out.max_event_time, Seconds(599));
    EXPECT_EQ(out.max_ingest_time, Seconds(600));
  }
}

TEST(JoinWindowStateTest, OnlyMatchingKeysJoin) {
  WindowAssigner assigner({Seconds(8), Seconds(8)});
  JoinWindowState state(assigner);
  state.Add(MakeRecord(Seconds(1), 1, 0, -1, StreamId::kAds));
  state.Add(MakeRecord(Seconds(2), 1, 10));
  state.Add(MakeRecord(Seconds(3), 2, 20));  // no matching ad
  auto fired = state.FireUpTo(Seconds(8));
  ASSERT_EQ(fired.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(fired.outputs[0].value, 10.0);
}

TEST(JoinWindowStateTest, CrossProductWithinKey) {
  WindowAssigner assigner({Seconds(8), Seconds(8)});
  JoinWindowState state(assigner);
  state.Add(MakeRecord(Seconds(1), 5, 0, -1, StreamId::kAds));
  state.Add(MakeRecord(Seconds(2), 5, 0, -1, StreamId::kAds));
  state.Add(MakeRecord(Seconds(3), 5, 7));
  state.Add(MakeRecord(Seconds(4), 5, 8));
  auto fired = state.FireUpTo(Seconds(8));
  EXPECT_EQ(fired.outputs.size(), 4u);  // 2 purchases x 2 ads
}

TEST(JoinWindowStateTest, MatchesNestedLoopReference) {
  WindowAssigner assigner({Seconds(8), Seconds(4)});
  JoinWindowState state(assigner);
  Rng rng(123);
  std::vector<Record> all;
  for (int i = 0; i < 1000; ++i) {
    Record r = MakeRecord(static_cast<SimTime>(rng.NextBelow(Seconds(20))),
                          rng.NextBelow(30), rng.Uniform(1, 10), -1,
                          rng.NextDouble() < 0.5 ? StreamId::kAds
                                                 : StreamId::kPurchases);
    all.push_back(r);
    state.Add(r);
  }
  auto fired = state.FireUpTo(Seconds(100));
  // Nested-loop reference count over every window.
  size_t expected = 0;
  std::vector<int64_t> wp, wa;
  for (const Record& p : all) {
    if (p.stream != StreamId::kPurchases) continue;
    for (const Record& a : all) {
      if (a.stream != StreamId::kAds || a.key != p.key) continue;
      // Count one output per shared window.
      wp.clear();
      assigner.Assign(p.event_time, &wp);
      for (int64_t w : wp) {
        if (assigner.Contains(w, a.event_time)) ++expected;
      }
    }
  }
  EXPECT_EQ(fired.outputs.size(), expected);
}

TEST(JoinWindowStateTest, NaivePairsIsProductOfSides) {
  WindowAssigner assigner({Seconds(8), Seconds(8)});
  JoinWindowState state(assigner);
  for (int i = 0; i < 3; ++i) {
    state.Add(MakeRecord(Seconds(1 + i), 100 + i, 0, -1, StreamId::kAds));
  }
  for (int i = 0; i < 4; ++i) {
    state.Add(MakeRecord(Seconds(1 + i), 200 + i, 1.0));
  }
  auto fired = state.FireUpTo(Seconds(8));
  EXPECT_EQ(fired.naive_pairs, 12u);  // 4 purchases x 3 ads (nested loop)
  EXPECT_TRUE(fired.outputs.empty()); // but no key matches
  EXPECT_EQ(fired.tuples_evicted, 7u);
}

// ---------------------------------------------------------------------------
// AggWindowState against a brute-force reference under out-of-order input,
// late drops, interleaved fires, and lane-ring growth: every record's
// AddResult, the state_bytes() trajectory (the Flink model charges a
// per-record spill slowdown off it), and every fired output.
// ---------------------------------------------------------------------------

std::vector<Record> DisorderedStream(uint64_t seed, int n, SimTime span,
                                     uint64_t keys) {
  Rng rng(seed);
  std::vector<Record> recs;
  recs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Mild forward drift plus heavy jitter: produces late records, window
    // reopen attempts, and (with a wide span) ring-lane conflicts.
    const SimTime base = span * i / n;
    const SimTime jitter = static_cast<SimTime>(rng.NextBelow(
        static_cast<uint64_t>(span / 4) + 1));
    recs.push_back(MakeRecord(base + jitter, rng.NextBelow(keys) + 1,
                              static_cast<double>(rng.NextBelow(100)), -1,
                              StreamId::kPurchases,
                              static_cast<uint32_t>(rng.NextBelow(3) + 1)));
  }
  return recs;
}

/// The reference keeps one WindowKeyAgg per (window, key) in an ordered
/// map. A window is closed once it or any later window has fired (fired
/// windows never reopen); a record's contribution to a closed window is
/// late. Fire emits every open window ending at or before the watermark,
/// oldest first, in AggWindowState's documented output order.
class AggReference {
 public:
  explicit AggReference(const WindowAssigner& assigner) : assigner_(assigner) {}

  AddResult Add(const Record& r) {
    AddResult result;
    std::vector<int64_t> windows;
    assigner_.Assign(r.event_time, &windows);
    for (const int64_t w : windows) {
      if (w <= max_fired_) {
        result.late_tuples += r.weight;
      } else {
        aggs_[{w, r.key}].Merge(r);
        ++result.window_updates;
      }
    }
    return result;
  }

  std::vector<OutputRecord> Fire(SimTime watermark) {
    std::vector<OutputRecord> out;
    auto it = aggs_.begin();
    for (; it != aggs_.end(); ++it) {
      const auto [w, key] = it->first;
      const SimTime end = assigner_.WindowEnd(w);
      if (end > watermark) break;
      max_fired_ = std::max(max_fired_, w);
      OutputRecord o;
      o.key = key;
      o.value = it->second.sum;
      o.weight = 1;
      o.max_event_time = it->second.max_event_time;
      o.max_ingest_time = it->second.max_ingest_time;
      o.lineage = it->second.lineage;
      o.window_end = end;
      out.push_back(o);
    }
    aggs_.erase(aggs_.begin(), it);
    std::stable_sort(out.begin(), out.end(),
                     [](const OutputRecord& a, const OutputRecord& b) {
                       return std::tie(a.max_event_time, a.key) <
                              std::tie(b.max_event_time, b.key);
                     });
    return out;
  }

  int64_t state_bytes() const {
    return static_cast<int64_t>(aggs_.size()) * AggWindowState::kBytesPerEntry;
  }

 private:
  WindowAssigner assigner_;
  std::map<std::pair<int64_t, uint64_t>, WindowKeyAgg> aggs_;
  int64_t max_fired_ = std::numeric_limits<int64_t>::min();
};

/// Feeds `recs` to AggWindowState and the reference record by record,
/// firing both up to the next multiple of `fire_every` after every
/// `chunk` records once the stream has passed it. Returns the late tuple
/// count, so each case can pin the path it exists for.
uint64_t CheckAgainstReference(const WindowSpec& spec,
                               const std::vector<Record>& recs, size_t chunk,
                               SimTime fire_every) {
  WindowAssigner assigner(spec);
  AggWindowState state(assigner);
  AggReference ref(assigner);
  std::vector<OutputRecord> got, want;
  uint64_t late = 0;
  SimTime next_fire = fire_every;
  auto fire = [&](SimTime watermark) {
    auto g = state.FireUpTo(watermark);
    auto w = ref.Fire(watermark);
    got.insert(got.end(), g.begin(), g.end());
    want.insert(want.end(), w.begin(), w.end());
  };
  for (size_t i = 0; i < recs.size(); ++i) {
    SCOPED_TRACE(i);
    const AddResult g = state.Add(recs[i]);
    const AddResult w = ref.Add(recs[i]);
    EXPECT_EQ(g.window_updates, w.window_updates);
    EXPECT_EQ(g.late_tuples, w.late_tuples);
    EXPECT_EQ(state.state_bytes(), ref.state_bytes());
    late += w.late_tuples;
    if ((i + 1) % chunk == 0 && recs[i].event_time >= next_fire) {
      fire(next_fire);
      next_fire += fire_every;
    }
  }
  fire(std::numeric_limits<SimTime>::max() / 2);
  EXPECT_EQ(state.state_bytes(), 0);
  EXPECT_EQ(got.size(), want.size());
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].value, want[i].value);
    EXPECT_EQ(got[i].weight, want[i].weight);
    EXPECT_EQ(got[i].max_event_time, want[i].max_event_time);
    EXPECT_EQ(got[i].max_ingest_time, want[i].max_ingest_time);
    EXPECT_EQ(got[i].lineage, want[i].lineage);
    EXPECT_EQ(got[i].window_end, want[i].window_end);
  }
  return late;
}

TEST(AggWindowStateBatchTest, MatchesSerialOnTumblingInOrder) {
  EXPECT_GT(CheckAgainstReference({Seconds(10), Seconds(10)},
                                  DisorderedStream(11, 4000, Seconds(200), 64),
                                  /*chunk=*/33, /*fire_every=*/Seconds(20)),
            0u);
}

TEST(AggWindowStateBatchTest, MatchesSerialOnSlidingWithLateDrops) {
  // 4x overlap + jitter past the fire horizon: exercises the late path
  // (dropped contributions) and partial-late records. Firing every 16
  // records keeps pace with the stream, so jittered records arrive after
  // some of their windows fired.
  EXPECT_GT(CheckAgainstReference({Seconds(40), Seconds(10)},
                                  DisorderedStream(12, 6000, Seconds(300), 128),
                                  /*chunk=*/16, /*fire_every=*/Seconds(10)),
            0u);
}

TEST(AggWindowStateBatchTest, MatchesSerialAcrossRingGrowth) {
  // Disorder span wider than the window range forces lane-ring conflicts
  // (GrowRing); fires interleave after every record and every 512.
  CheckAgainstReference({Seconds(8), Seconds(4)},
                        DisorderedStream(13, 3000, Seconds(2000), 16),
                        /*chunk=*/1, /*fire_every=*/Seconds(100));
  CheckAgainstReference({Seconds(8), Seconds(4)},
                        DisorderedStream(13, 3000, Seconds(2000), 16),
                        /*chunk=*/512, /*fire_every=*/Seconds(100));
}

// ---------------------------------------------------------------------------
// BucketWindowState (Spark's event-time buckets): every boundary's outputs
// against a brute-force reference that assigns each record to the
// boundaries whose window contains it.
// ---------------------------------------------------------------------------

struct BucketShape {
  SimTime range;
  SimTime slide;
  SimTime interval;
};

/// In-order stream (event times nondecreasing, on a 250 ms grid so many
/// records sit exactly on a bucket edge), integer values so sums are exact
/// in any merge order.
std::vector<Record> InOrderStream(uint64_t seed, int n, SimTime span, uint64_t keys,
                                  bool join) {
  Rng rng(seed);
  std::vector<SimTime> times;
  for (int i = 0; i < n; ++i) {
    times.push_back(static_cast<SimTime>(rng.NextBelow(span / Millis(250))) * Millis(250));
  }
  std::sort(times.begin(), times.end());
  std::vector<Record> recs;
  for (int i = 0; i < n; ++i) {
    const StreamId stream =
        join && rng.NextDouble() < 0.5 ? StreamId::kAds : StreamId::kPurchases;
    recs.push_back(MakeRecord(times[static_cast<size_t>(i)], rng.NextBelow(keys) + 1,
                              static_cast<double>(rng.NextBelow(100)),
                              times[static_cast<size_t>(i)] +
                                  static_cast<SimTime>(rng.NextBelow(Seconds(1))),
                              stream, static_cast<uint32_t>(rng.NextBelow(3) + 1)));
  }
  return recs;
}

/// Feeds `recs` in order, firing at the running max event time now and
/// then (every record below it has been added), then flushes with the
/// final watermark. Each boundary's appended outputs must come out in
/// (max_event_time, key) order, as Flink's and Storm's do. Returns the
/// outputs and the total reported work.
std::vector<OutputRecord> RunBuckets(BucketWindowState& state,
                                     const std::vector<Record>& recs,
                                     uint64_t* work = nullptr) {
  std::vector<OutputRecord> outs;
  uint64_t total = 0;
  const auto fire = [&](SimTime frontier) {
    for (;;) {
      const size_t first = outs.size();
      const std::optional<uint64_t> w = state.FireNext(frontier, &outs);
      if (!w) break;
      total += *w;
      EXPECT_TRUE(std::is_sorted(
          outs.begin() + static_cast<ptrdiff_t>(first), outs.end(),
          [](const OutputRecord& a, const OutputRecord& b) {
            return std::tie(a.max_event_time, a.key) < std::tie(b.max_event_time, b.key);
          }));
    }
  };
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(state.Add(recs[i]).window_updates, 1);
    if (i % 97 == 0) fire(recs[i].event_time);
  }
  fire(kFinalWatermark);
  if (work != nullptr) *work = total;
  return outs;
}

/// Boundaries (bucket indices) whose window contains event time t.
std::vector<int64_t> BoundariesOf(SimTime t, const BucketShape& shape) {
  const int64_t bucket = FloorDiv(t, shape.interval) + 1;
  const int64_t range = shape.range / shape.interval;
  const int64_t slide = shape.slide / shape.interval;
  std::vector<int64_t> out;
  for (int64_t nb = FloorDiv(bucket + slide - 1, slide) * slide; nb < bucket + range;
       nb += slide) {
    out.push_back(nb);
  }
  return out;
}

const BucketShape kBucketShapes[] = {{Seconds(8), Seconds(4), Seconds(4)},
                                     {Seconds(8), Seconds(4), Seconds(2)},
                                     {Seconds(12), Seconds(4), Seconds(1)},
                                     {Seconds(6), Seconds(6), Seconds(3)},
                                     {Seconds(4), Seconds(2), Seconds(2)}};

TEST(BucketWindowStateTest, AggMatchesBruteForceReference) {
  uint64_t seed = 200;
  for (const BucketShape& shape : kBucketShapes) {
    SCOPED_TRACE(shape.interval);
    const QueryConfig query{QueryKind::kAggregation, {shape.range, shape.slide}};
    BucketWindowState state(query, shape.interval);
    const std::vector<Record> recs = InOrderStream(++seed, 3000, Seconds(60), 25, false);
    uint64_t work = 0;
    const std::vector<OutputRecord> outs = RunBuckets(state, recs, &work);
    EXPECT_TRUE(state.buckets().empty());

    // Reference: per (window_end, key) merged aggregate, built per record.
    std::map<std::pair<SimTime, uint64_t>, WindowKeyAgg> ref;
    for (const Record& r : recs) {
      for (const int64_t nb : BoundariesOf(r.event_time, shape)) {
        ref[{nb * shape.interval, r.key}].Merge(r);
      }
    }
    ASSERT_EQ(outs.size(), ref.size());
    SimTime last_end = 0;
    for (const OutputRecord& o : outs) {
      EXPECT_GE(o.window_end, last_end);  // boundaries fire oldest first
      last_end = o.window_end;
      const auto it = ref.find({o.window_end, o.key});
      ASSERT_NE(it, ref.end());
      EXPECT_DOUBLE_EQ(o.value, it->second.sum);
      EXPECT_EQ(o.weight, 1u);
      EXPECT_EQ(o.max_event_time, it->second.max_event_time);
      EXPECT_EQ(o.max_ingest_time, it->second.max_ingest_time);
      ref.erase(it);  // each (window, key) exactly once
    }
    EXPECT_GT(work, 0u);
  }
}

TEST(BucketWindowStateTest, JoinMatchesNestedLoopReference) {
  uint64_t seed = 300;
  for (const BucketShape& shape : kBucketShapes) {
    SCOPED_TRACE(shape.interval);
    const QueryConfig query{QueryKind::kJoin, {shape.range, shape.slide}};
    BucketWindowState state(query, shape.interval);
    const std::vector<Record> recs = InOrderStream(++seed, 600, Seconds(40), 12, true);
    uint64_t work = 0;
    const std::vector<OutputRecord> outs = RunBuckets(state, recs, &work);

    // Reference: per boundary, its window's records; one output per
    // matching (purchase, ad) pair with the window's max times (Fig. 2).
    std::map<int64_t, std::vector<const Record*>> windows;
    for (const Record& r : recs) {
      for (const int64_t nb : BoundariesOf(r.event_time, shape)) {
        windows[nb].push_back(&r);
      }
    }
    using Row = std::tuple<SimTime, uint64_t, double, uint64_t, SimTime, SimTime>;
    std::vector<Row> expected, got;
    uint64_t expected_work = 0;
    for (const auto& [nb, rs] : windows) {
      SimTime max_event = 0, max_ingest = 0;
      for (const Record* r : rs) {
        max_event = std::max(max_event, r->event_time);
        max_ingest = std::max(max_ingest, r->ingest_time);
        expected_work += r->weight;
      }
      for (const Record* p : rs) {
        if (p->stream != StreamId::kPurchases) continue;
        for (const Record* a : rs) {
          if (a->stream != StreamId::kAds || a->key != p->key) continue;
          expected.emplace_back(nb * shape.interval, p->key, p->value, p->weight,
                                max_event, max_ingest);
        }
      }
    }
    for (const OutputRecord& o : outs) {
      got.emplace_back(o.window_end, o.key, o.value, o.weight, o.max_event_time,
                       o.max_ingest_time);
    }
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
    EXPECT_EQ(work, expected_work);  // side weights scanned, every boundary
  }
}

TEST(BucketWindowStateTest, NoBoundaryFiresBeforeTheFrontierPassesItsEnd) {
  // Range 8 s, slide 4 s, 2 s buckets: boundary nb ends at nb * 2 s.
  const QueryConfig query{QueryKind::kAggregation, {Seconds(8), Seconds(4)}};
  BucketWindowState state(query, Seconds(2));
  EXPECT_EQ(state.next_boundary(), 2);
  EXPECT_EQ(state.range_buckets(), 4);
  for (SimTime t = 0; t < Seconds(20); t += Millis(500)) {
    state.Add(MakeRecord(t, 1 + static_cast<uint64_t>(t % 3), 1.0));
  }
  std::vector<OutputRecord> outs;
  EXPECT_FALSE(state.FireNext(kNoWatermark, &outs));
  for (int64_t nb = 2; nb <= 10; nb += 2) {
    const SimTime end = nb * Seconds(2);
    EXPECT_FALSE(state.FireNext(end - 1, &outs)) << nb;
    EXPECT_EQ(state.next_boundary(), nb);
    outs.clear();
    ASSERT_TRUE(state.FireNext(end, &outs)) << nb;
    ASSERT_FALSE(outs.empty());
    for (const OutputRecord& o : outs) EXPECT_EQ(o.window_end, end);
    EXPECT_EQ(state.next_boundary(), nb + 2);
  }
}

TEST(BucketWindowStateTest, FinalFrontierFlushesThenStops) {
  const QueryConfig query{QueryKind::kJoin, {Seconds(8), Seconds(4)}};
  BucketWindowState empty(query, Seconds(4));
  std::vector<OutputRecord> outs;
  EXPECT_FALSE(empty.FireNext(kFinalWatermark, &outs));  // nothing to flush
  EXPECT_EQ(empty.next_boundary(), 1);

  BucketWindowState state(query, Seconds(4));
  state.Add(MakeRecord(Seconds(5), 7, 0, -1, StreamId::kAds));
  state.Add(MakeRecord(Seconds(9), 7, 5.0));
  // Buckets 2 and 3; boundaries 1 to 4 fire, the last one (window
  // [8 s, 16 s)) evicts bucket 3.
  outs = state.FireUpTo(kFinalWatermark);
  EXPECT_TRUE(state.buckets().empty());
  EXPECT_EQ(state.next_boundary(), 5);
  ASSERT_EQ(outs.size(), 1u);  // only window [4 s, 12 s) holds both sides
  EXPECT_EQ(outs[0].window_end, Seconds(12));
  EXPECT_FALSE(state.FireNext(kFinalWatermark, &outs));
  EXPECT_EQ(state.next_boundary(), 5);
}

TEST(BucketWindowStateTest, ResumedCursorNeverReemitsBelowIt) {
  const QueryConfig query{QueryKind::kAggregation, {Seconds(12), Seconds(4)}};
  const std::vector<Record> recs = InOrderStream(400, 2000, Seconds(60), 10, false);
  BucketWindowState fresh(query, Seconds(4));
  const std::vector<OutputRecord> all = RunBuckets(fresh, recs);
  for (const int64_t resume : {4, 7, 10}) {
    SCOPED_TRACE(resume);
    // A recovered incarnation replays the whole stream from its start.
    BucketWindowState resumed(query, Seconds(4), resume);
    EXPECT_EQ(resumed.next_boundary(), resume);
    const std::vector<OutputRecord> outs = RunBuckets(resumed, recs);
    std::vector<std::tuple<SimTime, uint64_t, double>> got, want;
    for (const OutputRecord& o : outs) {
      EXPECT_GE(o.window_end, resume * Seconds(4));
      got.emplace_back(o.window_end, o.key, o.value);
    }
    // Boundaries at or above the cursor match the fresh run's.
    for (const OutputRecord& o : all) {
      if (o.window_end >= resume * Seconds(4)) {
        want.emplace_back(o.window_end, o.key, o.value);
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

// Spark's inverse reduce: a key that two evictions bring back to weight 0
// holds the floating-point residue of its subtracted sums, and the max
// times and lineage of records that left the window. Folded again, it must
// equal a key the running aggregate never saw, bit for bit.
TEST(RunningAggregateTest, KeyEvictedToZeroFoldsLikeAFreshKey) {
  constexpr QueryKind kAgg = QueryKind::kAggregation;
  BucketPartial job1, job2, job3, other;
  Record a = MakeRecord(Seconds(50), 7, 0.1, Seconds(55));
  a.lineage = 3;
  job1.Add(a, kAgg);
  job2.Add(MakeRecord(Seconds(60), 7, 0.2, Seconds(65)), kAgg);
  other.Add(MakeRecord(Seconds(70), 8, 1.0), kAgg);  // key 8 stays live
  // Key 7 comes back with earlier times than the evicted records.
  job3.Add(MakeRecord(Seconds(20), 7, 0.3, Seconds(25)), kAgg);

  RunningAggregate run;
  run.Fold(job1);
  run.Fold(other);
  run.Fold(job2);
  EXPECT_EQ(run.live_keys(), 2u);
  run.Evict(job1);
  EXPECT_EQ(run.live_keys(), 2u);
  run.Evict(job2);  // (0.1 + 0.2) - 0.1 - 0.2 != 0 in doubles
  EXPECT_EQ(run.live_keys(), 1u);
  std::vector<OutputRecord> live;
  run.Emit(Seconds(100), &live);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].key, 8u);
  run.Fold(job3);
  EXPECT_EQ(run.live_keys(), 2u);

  RunningAggregate fresh;
  fresh.Fold(other);
  fresh.Fold(job3);
  std::vector<OutputRecord> got, want;
  run.Emit(Seconds(100), &got);
  fresh.Emit(Seconds(100), &want);
  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(want.size(), 2u);
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].key, want[i].key);
    uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &got[i].value, sizeof(got_bits));
    std::memcpy(&want_bits, &want[i].value, sizeof(want_bits));
    EXPECT_EQ(got_bits, want_bits);
    EXPECT_EQ(got[i].max_event_time, want[i].max_event_time);
    EXPECT_EQ(got[i].max_ingest_time, want[i].max_ingest_time);
    EXPECT_EQ(got[i].lineage, want[i].lineage);
    EXPECT_EQ(got[i].weight, want[i].weight);
    EXPECT_EQ(got[i].window_end, want[i].window_end);
  }
  EXPECT_EQ(got[0].key, 7u);  // the revived key sorts first by event time
  EXPECT_EQ(got[0].max_event_time, Seconds(20));
  EXPECT_EQ(got[0].lineage, -1);
}

}  // namespace
}  // namespace sdps::engine
