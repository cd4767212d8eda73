#include "engine/columnar.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/time_util.h"
#include "engine/batch.h"
#include "engine/partition.h"
#include "engine/record.h"

namespace sdps::engine {
namespace {

std::vector<uint64_t> RandomKeys(size_t n, uint64_t space, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t& k : keys) k = rng.NextBelow(space);
  return keys;
}

// -- RadixPartition ----------------------------------------------------------

// The scalar oracle for the radix kernel: per-record PartitionForKey
// appending into per-destination index lists (cleared on entry).
void ScalarPartition(const uint64_t* keys, size_t n, int parts,
                     std::vector<std::vector<uint32_t>>* dest_lists) {
  dest_lists->assign(static_cast<size_t>(parts), {});
  for (size_t i = 0; i < n; ++i) {
    (*dest_lists)[static_cast<size_t>(PartitionForKey(keys[i], parts))]
        .push_back(static_cast<uint32_t>(i));
  }
}

// The radix plan must reproduce the scalar per-record loop exactly: same
// destination runs, same relative order within each run (stability).
TEST(RadixPartitionTest, MatchesScalarReference) {
  const std::vector<uint64_t> keys = RandomKeys(10000, 2'000'000, 7);
  PartitionPlan plan;
  std::vector<std::vector<uint32_t>> reference;
  for (int parts : {1, 2, 7, 16, 48, 257}) {
    RadixPartition(keys.data(), keys.size(), Partitioner(parts), &plan);
    ScalarPartition(keys.data(), keys.size(), parts, &reference);
    ASSERT_EQ(plan.parts, parts);
    ASSERT_EQ(plan.offsets.size(), static_cast<size_t>(parts) + 1);
    EXPECT_EQ(plan.offsets.front(), 0u);
    EXPECT_EQ(plan.offsets.back(), keys.size());
    std::vector<int> active;
    for (int p = 0; p < parts; ++p) {
      const std::vector<uint32_t> run(plan.Begin(p), plan.End(p));
      EXPECT_EQ(run, reference[static_cast<size_t>(p)]) << "parts=" << parts
                                                        << " p=" << p;
      if (!run.empty()) active.push_back(p);
    }
    EXPECT_EQ(plan.active, active) << "parts=" << parts;
  }
}

TEST(RadixPartitionTest, EmptyAndSingleRecord) {
  PartitionPlan plan;
  RadixPartition(nullptr, 0, Partitioner(48), &plan);
  EXPECT_EQ(plan.offsets.back(), 0u);
  const uint64_t key = 12345;
  RadixPartition(&key, 1, Partitioner(48), &plan);
  EXPECT_EQ(plan.offsets.back(), 1u);
  const int d = PartitionForKey(key, 48);
  EXPECT_EQ(plan.RunSize(d), 1u);
  EXPECT_EQ(*plan.Begin(d), 0u);
  EXPECT_EQ(plan.active, std::vector<int>{d});
  EXPECT_EQ(plan.offsets.size(), 49u);
  for (int p = 0; p <= 48; ++p) EXPECT_EQ(plan.offsets[p], p > d ? 1u : 0u);
}

// With one part the plan is the identity, built without hashing: it must
// equal the general algorithm's plan (the scalar oracle's single run), even
// on a plan object a many-part pass left behind, and must not read keys.
TEST(RadixPartitionTest, OnePartIsIdentity) {
  const std::vector<uint64_t> many = RandomKeys(3000, 1u << 20, 5);
  for (size_t n : {size_t{0}, size_t{1}, size_t{32}, size_t{1024}}) {
    const std::vector<uint64_t> keys = RandomKeys(n, 2'000'000, 11 + n);
    std::vector<std::vector<uint32_t>> reference;
    ScalarPartition(keys.data(), n, 1, &reference);
    const std::vector<int> active = n == 0 ? std::vector<int>{} : std::vector<int>{0};
    PartitionPlan plan;
    RadixPartition(many.data(), many.size(), Partitioner(7), &plan);
    for (const uint64_t* k : {keys.data(), static_cast<const uint64_t*>(nullptr)}) {
      RadixPartition(k, n, Partitioner(1), &plan);
      EXPECT_EQ(plan.parts, 1) << "n=" << n;
      EXPECT_EQ(plan.offsets, (std::vector<uint32_t>{0, static_cast<uint32_t>(n)}))
          << "n=" << n;
      EXPECT_EQ(std::vector<uint32_t>(plan.Begin(0), plan.End(0)), reference[0])
          << "n=" << n;
      EXPECT_EQ(plan.index, reference[0]) << "n=" << n;
      EXPECT_EQ(plan.active, active) << "n=" << n;
    }
  }
}

// Plan scratch must be reusable across passes with different sizes and
// partition counts (the engines keep one plan per task).
TEST(RadixPartitionTest, PlanReuse) {
  PartitionPlan plan;
  const std::vector<uint64_t> big = RandomKeys(5000, 1u << 20, 1);
  RadixPartition(big.data(), big.size(), Partitioner(64), &plan);
  const std::vector<uint64_t> small = RandomKeys(37, 100, 2);
  RadixPartition(small.data(), small.size(), Partitioner(5), &plan);
  std::vector<std::vector<uint32_t>> reference;
  ScalarPartition(small.data(), small.size(), 5, &reference);
  for (int p = 0; p < 5; ++p) {
    EXPECT_EQ(std::vector<uint32_t>(plan.Begin(p), plan.End(p)),
              reference[static_cast<size_t>(p)]);
  }
}

// The flat destination-major gather must contain exactly the per-partition
// scalar lists' records, concatenated in partition order.
TEST(RadixPartitionTest, GatherRowsMatchesScalarLists) {
  Rng rng(3);
  std::vector<Record> recs(5000);
  std::vector<uint64_t> keys(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].key = rng.NextBelow(100000);
    recs[i].event_time = static_cast<SimTime>(i);
    recs[i].value = static_cast<double>(i);
    keys[i] = recs[i].key;
  }
  const int parts = 48;
  PartitionPlan plan;
  RadixPartition(keys.data(), keys.size(), Partitioner(parts), &plan);
  std::vector<Record> rows;
  GatherRows(recs.data(), plan, &rows);
  ASSERT_EQ(rows.size(), recs.size());
  std::vector<std::vector<uint32_t>> reference;
  ScalarPartition(keys.data(), keys.size(), parts, &reference);
  size_t at = 0;
  for (int p = 0; p < parts; ++p) {
    ASSERT_EQ(plan.RunSize(p), reference[static_cast<size_t>(p)].size());
    for (uint32_t i : reference[static_cast<size_t>(p)]) {
      EXPECT_EQ(rows[at].key, recs[i].key);
      EXPECT_EQ(rows[at].value, recs[i].value);
      ++at;
    }
  }
}

// -- ColumnarBatch -----------------------------------------------------------

TEST(ColumnarBatchTest, LoadKeysGathersKeyLane) {
  std::vector<Record> recs(3);
  recs[0] = {.event_time = Seconds(1), .key = 10, .value = 2.0, .weight = 3};
  recs[1] = {.event_time = Seconds(2), .key = 20, .value = 4.0, .weight = 1};
  recs[2] = {.event_time = Seconds(3), .key = 30, .value = 8.0, .weight = 7};
  ColumnarBatch cols;
  cols.LoadKeys(recs.data(), recs.size());
  EXPECT_EQ(cols.keys, (std::vector<uint64_t>{10, 20, 30}));
  // A shorter reload replaces the lane, not appends to it.
  cols.LoadKeys(recs.data() + 1, 1);
  EXPECT_EQ(cols.keys, (std::vector<uint64_t>{20}));
}

// -- ShuffleCombiner ---------------------------------------------------------

Record MakeRec(uint64_t key, SimTime event_time, double value, uint32_t weight) {
  Record r;
  r.key = key;
  r.event_time = event_time;
  r.value = value;
  r.weight = weight;
  return r;
}

TEST(ShuffleCombinerTest, MergesSameKeySameBucket) {
  ShuffleCombiner combiner(Seconds(4));
  const Record a = MakeRec(1, Seconds(1), 2.0, 3);
  const Record b = MakeRec(1, Seconds(2), 1.5, 2);
  combiner.Add(a);
  combiner.Add(b);
  RecordBatch out;
  ASSERT_EQ(combiner.Emit(&out), 1u);
  // The partial carries the exact Merge contribution sum (value * weight
  // per raw record), the summed logical weight, the max event time, and
  // the preagg mark that makes it ONE physical tuple.
  EXPECT_DOUBLE_EQ(out[0].value, 2.0 * 3 + 1.5 * 2);
  EXPECT_EQ(out[0].weight, 5u);
  EXPECT_EQ(out[0].event_time, Seconds(2));
  EXPECT_TRUE(out[0].preagg);
  EXPECT_EQ(PhysicalTuples(out[0]), 1u);
}

TEST(ShuffleCombinerTest, DistinctBucketsStaySeparate) {
  // Same key, event times straddling a bucket boundary: the partials must
  // not merge (window membership differs across the boundary).
  ShuffleCombiner combiner(Seconds(4));
  combiner.Add(MakeRec(1, Seconds(3), 1.0, 1));
  combiner.Add(MakeRec(1, Seconds(5), 1.0, 1));
  combiner.Add(MakeRec(2, Seconds(3), 1.0, 1));
  RecordBatch out;
  EXPECT_EQ(combiner.Emit(&out), 3u);
}

TEST(ShuffleCombinerTest, EmitPreservesFirstAppearanceOrder) {
  ShuffleCombiner combiner(Seconds(4));
  combiner.Add(MakeRec(7, Seconds(1), 1.0, 1));
  combiner.Add(MakeRec(3, Seconds(1), 1.0, 1));
  combiner.Add(MakeRec(7, Seconds(2), 1.0, 1));
  combiner.Add(MakeRec(9, Seconds(1), 1.0, 1));
  std::vector<Record> out;
  ASSERT_EQ(combiner.Emit(&out), 3u);
  EXPECT_EQ(out[0].key, 7u);
  EXPECT_EQ(out[1].key, 3u);
  EXPECT_EQ(out[2].key, 9u);
}

TEST(ShuffleCombinerTest, AcceptsPreaggregatedInput) {
  // Tree combine feeds partials back in: their value is already a Merge
  // contribution sum, so it folds in directly (not re-scaled by weight).
  ShuffleCombiner combiner(Seconds(4));
  Record partial = MakeRec(1, Seconds(1), 10.0, 4);
  partial.preagg = true;
  combiner.Add(partial);
  combiner.Add(MakeRec(1, Seconds(2), 2.0, 3));
  RecordBatch out;
  ASSERT_EQ(combiner.Emit(&out), 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 10.0 + 2.0 * 3);
  EXPECT_EQ(out[0].weight, 7u);
}

// Folding the combiner's output downstream gives the exact same per-key
// totals as folding the raw records — the end-to-end exactness claim, on
// a large random batch with whole-number prices (exact in a double).
TEST(ShuffleCombinerTest, PartialsFoldToSameTotals) {
  Rng rng(11);
  std::vector<Record> raw;
  raw.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    raw.push_back(MakeRec(rng.NextBelow(500), Millis(rng.NextBelow(60000)),
                          static_cast<double>(1 + rng.NextBelow(9)),
                          static_cast<uint32_t>(1 + rng.NextBelow(3))));
  }
  ShuffleCombiner combiner(Seconds(4));
  RecordBatch combined;
  combiner.Combine(raw.data(), raw.size(), &combined);
  EXPECT_LT(combined.size(), raw.size());

  const auto fold = [](const auto& recs, size_t n) {
    std::unordered_map<uint64_t, double> totals;
    for (size_t i = 0; i < n; ++i) {
      const Record& r = recs[i];
      totals[r.key] += r.preagg ? r.value : r.value * r.weight;
    }
    return totals;
  };
  // Whole numbers: the totals must match exactly.
  EXPECT_EQ(fold(combined, combined.size()), fold(raw, raw.size()));
}

TEST(ShuffleCombinerTest, ResetDropsGroups) {
  ShuffleCombiner combiner(Seconds(4));
  combiner.Add(MakeRec(1, Seconds(1), 1.0, 1));
  ASSERT_EQ(combiner.group_count(), 1u);
  combiner.Reset();
  EXPECT_EQ(combiner.group_count(), 0u);
  combiner.Add(MakeRec(2, Seconds(1), 3.0, 2));
  RecordBatch out;
  ASSERT_EQ(combiner.Emit(&out), 1u);
  EXPECT_EQ(out[0].key, 2u);
  EXPECT_DOUBLE_EQ(out[0].value, 6.0);
}

// -- TreeCombine -------------------------------------------------------------

TEST(TreeCombineTest, FoldsToOneGroupPreservingTotals) {
  Rng rng(13);
  std::vector<RecordBatch> groups(5);
  double want_value = 0;
  uint64_t want_weight = 0;
  for (RecordBatch& g : groups) {
    for (int i = 0; i < 200; ++i) {
      const Record r = MakeRec(rng.NextBelow(50), Millis(rng.NextBelow(20000)),
                               static_cast<double>(1 + rng.NextBelow(5)),
                               static_cast<uint32_t>(1 + rng.NextBelow(2)));
      want_value += r.value * r.weight;
      want_weight += r.weight;
      g.PushBack(r);
    }
  }
  ShuffleCombiner combiner(Seconds(4));
  const uint64_t folded = TreeCombine(&groups, &combiner);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_GT(folded, 0u);
  double got_value = 0;
  uint64_t got_weight = 0;
  for (const Record& r : std::as_const(groups.front())) {
    EXPECT_TRUE(r.preagg);
    got_value += r.value;
    got_weight += r.weight;
  }
  EXPECT_EQ(got_value, want_value);  // whole numbers: exact
  EXPECT_EQ(got_weight, want_weight);
}

TEST(TreeCombineTest, SingleGroupIsUntouched) {
  std::vector<RecordBatch> groups(1);
  groups[0].PushBack(MakeRec(1, Seconds(1), 2.0, 3));
  ShuffleCombiner combiner(Seconds(4));
  EXPECT_EQ(TreeCombine(&groups, &combiner), 0u);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].size(), 1u);
  EXPECT_FALSE(groups[0][0].preagg);  // never combined, still raw
}

// -- RecordBatch cached totals -----------------------------------------------

TEST(RecordBatchTest, SealCachesTotalsAndMutationInvalidates) {
  RecordBatch batch;
  batch.PushBack(MakeRec(1, Seconds(1), 2.0, 3));
  batch.PushBack(MakeRec(2, Seconds(2), 4.0, 5));
  EXPECT_FALSE(batch.sealed());
  batch.Seal();
  EXPECT_TRUE(batch.sealed());
  EXPECT_EQ(batch.TotalWeight(), 8u);
  EXPECT_EQ(batch.TotalWireBytes(), WireBytes(batch[0]) + WireBytes(batch[1]));

  // Mutable access drops the cache; the recomputed totals see the change.
  batch[0].weight = 10;
  EXPECT_FALSE(batch.sealed());
  EXPECT_EQ(batch.TotalWeight(), 15u);

  // A preagg record counts once on the wire regardless of weight.
  Record partial = MakeRec(3, Seconds(3), 9.0, 100);
  partial.preagg = true;
  const int64_t before = batch.TotalWireBytes();
  batch.PushBack(partial);
  EXPECT_EQ(batch.TotalWireBytes(), before + WireBytes(partial));
  EXPECT_EQ(batch.TotalWeight(), 115u);

  batch.Clear();
  EXPECT_EQ(batch.TotalWeight(), 0u);
  EXPECT_EQ(batch.TotalWireBytes(), 0);
}

}  // namespace
}  // namespace sdps::engine
