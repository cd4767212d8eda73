#include "engine/group_hash.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace sdps::engine {
namespace {

template <typename Map>
auto& Upsert(Map& map, uint64_t key) {
  bool inserted = false;
  return map.FindOrInsert(key, &inserted);
}

using SwarMap = GroupedKeyMap<uint64_t, GroupSwar>;
using NativeMap = GroupedKeyMap<uint64_t, GroupNative>;

TEST(GroupedKeyMapTest, StartsEmpty) {
  NativeMap map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(~0ull), nullptr);
}

TEST(GroupedKeyMapTest, FindOrInsertDefaultConstructsOnceAndReportsInserted) {
  GroupedKeyMap<int> map;
  bool inserted = false;
  int* v = &map.FindOrInsert(7, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 0);
  *v = 99;
  EXPECT_EQ(map.FindOrInsert(7, &inserted), 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 99);
}

TEST(GroupedKeyMapTest, SentinelKeyNeedsNoSpecialCase) {
  // ~0ull is a flat table's usual empty-slot sentinel; here emptiness
  // lives in the control byte, so the all-ones key must behave like any
  // other.
  GroupedKeyMap<int> map;
  const uint64_t sentinel = ~0ull;
  EXPECT_EQ(map.Find(sentinel), nullptr);
  Upsert(map, sentinel) = 123;
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(sentinel), nullptr);
  EXPECT_EQ(*map.Find(sentinel), 123);
  map.Clear();
  EXPECT_EQ(map.Find(sentinel), nullptr);
}

TEST(GroupedKeyMapTest, GrowsPastInitialCapacityWithoutLosingEntries) {
  GroupedKeyMap<uint64_t> map;
  constexpr uint64_t kN = 10000;
  for (uint64_t k = 0; k < kN; ++k) Upsert(map, k) = k * 3;
  EXPECT_EQ(map.size(), kN);
  for (uint64_t k = 0; k < kN; ++k) {
    auto* v = map.Find(k);
    ASSERT_NE(v, nullptr) << "key " << k;
    EXPECT_EQ(*v, k * 3);
  }
  EXPECT_EQ(map.Find(kN), nullptr);
}

TEST(GroupedKeyMapTest, ClearKeepsCapacityAndStaysUsable) {
  GroupedKeyMap<int> map;
  for (uint64_t k = 0; k < 1000; ++k) Upsert(map, k) = 1;
  const size_t cap = map.ComputeProbeStats().capacity;
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.ComputeProbeStats().capacity, cap);
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_EQ(map.Find(k), nullptr);
  Upsert(map, 55) = 7;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(55), 7);
}

// -- Differential fuzz --------------------------------------------------------
//
// Seeded random insert/find streams run against GroupedKeyMap (native and
// forced-SWAR backends) and std::unordered_map. All three must agree on
// every insertion flag, every lookup, and the final contents — including
// the ~0ull key and the grow-under-collision paths (key ranges chosen to
// pile into shared home groups until several rehashes trigger).

struct FuzzCase {
  uint64_t seed;
  uint64_t key_space;  // dense → heavy collisions → growth under load
  int ops;
};

class GroupedKeyMapFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(GroupedKeyMapFuzz, AgreesWithFlatAndStdMaps) {
  const FuzzCase c = GetParam();
  Rng rng(c.seed);
  NativeMap native;
  SwarMap swar;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int i = 0; i < c.ops; ++i) {
    // Bias toward inserts; sprinkle sentinel keys and high-bit keys (the
    // Fibonacci mix's worst customers) into the stream.
    uint64_t key = rng.NextBelow(c.key_space);
    const uint64_t shape = rng.NextBelow(16);
    if (shape == 0) key = ~0ull;
    if (shape == 1) key <<= 32;
    if (rng.NextBelow(4) == 0) {
      // Pure lookup: all maps agree on presence and value.
      auto it = ref.find(key);
      uint64_t* nv = native.Find(key);
      uint64_t* sv = swar.Find(key);
      if (it == ref.end()) {
        EXPECT_EQ(nv, nullptr);
        EXPECT_EQ(sv, nullptr);
      } else {
        ASSERT_NE(nv, nullptr);
        ASSERT_NE(sv, nullptr);
        EXPECT_EQ(*nv, it->second);
        EXPECT_EQ(*sv, it->second);
      }
      continue;
    }
    const uint64_t delta = rng.NextBelow(1000) + 1;
    bool ni = false, si = false;
    native.FindOrInsert(key, &ni) += delta;
    swar.FindOrInsert(key, &si) += delta;
    const bool expect_inserted = ref.find(key) == ref.end();
    ref[key] += delta;
    EXPECT_EQ(ni, expect_inserted) << "native, op " << i << " key " << key;
    EXPECT_EQ(si, expect_inserted) << "swar, op " << i << " key " << key;
  }
  ASSERT_EQ(native.size(), ref.size());
  ASSERT_EQ(swar.size(), ref.size());
  for (const auto& [key, value] : ref) {
    auto* nv = native.Find(key);
    auto* sv = swar.Find(key);
    ASSERT_NE(nv, nullptr) << key;
    ASSERT_NE(sv, nullptr) << key;
    EXPECT_EQ(*nv, value);
    EXPECT_EQ(*sv, value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, GroupedKeyMapFuzz,
    ::testing::Values(FuzzCase{1, 64, 20000},       // tiny space: all hits
                      FuzzCase{2, 4096, 40000},     // grows a few times
                      FuzzCase{3, 1 << 20, 60000},  // mostly misses
                      FuzzCase{4, 97, 5000},        // prime-sized space
                      FuzzCase{5, 1u << 31, 30000}));

// The SWAR and native backends must not only agree on contents: the table
// LAYOUT must be identical (both pick candidate slots lowest-index-first),
// so ForEach yields the byte-identical sequence. This is the determinism
// property the -DSDPS_NO_SIMD CI leg's CSV comparison rides on.
TEST(GroupedKeyMapTest, BackendsProduceIdenticalIterationOrder) {
  Rng rng(99);
  NativeMap native;
  SwarMap swar;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t key = rng.NextBelow(1 << 18);
    Upsert(native, key) = key;
    Upsert(swar, key) = key;
  }
  std::vector<std::pair<uint64_t, uint64_t>> nseq, sseq;
  native.ForEach([&](uint64_t k, const uint64_t& v) { nseq.emplace_back(k, v); });
  swar.ForEach([&](uint64_t k, const uint64_t& v) { sseq.emplace_back(k, v); });
  ASSERT_EQ(nseq.size(), sseq.size());
  EXPECT_EQ(nseq, sseq);
}

TEST(GroupedKeyMapTest, BatchMatchesScalarIncludingDuplicatesInOneBatch) {
  // FindOrInsertBatch must resolve keys strictly in input order: the
  // second occurrence of a key inside one batch sees the entry the first
  // occurrence created, and the resulting table is byte-identical to the
  // serial loop's.
  Rng rng(7);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 30000; ++i) keys.push_back(rng.NextBelow(2000));
  keys.push_back(~0ull);
  keys.push_back(~0ull);  // duplicate sentinel inside the same batch

  GroupedKeyMap<uint64_t> scalar;
  std::vector<bool> scalar_flags;
  for (const uint64_t k : keys) {
    bool inserted;
    scalar.FindOrInsert(k, &inserted) += 1;
    scalar_flags.push_back(inserted);
  }
  GroupedKeyMap<uint64_t> batched;
  std::vector<bool> batch_flags(keys.size());
  // Uneven chunk sizes, including one-key batches.
  size_t off = 0;
  const size_t chunks[] = {1, 3, 17, 4096, keys.size()};
  size_t ci = 0;
  while (off < keys.size()) {
    const size_t n = std::min(chunks[ci % 5], keys.size() - off);
    batched.FindOrInsertBatch(keys.data() + off, n,
                              [&](size_t i, uint64_t& v, bool inserted) {
                                v += 1;
                                batch_flags[off + i] = inserted;
                              });
    off += n;
    ++ci;
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(batch_flags[i], scalar_flags[i]) << "op " << i;
  }
  std::vector<std::pair<uint64_t, uint64_t>> sseq, bseq;
  scalar.ForEach([&](uint64_t k, const uint64_t& v) { sseq.emplace_back(k, v); });
  batched.ForEach([&](uint64_t k, const uint64_t& v) { bseq.emplace_back(k, v); });
  EXPECT_EQ(sseq, bseq);
}

// The shuffle regime's key shape must keep group-probe lengths short. The 16-wide
// groups at 7/8 load should almost always hit the home group; clustering
// from a tag or load-factor regression shows up here orders of magnitude
// before it costs measurable throughput.
//
// Two key shapes, because they fail differently: dense sequential ids
// are near-perfectly equidistributed by the Fibonacci multiply (zero
// overflow expected — any probe beyond home means the mix or group
// arithmetic broke), while scrambled sparse keys give Poisson group
// occupancy, the shape that actually stresses overflow chains.
TEST(GroupedKeyMapTest, MillionKeyProbeLengthsStayShort) {
  GroupedKeyMap<uint32_t> map;
  const uint64_t n = 1'000'000;
  for (uint64_t k = 0; k < n; ++k) Upsert(map, k) = static_cast<uint32_t>(k);
  ASSERT_EQ(map.size(), n);
  const auto st = map.ComputeProbeStats();
  EXPECT_EQ(st.entries, n);
  EXPECT_LE(st.mean_probe, 0.5);
  EXPECT_LE(st.max_probe, 64u);
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = rng.NextBelow(n);
    auto* v = map.Find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, static_cast<uint32_t>(k));
  }
}

TEST(GroupedKeyMapTest, ScrambledMillionKeyProbeLengthsStayShort) {
  GroupedKeyMap<uint32_t> map;
  const uint64_t n = 1'000'000;
  Rng rng(29);
  uint64_t inserted_distinct = 0;
  for (uint64_t i = 0; i < n; ++i) {
    bool ins = false;
    map.FindOrInsert(rng.NextUint64(), &ins) = static_cast<uint32_t>(i);
    inserted_distinct += ins ? 1 : 0;
  }
  ASSERT_EQ(map.size(), inserted_distinct);
  const auto st = map.ComputeProbeStats();
  EXPECT_EQ(st.entries, inserted_distinct);
  // Random 64-bit keys at up-to-7/8 load overflow a little — the stats
  // must be nonzero (a vacuously-zero measurement would hide a broken
  // ComputeProbeStats) but stay tightly bounded.
  EXPECT_GT(st.mean_probe, 0.0);
  EXPECT_LE(st.mean_probe, 0.5);
  EXPECT_GE(st.max_probe, 1u);
  EXPECT_LE(st.max_probe, 64u);
}

// Pins the pow2 capacity law through the whole growth cascade:
// HomeGroup() masks with a capacity-derived mask, so a future non-pow2
// growth policy would silently corrupt probing. (The header also carries
// a static_assert + an SDPS_CHECK in Grow.)
TEST(GroupedKeyMapTest, CapacitiesStayPowersOfTwoAcrossGrowth) {
  GroupedKeyMap<int> grouped;
  size_t last = 0;
  for (uint64_t k = 0; k < 200000; ++k) {
    Upsert(grouped, k) = 1;
    const size_t gc = grouped.capacity();
    if (gc != last) {
      EXPECT_EQ(gc & (gc - 1), 0u) << "grouped capacity " << gc;
      EXPECT_EQ(gc % kGroupWidth, 0u) << "grouped capacity " << gc;
      EXPECT_EQ(grouped.ComputeProbeStats().capacity, gc);
      last = gc;
    }
  }
}

}  // namespace
}  // namespace sdps::engine
