// Group-probing (Swiss-table-style) hash map: the one keyed map of engine
// code (the window states, Spark's bucket partials and running aggregate,
// the join builds and the ShuffleCombiner fold). Each caller issues one
// FindOrInsert or Find per record, in input order.
//
//   * A separate 1-byte control-tag array holds a 7-bit hash fragment per
//     slot (0x80 = empty). One 16-byte load + compare sweeps a whole
//     group: candidates are identified by tag before any 16-byte key/value
//     slot is touched, so a probe touches one ctrl line and (almost
//     always) exactly one slot line.
//   * The probe primitive has three backends compiled from the same
//     template: SSE2 (_mm_cmpeq_epi8/_mm_movemask_epi8) on x86, NEON
//     (vceqq_u8 + per-lane bit gather) on AArch64, and a portable
//     SWAR-on-uint64 fallback (-DSDPS_NO_SIMD forces it everywhere). All
//     backends report candidate slots lowest-index-first, so the slot a
//     key lands in — and therefore the table layout and ForEach order —
//     is backend-independent. tests/engine/group_hash_test.cc asserts the
//     native and SWAR backends produce byte-identical iteration sequences.
//
// Determinism: iteration (ForEach) walks slots in table order. Growth
// triggers purely on the distinct-key count (7/8 load factor) and rehash
// re-inserts in table order, so the layout is a pure function of the
// sequence of distinct-key insertions — identical across probe backends.
// No keyed hot path lets table order reach an output byte anyway (window
// outputs are sorted, combiner groups are emitted in first-appearance
// order), but the property keeps ProbeStats and any future ForEach user
// reproducible.
//
// The map is insert-only (no erase), keys are uint64, and the all-ones
// key needs no out-of-line special case: emptiness lives in the control
// byte, not in the key lane.
#ifndef SDPS_ENGINE_GROUP_HASH_H_
#define SDPS_ENGINE_GROUP_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"

#if !defined(SDPS_NO_SIMD) && (defined(__SSE2__) || defined(_M_X64) || \
                               (defined(_M_IX86_FP) && _M_IX86_FP >= 2))
#define SDPS_GROUP_HASH_SSE2 1
#include <emmintrin.h>
#elif !defined(SDPS_NO_SIMD) && defined(__ARM_NEON) && defined(__aarch64__)
#define SDPS_GROUP_HASH_NEON 1
#include <arm_neon.h>
#endif

namespace sdps::engine {

/// Control byte values: full slots carry a 7-bit tag (high bit clear).
inline constexpr uint8_t kGroupCtrlEmpty = 0x80;
inline constexpr size_t kGroupWidth = 16;

// -- Probe backends ----------------------------------------------------------
//
// Each backend loads one 16-byte control group and answers two queries as
// 16-bit masks (bit i = slot i of the group, so std::countr_zero gives
// the lowest candidate):
//   MatchTag(tag)  — slots whose control byte MAY equal `tag`. False
//                    positives are allowed (the caller verifies the full
//                    key); false negatives are not.
//   MatchEmpty()   — slots that are empty. Exact: the probe loop
//                    terminates on "group has an empty" and inserts at the
//                    lowest empty bit, so both decisions must agree across
//                    backends bit-for-bit.

/// Portable SWAR backend: two uint64 halves per group. Little-endian
/// byte order is assumed (byte j of the loaded word is slot j), which
/// holds on every target this project builds for.
struct GroupSwar {
  static constexpr const char* kName = "swar";
  uint64_t lo, hi;

  static GroupSwar Load(const uint8_t* p) {
    GroupSwar g;
    std::memcpy(&g.lo, p, 8);
    std::memcpy(&g.hi, p + 8, 8);
    return g;
  }

  /// Compresses an 0x80-per-byte pattern word to 8 mask bits (bit j set
  /// iff byte j's high bit is set). Exact: ((x & k80) * kGather) >> 56
  /// places byte j's high bit at result bit j with no carry collisions.
  static uint32_t Movemask8(uint64_t x) {
    return static_cast<uint32_t>(((x & 0x8080808080808080ull) *
                                  0x0002040810204081ull) >> 56);
  }

  /// Zero-byte detector (Bit Twiddling Hacks). The borrow can leak a
  /// false positive into bytes ABOVE a true zero byte within the same
  /// word — never below one, and never when the word has no zero byte —
  /// which is why this is only used for tag matches (key-verified) and
  /// not for emptiness.
  static uint64_t ZeroBytes(uint64_t v) {
    return (v - 0x0101010101010101ull) & ~v & 0x8080808080808080ull;
  }

  uint32_t MatchTag(uint8_t tag) const {
    const uint64_t b = 0x0101010101010101ull * tag;
    return Movemask8(ZeroBytes(lo ^ b)) | (Movemask8(ZeroBytes(hi ^ b)) << 8);
  }

  /// Exact: only 0x00..0x7F (full) and 0x80 (empty) ctrl bytes exist, so
  /// the high bit alone decides emptiness — no borrow arithmetic.
  uint32_t MatchEmpty() const { return Movemask8(lo) | (Movemask8(hi) << 8); }
};

#if defined(SDPS_GROUP_HASH_SSE2)
struct GroupSse2 {
  static constexpr const char* kName = "sse2";
  __m128i ctrl;

  static GroupSse2 Load(const uint8_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  uint32_t MatchTag(uint8_t tag) const {
    return static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(ctrl, _mm_set1_epi8(static_cast<char>(tag)))));
  }
  uint32_t MatchEmpty() const {
    // Sign bit per byte == the empty bit (full tags have it clear).
    return static_cast<uint32_t>(_mm_movemask_epi8(ctrl));
  }
};
using GroupNative = GroupSse2;
#elif defined(SDPS_GROUP_HASH_NEON)
struct GroupNeon {
  static constexpr const char* kName = "neon";
  uint8x16_t ctrl;

  static GroupNeon Load(const uint8_t* p) { return {vld1q_u8(p)}; }

  /// Per-lane bit gather: AND the 0xFF/0x00 compare result with a
  /// one-hot-bit-per-lane constant, then horizontal-add each half — every
  /// lane contributes a distinct bit, so the sum is the movemask.
  static uint32_t Movemask(uint8x16_t m) {
    static const uint8_t kBits[16] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20,
                                      0x40, 0x80, 0x01, 0x02, 0x04, 0x08,
                                      0x10, 0x20, 0x40, 0x80};
    const uint8x16_t masked = vandq_u8(m, vld1q_u8(kBits));
    return static_cast<uint32_t>(vaddv_u8(vget_low_u8(masked))) |
           (static_cast<uint32_t>(vaddv_u8(vget_high_u8(masked))) << 8);
  }
  uint32_t MatchTag(uint8_t tag) const {
    return Movemask(vceqq_u8(ctrl, vdupq_n_u8(tag)));
  }
  uint32_t MatchEmpty() const {
    return Movemask(vceqq_u8(ctrl, vdupq_n_u8(kGroupCtrlEmpty)));
  }
};
using GroupNative = GroupNeon;
#else
using GroupNative = GroupSwar;
#endif

// -- The map -----------------------------------------------------------------

/// Insert-only open-addressing map from uint64 keys to V with 16-wide
/// group probing.
/// `Group` selects the probe backend; leave it defaulted outside tests.
template <typename V, typename Group = GroupNative>
class GroupedKeyMap {
 public:
  GroupedKeyMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count (0 before the first insert). Always a power of two and a
  /// multiple of kGroupWidth once allocated.
  size_t capacity() const { return capacity_; }

  /// Returns the value slot for `key`, default-constructing it on first
  /// insert. Sets `*inserted` accordingly. The reference stays valid until
  /// the next insert that grows the table.
  V& FindOrInsert(uint64_t key, bool* inserted) {
    return slots_[ProbeOrInsert(key, Mix(key), inserted)].val;
  }

  /// Find-or-insert over keys[0..n) in input order: fn(i, value,
  /// inserted) runs for each key as it resolves, so fold order (and every
  /// output byte downstream) matches n serial FindOrInsert calls. fn must
  /// not touch this map.
  template <typename Fn>
  void FindOrInsertBatch(const uint64_t* keys, size_t n, Fn&& fn) {
    for (size_t i = 0; i < n; ++i) {
      bool inserted;
      const size_t slot = ProbeOrInsert(keys[i], Mix(keys[i]), &inserted);
      fn(i, slots_[slot].val, inserted);
    }
  }

  /// Returns the value for `key`, or nullptr when absent.
  V* Find(uint64_t key) {
    if (capacity_ == 0) return nullptr;
    const size_t slot = ProbeFind(key, Mix(key));
    return slot == kNotFound ? nullptr : &slots_[slot].val;
  }
  const V* Find(uint64_t key) const {
    return const_cast<GroupedKeyMap*>(this)->Find(key);
  }

  /// Drops all entries but keeps the table's capacity (arena reuse).
  void Clear() {
    if (capacity_ != 0) {
      std::memset(ctrl_.data(), kGroupCtrlEmpty, capacity_);
    }
    size_ = 0;
    growth_left_ = MaxSizeFor(capacity_);
  }

  /// Visits every (key, value) pair in table order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != kGroupCtrlEmpty) fn(slots_[i].key, slots_[i].val);
    }
  }

  /// Probe-length distribution over the current entries, in GROUPS probed
  /// (0 = the key's home group): clustering from a tag/hash regression
  /// blows these up long before throughput benches notice. Exported by
  /// perf_kernel and gated by the group_probe_* ceilings in
  /// BENCH_kernel.json.
  struct ProbeStats {
    size_t capacity = 0;  // slot count
    size_t entries = 0;
    size_t max_probe = 0;   // groups past the home group
    double mean_probe = 0.0;
  };
  ProbeStats ComputeProbeStats() const {
    ProbeStats st;
    st.capacity = capacity_;
    st.entries = size_;
    uint64_t total = 0;
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] == kGroupCtrlEmpty) continue;
      const size_t in_group = i / kGroupWidth;
      size_t g = HomeGroup(Mix(slots_[i].key));
      size_t probe = 0;
      // Walk the triangular probe sequence until the occupied group.
      for (size_t step = 0; g != in_group; ++step) {
        g = (g + step + 1) & group_mask_;
        ++probe;
      }
      total += probe;
      if (probe > st.max_probe) st.max_probe = probe;
    }
    if (st.entries > 0) {
      st.mean_probe = static_cast<double>(total) / static_cast<double>(st.entries);
    }
    return st;
  }

 private:
  struct Slot {
    uint64_t key;
    V val;
  };

  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kInitialSlots = kGroupWidth;  // one group
  static_assert((kInitialSlots & (kInitialSlots - 1)) == 0,
                "group table capacities must stay powers of two: HomeGroup "
                "masks with group_mask_ and the triangular probe sequence "
                "only covers all groups for pow2 group counts");

  /// Fibonacci mix: one multiply, top bits are the well-distributed
  /// ones. The 7-bit tag and the group index are taken from disjoint high
  /// bit ranges.
  static uint64_t Mix(uint64_t key) { return key * 0x9E3779B97F4A7C15ull; }
  static uint8_t TagOf(uint64_t mixed) {
    return static_cast<uint8_t>(mixed >> 57);  // top 7 bits; high bit clear
  }
  size_t HomeGroup(uint64_t mixed) const {
    return static_cast<size_t>(mixed >> group_shift_) & group_mask_;
  }

  static size_t MaxSizeFor(size_t capacity) { return capacity / 8 * 7; }

  /// Probes for `key`; inserts into the first empty slot of the first
  /// non-full group on miss (growing first if at the load limit). Returns
  /// the slot index.
  size_t ProbeOrInsert(uint64_t key, uint64_t mixed, bool* inserted) {
    if (capacity_ == 0) Grow();
    const uint8_t tag = TagOf(mixed);
    for (;;) {
      size_t g = HomeGroup(mixed);
      for (size_t step = 0;; ++step) {
        const size_t base = g * kGroupWidth;
        const Group grp = Group::Load(ctrl_.data() + base);
        for (uint32_t m = grp.MatchTag(tag); m != 0; m &= m - 1) {
          const size_t slot = base + static_cast<size_t>(__builtin_ctz(m));
          if (slots_[slot].key == key) [[likely]] {
            *inserted = false;
            return slot;
          }
        }
        const uint32_t empty = grp.MatchEmpty();
        if (empty != 0) {
          // Key absent (an insert-only table never has entries past the
          // first group that still had an empty when they were inserted).
          if (growth_left_ == 0) [[unlikely]] break;  // rehash, then retry
          const size_t slot = base + static_cast<size_t>(__builtin_ctz(empty));
          ctrl_[slot] = tag;
          slots_[slot].key = key;
          slots_[slot].val = V{};
          ++size_;
          --growth_left_;
          *inserted = true;
          return slot;
        }
        g = (g + step + 1) & group_mask_;  // triangular: visits every group
      }
      Grow();
    }
  }

  size_t ProbeFind(uint64_t key, uint64_t mixed) const {
    const uint8_t tag = TagOf(mixed);
    size_t g = HomeGroup(mixed);
    for (size_t step = 0;; ++step) {
      const size_t base = g * kGroupWidth;
      const Group grp = Group::Load(ctrl_.data() + base);
      for (uint32_t m = grp.MatchTag(tag); m != 0; m &= m - 1) {
        const size_t slot = base + static_cast<size_t>(__builtin_ctz(m));
        if (slots_[slot].key == key) return slot;
      }
      if (grp.MatchEmpty() != 0) return kNotFound;
      g = (g + step + 1) & group_mask_;
    }
  }

  void Grow() {
    const size_t new_cap = capacity_ == 0 ? kInitialSlots : capacity_ * 2;
    SDPS_CHECK((new_cap & (new_cap - 1)) == 0);  // see static_assert above
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    const size_t old_cap = capacity_;
    ctrl_.assign(new_cap, kGroupCtrlEmpty);
    slots_.assign(new_cap, Slot{0, V{}});
    capacity_ = new_cap;
    group_mask_ = new_cap / kGroupWidth - 1;
    int bits = 0;
    while ((size_t{1} << bits) < new_cap / kGroupWidth) ++bits;
    group_shift_ = 57 - bits;  // group index sits just below the 7 tag bits
    size_ = 0;
    growth_left_ = MaxSizeFor(new_cap);
    // Re-insert in table order: deterministic layout for a deterministic
    // input sequence, independent of probe backend.
    for (size_t i = 0; i < old_cap; ++i) {
      if (old_ctrl[i] == kGroupCtrlEmpty) continue;
      bool inserted;
      const size_t slot =
          ProbeOrInsert(old_slots[i].key, Mix(old_slots[i].key), &inserted);
      slots_[slot].val = std::move(old_slots[i].val);
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<Slot> slots_;
  size_t capacity_ = 0;     // slot count, power of two, multiple of 16
  size_t group_mask_ = 0;   // capacity_/16 - 1
  int group_shift_ = 57;    // 57 - log2(group count)
  size_t size_ = 0;
  size_t growth_left_ = 0;  // inserts left before the 7/8 load rehash
};

}  // namespace sdps::engine

#endif  // SDPS_ENGINE_GROUP_HASH_H_
