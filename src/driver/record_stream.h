// The deterministic record stream behind every generator: the
// carry-corrected emission-time recurrence and the payload builder whose
// rng/ring state advances in strict emission order. Extracted from the
// DES generator so both runtime backends consume the *same* stream — the
// DES GeneratorProcess paces it with simulated Delays, the realtime
// rt::Generator paces it with wall-clock sleep_until — and a given
// (config, seed) yields a bit-identical record sequence on either
// backend. That identity is what makes DES-vs-realtime logical-output
// comparison meaningful (DESIGN.md §6, "runtime duality").
#ifndef SDPS_DRIVER_RECORD_STREAM_H_
#define SDPS_DRIVER_RECORD_STREAM_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/time_util.h"
#include "driver/generator.h"
#include "engine/record.h"

namespace sdps::driver {

/// One generator instance's record stream. Call NextTime() to advance the
/// emission clock and Build() to materialize the record at that time;
/// always call them in strict emission order (NextTime, Build, NextTime,
/// Build, ...) — payloads are a pure function of the emission index.
/// The config must outlive the stream.
class RecordStream {
 public:
  RecordStream(const GeneratorConfig& config, Rng rng)
      : config_(config), rng_(rng) {
    switch (config.key_distribution) {
      case KeyDistribution::kNormal:
        normal_.emplace(config.num_keys);
        break;
      case KeyDistribution::kZipf:
        zipf_.emplace(config.num_keys, config.zipf_exponent);
        break;
      case KeyDistribution::kUniform:
      case KeyDistribution::kSingle:
        break;
    }
  }

  /// Advances the emission clock from the previous emission at `prev` by
  /// one inter-record interval, carrying the fractional-microsecond
  /// rounding error so the realized rate tracks the configured rate
  /// exactly (no per-record drift) and rates above one record per
  /// microsecond are representable (several same-µs emissions, not a
  /// silent 1 rec/µs cap). May return a time past the generation horizon
  /// — the caller checks against config.duration.
  SimTime NextTime(SimTime prev) {
    const double rate = config_.rate(prev);
    SDPS_CHECK_GT(rate, 0.0) << "rate profile returned non-positive rate";
    const double interval_us =
        static_cast<double>(config_.tuples_per_record) / rate * 1e6 + carry_;
    const SimTime step = std::max<SimTime>(0, RoundMicros(interval_us));
    carry_ = interval_us - static_cast<double>(step);
    return prev + step;
  }

  /// Builds the record emitted at `emit_time` (the value NextTime just
  /// returned), advancing the payload rng and the recent-ads ring.
  engine::Record Build(SimTime emit_time) {
    engine::Record rec;
    rec.event_time = emit_time;
    if (config_.max_event_lag > 0) {
      rec.event_time -= static_cast<SimTime>(
          rng_.NextBelow(static_cast<uint64_t>(config_.max_event_lag)));
      if (rec.event_time < 0) rec.event_time = 0;
    }
    rec.weight = config_.tuples_per_record;
    const bool is_ad =
        config_.ads_fraction > 0.0 && rng_.NextDouble() < config_.ads_fraction;
    if (is_ad) {
      rec.stream = engine::StreamId::kAds;
      rec.key = PickKey();
      rec.value = 0.0;
      if (recent_ads_.size() < config_.ad_match_memory) {
        recent_ads_.push_back(rec.key);
      } else {
        recent_ads_[recent_ads_next_] = rec.key;
        recent_ads_next_ = (recent_ads_next_ + 1) % config_.ad_match_memory;
      }
    } else {
      rec.stream = engine::StreamId::kPurchases;
      rec.value = rng_.Uniform(config_.price_min, config_.price_max);
      const bool match = config_.ads_fraction > 0.0 && !recent_ads_.empty() &&
                         rng_.NextDouble() < config_.join_selectivity;
      if (match) {
        rec.key = recent_ads_[rng_.NextBelow(recent_ads_.size())];
      } else if (config_.ads_fraction > 0.0) {
        rec.key = kNonMatchingBit | (non_matching_counter_++);
      } else {
        rec.key = PickKey();
      }
    }
    return rec;
  }

  const GeneratorConfig& config() const { return config_; }

 private:
  // Non-matching purchase keys live in a disjoint key space (top bit set).
  static constexpr uint64_t kNonMatchingBit = 1ULL << 63;

  uint64_t PickKey() {
    switch (config_.key_distribution) {
      case KeyDistribution::kNormal:
        return normal_->Sample(rng_);
      case KeyDistribution::kUniform:
        return rng_.NextBelow(config_.num_keys);
      case KeyDistribution::kZipf:
        return zipf_->Sample(rng_);
      case KeyDistribution::kSingle:
        return 0;
    }
    return 0;
  }

  const GeneratorConfig& config_;
  Rng rng_;
  std::optional<NormalKeyDistribution> normal_;
  std::optional<ZipfDistribution> zipf_;
  double carry_ = 0.0;
  // Ring buffer of recent ad keys for selectivity-controlled join matches.
  std::vector<uint64_t> recent_ads_;
  size_t recent_ads_next_ = 0;
  uint64_t non_matching_counter_ = 0;
};

}  // namespace sdps::driver

#endif  // SDPS_DRIVER_RECORD_STREAM_H_
