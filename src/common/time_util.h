// Time representation shared by the whole project. Simulated time is a
// 64-bit count of microseconds since experiment start.
#ifndef SDPS_COMMON_TIME_UTIL_H_
#define SDPS_COMMON_TIME_UTIL_H_

#include <cstdint>
#include <string>

namespace sdps {

/// Simulated time / duration in microseconds.
using SimTime = int64_t;

inline constexpr SimTime kMicrosPerMilli = 1000;
inline constexpr SimTime kMicrosPerSecond = 1000 * 1000;
inline constexpr SimTime kMicrosPerMinute = 60 * kMicrosPerSecond;

constexpr SimTime Seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kMicrosPerSecond));
}
constexpr SimTime Millis(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMicrosPerMilli));
}
constexpr SimTime Minutes(double m) {
  return static_cast<SimTime>(m * static_cast<double>(kMicrosPerMinute));
}

/// Rounds fractional microseconds to the nearest SimTime, halves away from
/// zero: std::llround's result for every |us| < 2^63, without its library
/// call (cost models and links round several durations per record).
constexpr SimTime RoundMicros(double us) {
  const SimTime whole = static_cast<SimTime>(us);       // toward zero
  const double frac = us - static_cast<double>(whole);  // exact
  return frac >= 0.5 ? whole + 1 : frac <= -0.5 ? whole - 1 : whole;
}

/// A modelled cost (CPU work, serialization) as a duration: rounded like
/// RoundMicros and never negative.
constexpr SimTime CostUs(double us) {
  const SimTime rounded = RoundMicros(us);
  return rounded > 0 ? rounded : 0;
}

/// Floor division (rounds toward negative infinity, unlike `/`): the
/// window, bucket or slide index of a possibly negative time.
constexpr int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerSecond);
}
constexpr double ToMillis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerMilli);
}

/// Human-readable rendering, e.g. "2.500s" or "750ms".
std::string FormatDuration(SimTime t);

}  // namespace sdps

#endif  // SDPS_COMMON_TIME_UTIL_H_
