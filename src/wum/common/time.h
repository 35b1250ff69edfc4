// Time types shared across the library. The simulation measures time in
// whole seconds since an arbitrary epoch; the CLF layer converts to and
// from calendar timestamps.

#ifndef WUM_COMMON_TIME_H_
#define WUM_COMMON_TIME_H_

#include <cstdint>
#include <string>

#include "wum/common/result.h"

namespace wum {

/// Seconds since the simulation epoch (or UNIX epoch at the CLF boundary).
using TimeSeconds = std::int64_t;

/// Converts whole minutes to TimeSeconds.
constexpr TimeSeconds Minutes(std::int64_t minutes) { return minutes * 60; }

/// Converts fractional minutes to TimeSeconds (rounds to nearest second).
TimeSeconds MinutesF(double minutes);

/// Time thresholds used by the session heuristics (paper defaults:
/// delta = 30 min total session duration, rho = 10 min page stay).
struct TimeThresholds {
  TimeSeconds max_session_duration = Minutes(30);
  TimeSeconds max_page_stay = Minutes(10);
};

/// Broken-down UTC calendar time, sufficient for CLF timestamps.
struct CivilTime {
  int year = 1970;
  int month = 1;   // 1..12
  int day = 1;     // 1..31
  int hour = 0;    // 0..23
  int minute = 0;  // 0..59
  int second = 0;  // 0..59

  friend bool operator==(const CivilTime&, const CivilTime&) = default;
};

/// True iff the fields form a valid calendar date-time (proleptic
/// Gregorian, leap years included).
bool IsValidCivilTime(const CivilTime& ct);

/// Converts a UNIX timestamp (UTC) to broken-down form.
CivilTime CivilTimeFromUnixSeconds(TimeSeconds seconds);

/// Converts broken-down UTC time to a UNIX timestamp.
/// Returns InvalidArgument for out-of-range fields.
Result<TimeSeconds> UnixSecondsFromCivilTime(const CivilTime& ct);

/// Formats a CLF timestamp: "[02/Jan/2006:15:04:05 +0000]" without the
/// brackets (the writer adds them).
std::string FormatClfTimestamp(TimeSeconds unix_seconds);

/// Parses the bracket-free CLF timestamp produced by FormatClfTimestamp.
/// Accepts any numeric "+HHMM"/"-HHMM" zone and normalizes to UTC.
/// Bytes past the 26-byte layout are ignored.
Result<TimeSeconds> ParseClfTimestamp(std::string_view text);

/// Why ParseClfTimestampTo refused a timestamp, in check order.
enum class ClfTimestampError {
  kOk = 0,
  kTooShort,
  kBadDay,
  kBadMonth,
  kBadYear,
  kBadTimeOfDay,
  kBadZoneSign,
  kBadZoneOffset,
  kImpossibleDate,
};

/// ParseClfTimestamp's non-allocating core, for the per-line parse:
/// stores the UTC instant in `*out` and returns kOk, or returns the first
/// check that failed (leaving `*out` unspecified).
ClfTimestampError ParseClfTimestampTo(std::string_view text, TimeSeconds* out);

/// The message ParseClfTimestamp reports for `error` on `text`.
std::string ClfTimestampErrorMessage(ClfTimestampError error,
                                     std::string_view text);

}  // namespace wum

#endif  // WUM_COMMON_TIME_H_
