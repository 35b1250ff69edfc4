#include "wum/common/time.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "wum/common/string_util.h"

namespace wum {
namespace {

constexpr std::array<const char*, 12> kMonthNames = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[static_cast<std::size_t>(month - 1)];
}

// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
std::int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);           // [0, 399]
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;          // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

// Inverse of DaysFromCivil.
void CivilFromDays(std::int64_t z, int* y, int* m, int* d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);        // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;           // [0, 399]
  const std::int64_t yr = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);        // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                             // [0, 11]
  const unsigned day = doy - (153 * mp + 2) / 5 + 1;                   // [1, 31]
  const unsigned month = mp + (mp < 10 ? 3 : -9);                      // [1, 12]
  *y = static_cast<int>(yr + (month <= 2));
  *m = static_cast<int>(month);
  *d = static_cast<int>(day);
}

/// The three bytes of a month abbreviation as one switchable value.
constexpr std::uint32_t MonthKey(char a, char b, char c) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c));
}

/// 1..12 for the English abbreviation at `name` (three bytes, case
/// sensitive), 0 otherwise.
int MonthFromName(const char* name) {
  switch (MonthKey(name[0], name[1], name[2])) {
    case MonthKey('J', 'a', 'n'): return 1;
    case MonthKey('F', 'e', 'b'): return 2;
    case MonthKey('M', 'a', 'r'): return 3;
    case MonthKey('A', 'p', 'r'): return 4;
    case MonthKey('M', 'a', 'y'): return 5;
    case MonthKey('J', 'u', 'n'): return 6;
    case MonthKey('J', 'u', 'l'): return 7;
    case MonthKey('A', 'u', 'g'): return 8;
    case MonthKey('S', 'e', 'p'): return 9;
    case MonthKey('O', 'c', 't'): return 10;
    case MonthKey('N', 'o', 'v'): return 11;
    case MonthKey('D', 'e', 'c'): return 12;
    default: return 0;
  }
}

/// Reads the `count` ASCII digits at `text` into `*out`; false when any
/// of them is not a digit.
bool ReadDigits(const char* text, int count, int* out) {
  int value = 0;
  for (int i = 0; i < count; ++i) {
    const unsigned digit = static_cast<unsigned char>(text[i]) - '0';
    if (digit > 9) return false;
    value = value * 10 + static_cast<int>(digit);
  }
  *out = value;
  return true;
}

}  // namespace

TimeSeconds MinutesF(double minutes) {
  return static_cast<TimeSeconds>(std::llround(minutes * 60.0));
}

bool IsValidCivilTime(const CivilTime& ct) {
  if (ct.month < 1 || ct.month > 12) return false;
  if (ct.day < 1 || ct.day > DaysInMonth(ct.year, ct.month)) return false;
  if (ct.hour < 0 || ct.hour > 23) return false;
  if (ct.minute < 0 || ct.minute > 59) return false;
  if (ct.second < 0 || ct.second > 59) return false;
  return true;
}

CivilTime CivilTimeFromUnixSeconds(TimeSeconds seconds) {
  std::int64_t days = seconds / 86400;
  std::int64_t rem = seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  CivilTime ct;
  CivilFromDays(days, &ct.year, &ct.month, &ct.day);
  ct.hour = static_cast<int>(rem / 3600);
  ct.minute = static_cast<int>((rem % 3600) / 60);
  ct.second = static_cast<int>(rem % 60);
  return ct;
}

Result<TimeSeconds> UnixSecondsFromCivilTime(const CivilTime& ct) {
  if (!IsValidCivilTime(ct)) {
    return Status::InvalidArgument("invalid civil time");
  }
  return DaysFromCivil(ct.year, ct.month, ct.day) * 86400 + ct.hour * 3600 +
         ct.minute * 60 + ct.second;
}

std::string FormatClfTimestamp(TimeSeconds unix_seconds) {
  CivilTime ct = CivilTimeFromUnixSeconds(unix_seconds);
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%02d/%s/%04d:%02d:%02d:%02d +0000",
                ct.day, kMonthNames[static_cast<std::size_t>(ct.month - 1)],
                ct.year, ct.hour, ct.minute, ct.second);
  return buffer;
}

ClfTimestampError ParseClfTimestampTo(std::string_view text,
                                      TimeSeconds* out) {
  // Layout: DD/Mon/YYYY:HH:MM:SS [+-]HHMM
  if (text.size() < 26) return ClfTimestampError::kTooShort;
  const char* p = text.data();
  int day = 0;
  if (!ReadDigits(p, 2, &day) || p[2] != '/') {
    return ClfTimestampError::kBadDay;
  }
  const int month = MonthFromName(p + 3);
  if (month == 0 || p[6] != '/') return ClfTimestampError::kBadMonth;
  int year = 0;
  if (!ReadDigits(p + 7, 4, &year) || p[11] != ':') {
    return ClfTimestampError::kBadYear;
  }
  int hour = 0;
  int minute = 0;
  int second = 0;
  if (!ReadDigits(p + 12, 2, &hour) || p[14] != ':' ||
      !ReadDigits(p + 15, 2, &minute) || p[17] != ':' ||
      !ReadDigits(p + 18, 2, &second) || p[20] != ' ') {
    return ClfTimestampError::kBadTimeOfDay;
  }
  const char sign = p[21];
  if (sign != '+' && sign != '-') return ClfTimestampError::kBadZoneSign;
  int zone_hours = 0;
  int zone_minutes = 0;
  if (!ReadDigits(p + 22, 2, &zone_hours) ||
      !ReadDigits(p + 24, 2, &zone_minutes)) {
    return ClfTimestampError::kBadZoneOffset;
  }
  // IsValidCivilTime's checks, once: the month is valid by construction
  // and two digits cannot go negative.
  if (day < 1 || day > DaysInMonth(year, month) || hour > 23 ||
      minute > 59 || second > 59) {
    return ClfTimestampError::kImpossibleDate;
  }
  TimeSeconds offset = zone_hours * 3600 + zone_minutes * 60;
  if (sign == '-') offset = -offset;
  const TimeSeconds local = DaysFromCivil(year, month, day) * 86400 +
                            hour * 3600 + minute * 60 + second;
  *out = local - offset;  // local = utc + offset
  return ClfTimestampError::kOk;
}

std::string ClfTimestampErrorMessage(ClfTimestampError error,
                                     std::string_view text) {
  switch (error) {
    case ClfTimestampError::kOk:
      return "";
    case ClfTimestampError::kTooShort:
      return "CLF timestamp too short: '" + std::string(text) + "'";
    case ClfTimestampError::kBadDay:
      return "bad CLF day field";
    case ClfTimestampError::kBadMonth:
      return "bad CLF month field";
    case ClfTimestampError::kBadYear:
      return "bad CLF year field";
    case ClfTimestampError::kBadTimeOfDay:
      return "bad CLF time-of-day field";
    case ClfTimestampError::kBadZoneSign:
      return "bad CLF zone sign";
    case ClfTimestampError::kBadZoneOffset:
      return "bad CLF zone offset";
    case ClfTimestampError::kImpossibleDate:
      return "CLF timestamp has impossible date fields: '" +
             std::string(text) + "'";
  }
  return "";
}

Result<TimeSeconds> ParseClfTimestamp(std::string_view text) {
  TimeSeconds seconds = 0;
  const ClfTimestampError error = ParseClfTimestampTo(text, &seconds);
  if (error != ClfTimestampError::kOk) {
    return Status::ParseError(ClfTimestampErrorMessage(error, text));
  }
  return seconds;
}

}  // namespace wum
