#include "ftspm/util/format.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <string>

#include "ftspm/util/error.h"

namespace ftspm {

namespace {
std::string group_digits(std::string digits) {
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}
}  // namespace

std::string with_commas(std::uint64_t value) {
  return group_digits(std::to_string(value));
}

std::string with_commas(std::int64_t value) {
  if (value < 0) {
    // Negate via unsigned arithmetic: -INT64_MIN would overflow.
    const std::uint64_t magnitude =
        static_cast<std::uint64_t>(-(value + 1)) + 1;
    return "-" + with_commas(magnitude);
  }
  return with_commas(static_cast<std::uint64_t>(value));
}

std::string fixed(double value, int decimals) {
  FTSPM_REQUIRE(decimals >= 0 && decimals <= 12, "decimals out of range");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string percent(double fraction, int decimals) {
  return fixed(fraction * 100.0, decimals) + "%";
}

std::string si_string(double value, const std::string& unit, int decimals) {
  struct Prefix {
    double scale;
    const char* symbol;
  };
  static constexpr std::array<Prefix, 9> prefixes{{{1e12, "T"},
                                                   {1e9, "G"},
                                                   {1e6, "M"},
                                                   {1e3, "k"},
                                                   {1.0, ""},
                                                   {1e-3, "m"},
                                                   {1e-6, "u"},
                                                   {1e-9, "n"},
                                                   {1e-12, "p"}}};
  if (value == 0.0) return "0 " + unit;
  const double mag = std::fabs(value);
  for (const auto& p : prefixes) {
    if (mag >= p.scale) {
      return fixed(value / p.scale, decimals) + " " + p.symbol + unit;
    }
  }
  return fixed(value / 1e-15, decimals) + " f" + unit;
}

std::string human_duration(double seconds) {
  FTSPM_REQUIRE(seconds >= 0.0, "duration must be non-negative");
  struct Unit {
    double seconds;
    const char* name;
  };
  // Calendar approximations matching the paper's Table III phrasing.
  static constexpr std::array<Unit, 6> units{{{365.25 * 86400.0, "Years"},
                                              {30.4375 * 86400.0, "Months"},
                                              {86400.0, "Days"},
                                              {3600.0, "Hours"},
                                              {60.0, "Minutes"},
                                              {1.0, "Seconds"}}};
  for (const auto& u : units) {
    const double count = seconds / u.seconds;
    if (count >= 1.0) {
      // One decimal unless it rounds to a whole number (paper: "~1.5
      // Years" but "~3 Days").
      const double rounded = std::round(count * 10.0) / 10.0;
      std::string num = (std::fabs(rounded - std::round(rounded)) < 1e-9)
                            ? std::to_string(static_cast<long long>(
                                  std::llround(rounded)))
                            : fixed(rounded, 1);
      return "~" + num + " " + u.name;
    }
  }
  return "~" + fixed(seconds, 3) + " Seconds";
}

std::string sci(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", decimals, value);
  return buf;
}

std::string stable_decimal(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace ftspm
