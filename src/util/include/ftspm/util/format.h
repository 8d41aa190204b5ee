// Human-readable formatting used by the report layer, benches, and
// examples: thousands separators, percentages, SI-scaled engineering
// units, and Table-III-style human durations ("~40 Minutes", "~16 Years").
#pragma once

#include <cstdint>
#include <string>

namespace ftspm {

/// 1234567 -> "1,234,567".
std::string with_commas(std::uint64_t value);
std::string with_commas(std::int64_t value);

/// 0.4321 -> "43.2%" (one decimal by default).
std::string percent(double fraction, int decimals = 1);

/// Fixed-point decimal: fixed(3.14159, 2) -> "3.14".
std::string fixed(double value, int decimals = 2);

/// Engineering/SI notation: si_string(1.7e-9, "J") -> "1.70 nJ".
/// Supported prefixes: f p n u m (none) k M G T.
std::string si_string(double value, const std::string& unit, int decimals = 2);

/// Formats a duration given in seconds the way the paper's Table III
/// does: "~40 Minutes", "~3 Days", "~1.5 Years", "~1665 Years".
/// Picks the largest unit whose count is >= 1 and prints at most one
/// decimal (dropped when the value rounds to an integer).
std::string human_duration(double seconds);

/// Scientific notation with a small mantissa: sci(3.2e13) -> "3.2e+13".
std::string sci(double value, int decimals = 1);

/// Six significant digits ("%.6g"): 0.123456789 -> "0.123457". The one
/// spelling of every non-integer value in CSV, HTML and load reports,
/// stable byte for byte across runs.
std::string stable_decimal(double value);

}  // namespace ftspm
