// Minimal command-line argument parsing for the ftspm_tool driver and
// the examples. Supports `--flag`, `--option value`, `--option=value`,
// and positional arguments; unknown options are errors. No external
// dependencies, deterministic help text.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ftspm {

/// Strict unsigned decimal: digits only, overflow-guarded. Returns
/// nullopt for an empty string, a sign, whitespace, any other
/// character, or a value above UINT64_MAX — all of which strtoull and
/// std::stoul would accept (wrapping "-1" to 2^64-1) or clamp. The one
/// parser behind every unsigned count the CLI flags, the ledger run
/// refs, the load mix and the grid CSV reader take.
std::optional<std::uint64_t> parse_uint(std::string_view text);

/// Strict finite decimal: plain `[+-]digits[.digits][e[+-]digits]`
/// shape only. Returns nullopt for `nan`, `inf`, hex floats, leading
/// or trailing whitespace, trailing garbage, and values that overflow
/// to infinity — all of which strtod and std::stod accept. The one
/// parser behind every floating-point flag, the load mix weights and
/// the partition weights.
std::optional<double> parse_double(std::string_view text);

class ArgParser {
 public:
  /// `program` and `summary` head the usage text.
  ArgParser(std::string program, std::string summary);

  /// Registers a boolean `--name` flag.
  ArgParser& add_flag(const std::string& name, std::string help);

  /// Registers a value-taking `--name <value>` option with a default.
  ArgParser& add_option(const std::string& name, std::string help,
                        std::string default_value);

  /// Parses argv[start..). Throws InvalidArgument on unknown options,
  /// missing values, or malformed numbers requested later.
  void parse(int argc, const char* const* argv, int start = 1);

  bool flag(const std::string& name) const;
  const std::string& option(const std::string& name) const;
  std::int64_t option_int(const std::string& name) const;
  /// Strict non-negative integer: rejects signs, trailing garbage, and
  /// values above `max` with InvalidArgument (exit 2 at the CLI).
  std::uint64_t option_uint(const std::string& name,
                            std::uint64_t max = UINT64_MAX) const;
  /// parse_double, or InvalidArgument (exit 2 at the CLI).
  double option_double(const std::string& name) const;
  /// option_double plus an inclusive [min_value, max_value] range
  /// check, for probability- and rate-shaped flags.
  double option_double(const std::string& name, double min_value,
                       double max_value) const;
  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  std::string usage() const;

 private:
  struct Spec {
    std::string help;
    bool takes_value = false;
    std::string value;  // default, then parsed
    bool seen = false;
  };

  Spec& known(const std::string& name);
  const Spec& known(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  std::vector<std::string> positionals_;
};

}  // namespace ftspm
