// args.hpp — a small, dependency-free CLI argument parser.
//
// gas, the examples and the accuracy and ledger benches accept
// `--name value` overrides; each binary's defaults are its documented
// configuration.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sas {

/// Parses `--key value` and `--flag` style arguments. Unknown keys are
/// collected verbatim so callers can reject (unknown()) or ignore them.
/// A bare flag takes the next argument as its value unless that starts
/// with `--`, so `--no-filter a.kmers` reads a.kmers as the flag's value
/// (which get_bool then rejects).
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric value of `--name`, or `fallback` when the flag is absent or
  /// bare. Throws error::ConfigError unless the whole value parses (base
  /// 10 for integers) and is in range; get_double also rejects NaN and
  /// infinities.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// `fallback` when `--name` is absent, true when it is bare; otherwise
  /// 1/true/yes/on or 0/false/no/off, and any other value throws
  /// error::ConfigError naming the flag.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// The `--flags` given that are not in `accepted`, in sorted order.
  [[nodiscard]] std::vector<std::string> unknown(
      std::initializer_list<std::string_view> accepted) const;

  /// Positional (non `--`) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program_name() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

}  // namespace sas
