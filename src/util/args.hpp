// args.hpp — a small, dependency-free CLI argument parser.
//
// Bench binaries and examples accept `--name value` overrides so that the
// figures can be regenerated at different scales; defaults reproduce the
// configurations recorded in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sas {

/// Parses `--key value` and `--flag` style arguments. Unknown keys are
/// collected verbatim so callers can reject or ignore them explicitly.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric value of `--name`, or `fallback` when the flag is absent or
  /// bare. Throws error::ConfigError unless the whole value parses (base
  /// 10 for integers) and is in range.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

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
