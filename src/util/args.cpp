#include "util/args.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace sas {

namespace {

/// All of `value` as a base-10 T, or error::ConfigError naming the flag:
/// trailing junk ("3x"), a non-number ("abc"), a base prefix ("0x5a5")
/// and an out-of-range value are all rejected.
template <typename T>
T parse_flag(const std::string& name, const std::string& value, const char* expected) {
  if (const auto parsed = parse_number<T>(value)) return *parsed;
  throw error::ConfigError("--" + name + ": expected " + expected + ", got '" + value + "'");
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string key = token.substr(2);
      std::string value;
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      named_[key] = value;
    } else {
      positional_.push_back(std::move(token));
    }
  }
}

bool ArgParser::has(const std::string& name) const { return named_.count(name) > 0; }

std::string ArgParser::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end() || it->second.empty()) return fallback;
  return parse_flag<std::int64_t>(name, it->second, "an integer");
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end() || it->second.empty()) return fallback;
  // from_chars accepts "nan" and "inf", which slip past every range check
  // (a comparison with NaN is false), so only finite values are numbers.
  const double value = parse_flag<double>(name, it->second, "a number");
  if (!std::isfinite(value)) {
    throw error::ConfigError("--" + name + ": expected a finite number, got '" +
                             it->second + "'");
  }
  return value;
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty()) return true;  // bare --flag
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw error::ConfigError("--" + name +
                           ": expected 1/0, true/false, yes/no or on/off, got '" + v +
                           "' (a bare flag takes the next argument as its value)");
}

std::vector<std::string> ArgParser::unknown(
    std::initializer_list<std::string_view> accepted) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : named_) {
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace sas
