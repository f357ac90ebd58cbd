// json.hpp — minimal JSON emitter + parser for the observability layer.
//
// One pair of primitives backs every machine-readable artifact the
// runtime produces: the Chrome trace-event file (obs/trace.hpp), the run
// report (obs/report.hpp), the quarantine manifest and the perf ledger's
// results all go through JsonWriter, and the tests that
// validate those artifacts parse them back with JsonValue — so
// "well-formed" is checked by the same code that defines it. The writer
// is streaming (no DOM build-up) and emits compact output: no
// whitespace, keys in call order, doubles at round-trip precision.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace sas::obs {

/// Streaming JSON emitter. Call sequences must nest correctly
/// (begin_object … key … value … end_object); commas and separators are
/// inserted automatically. Non-finite doubles are written as 0 (JSON has
/// no NaN/Inf) so artifacts stay loadable no matter what the metrics did.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key + value in one call — the common case for flat records.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// JSON string escaping ("\"", "\\", control characters as \u00XX).
  static void escape(std::ostream& out, std::string_view s);

 private:
  void pre_value();

  struct Level {
    char kind;  // 'o' or 'a'
    bool any = false;
  };
  std::ostream& out_;
  std::vector<Level> stack_;
  bool pending_key_ = false;
};

/// Parsed JSON document (recursive-descent, full-document). Malformed
/// input throws error::CorruptInput — the same taxonomy the hardened
/// wire readers use, so a damaged artifact is reported as exactly that.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : data_(nullptr) {}
  explicit JsonValue(bool b) : data_(b) {}
  explicit JsonValue(double d) : data_(d) {}
  explicit JsonValue(std::string s) : data_(std::move(s)) {}
  explicit JsonValue(Array a) : data_(std::move(a)) {}
  explicit JsonValue(Object o) : data_(std::move(o)) {}

  /// Parse a complete document; trailing non-whitespace is an error.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(data_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(data_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(data_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(data_);
  }

  [[nodiscard]] bool boolean() const { return get<bool>("bool"); }
  [[nodiscard]] double number() const { return get<double>("number"); }
  [[nodiscard]] const std::string& str() const { return get<std::string>("string"); }
  [[nodiscard]] const Array& array() const { return get<Array>("array"); }
  [[nodiscard]] const Object& object() const { return get<Object>("object"); }

  /// Object member access; a missing key throws CorruptInput with the
  /// key name (tests get a useful failure instead of a map exception).
  [[nodiscard]] const JsonValue& at(const std::string& k) const;
  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& k) const noexcept;

 private:
  template <typename T>
  const T& get(const char* what) const {
    const T* p = std::get_if<T>(&data_);
    if (p == nullptr) {
      throw error::CorruptInput(std::string("json: value is not a ") + what);
    }
    return *p;
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

}  // namespace sas::obs
