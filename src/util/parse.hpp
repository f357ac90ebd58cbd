// parse.hpp — whole-string numeric parsing for the input boundaries
// (CLI flags, .kmers lines, fault plans).
//
// std::sto* and strto* accept trailing junk ("3x" reads as 3), skip
// leading whitespace, and either throw untyped exceptions or return 0 on
// garbage. parse_number accepts exactly one base-10 number spanning the
// whole text, so each caller can throw the sas::error type that fits its
// boundary.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace sas {

/// `text` as one base-10 T, or nullopt unless ALL of it parses and the
/// value is in range. No whitespace, no base prefix, no '+' sign, and no
/// '-' sign for unsigned T.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) noexcept {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace sas
