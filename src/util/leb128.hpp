// leb128.hpp — the one LEB128 varint writer and bounded reader.
//
// Both delta codes of the exact pipeline use it: the filter union's
// delta-varint index sets (distmat/dist_filter.hpp) and the compact
// panel wire (distmat/panel_wire.hpp). A varint is 7 bits a byte, low
// bits first, the high bit set on every byte but the last.
//
// The reader is for untrusted bytes: it throws error::CorruptInput on a
// varint cut off by the end of the input and on a runaway varint (more
// than kMaxLeb128Bytes bytes), and a std::uint64_t read saturates a value
// past 2^64 to the maximum instead of wrapping it, so the caller's range
// check rejects it. Value is std::uint64_t or unsigned __int128.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace sas::util {

/// 10 bytes carry 70 bits: any 64-bit value, and the panel wire's
/// position gaps (below 2^69).
inline constexpr int kMaxLeb128Bytes = 10;

template <typename Value>
void put_leb128(std::vector<std::uint8_t>& out, Value value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(value) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// LEB128 reader over one untrusted byte stream. `who` names the decoder
/// in the errors it throws.
class Leb128Reader {
 public:
  Leb128Reader(std::span<const std::uint8_t> bytes, const char* who)
      : next_(bytes.data()), end_(bytes.data() + bytes.size()), who_(who) {}

  [[nodiscard]] bool done() const noexcept { return next_ == end_; }

  /// The next byte, unread. Requires !done().
  [[nodiscard]] std::uint8_t peek() const noexcept { return *next_; }

  template <typename Value>
  [[nodiscard]] Value read() {
    if (next_ == end_) fail("truncated varint");
    std::uint8_t byte = *next_++;
    if (byte < 0x80) return byte;
    Value value = byte & 0x7f;
    for (int shift = 7;; shift += 7) {
      if (shift == 7 * kMaxLeb128Bytes) fail("runaway varint");
      if (next_ == end_) fail("truncated varint");
      byte = *next_++;
      if (sizeof(Value) == sizeof(std::uint64_t) && shift == 63 && (byte & 0x7e) != 0) {
        value = ~Value{0};
      } else {
        value |= static_cast<Value>(byte & 0x7f) << shift;
      }
      if (byte < 0x80) return value;
    }
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw error::CorruptInput(std::string(who_) + ": " + what);
  }

  const std::uint8_t* next_;
  const std::uint8_t* end_;
  const char* who_;
};

}  // namespace sas::util
