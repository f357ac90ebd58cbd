// radix_sort.hpp — stable LSD radix sort by a bounded unsigned key.
//
// The exact pipeline's per-batch sorts order entries by batch rows,
// word-rows or panel columns: keys whose ranges are known before the
// batch starts (core::pack_batch's row dedup, distmat::normalize_triplets
// behind SparseBlock::from_triplets and redistribute_panel). A counting
// sort orders n keys of w significant bits in ⌈w / kRadixDigitBits⌉
// passes, each one counting sweep and one stable scatter, in O(n + 2¹¹)
// time and memory per pass whatever the key range, where a comparison
// sort pays about log₂ n compares per entry.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sas {

/// Widest digit of one pass. Its 2¹¹ eight-byte counters (16 KiB) stay in
/// L1 while the pass scatters, so wider keys take another pass rather than
/// a histogram that spills.
inline constexpr int kRadixDigitBits = 11;

/// Significant bits of `x`: the key width of a sort whose keys, OR-ed
/// together, give x.
[[nodiscard]] constexpr int significant_bits(std::uint64_t x) noexcept {
  return static_cast<int>(std::bit_width(x));
}

/// Sort `items` stably by key(item), every key below 2^bits (bits ≤ 64),
/// in as few passes of equal digits of at most kRadixDigitBits bits as
/// cover them. `scratch` is the buffer the passes alternate with; it is
/// resized to items.size() and its contents on return are unspecified.
template <typename T, typename Key>
void radix_sort(std::vector<T>& items, std::vector<T>& scratch, int bits, Key key) {
  if (bits <= 0 || items.size() < 2) return;
  const int passes = (bits + kRadixDigitBits - 1) / kRadixDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const std::uint64_t digit_mask = (std::uint64_t{1} << digit_bits) - 1;
  const auto digits = static_cast<std::size_t>(digit_mask) + 1;
  scratch.resize(items.size());
  std::array<std::size_t, std::size_t{1} << kRadixDigitBits> start{};
  for (int shift = 0; shift < bits; shift += digit_bits) {
    std::fill_n(start.begin(), digits, std::size_t{0});
    for (const T& item : items) ++start[(key(item) >> shift) & digit_mask];
    std::size_t sum = 0;
    for (std::size_t d = 0; d < digits; ++d) {
      const std::size_t count = start[d];
      start[d] = sum;
      sum += count;
    }
    for (const T& item : items) scratch[start[(key(item) >> shift) & digit_mask]++] = item;
    items.swap(scratch);
  }
}

}  // namespace sas
