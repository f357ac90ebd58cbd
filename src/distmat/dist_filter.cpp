#include "distmat/dist_filter.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "distmat/block.hpp"
#include "util/error.hpp"
#include "util/leb128.hpp"

namespace sas::distmat {

namespace {

/// Mode words of the compressed set encoding.
constexpr std::uint64_t kEncodingRle = 0;
constexpr std::uint64_t kEncodingList = 1;
constexpr std::uint64_t kEncodingDelta = 2;

constexpr std::uint64_t kMax32 = 0xffffffffULL;

/// Delta-varint body: LEB128-encoded gaps (first gap from −1, so every
/// gap ≥ 1 and the byte 0x00 never appears — word padding zeroes act as
/// the stream terminator), packed little-endian into words. Hypersparse
/// filters over huge row spaces (genome k-mer universes) land here:
/// ~⌈log₁₂₈ gap⌉ bytes per index instead of 8.
std::vector<std::uint64_t> delta_body(std::span<const std::int64_t> sorted) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(sorted.size() * 4);
  std::int64_t prev = -1;
  for (std::int64_t v : sorted) {
    util::put_leb128(bytes, static_cast<std::uint64_t>(v - prev));
    prev = v;
  }
  std::vector<std::uint64_t> words((bytes.size() + 7) / 8, 0);
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    words[b >> 3] |= static_cast<std::uint64_t>(bytes[b]) << ((b & 7) * 8);
  }
  return words;
}

std::vector<std::int64_t> decode_delta(std::span<const std::uint64_t> words,
                                       std::int64_t extent) {
  std::vector<std::uint8_t> bytes(words.size() * 8);
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    bytes[b] = static_cast<std::uint8_t>(words[b >> 3] >> ((b & 7) * 8));
  }
  util::Leb128Reader in(bytes, "decode_index_set");
  std::vector<std::int64_t> out;
  std::int64_t prev = -1;
  // A 0 byte where a varint starts is the padding terminator (gaps >= 1).
  while (!in.done() && in.peek() != 0) {
    const auto gap = in.read<std::uint64_t>();
    // Bound the gap BEFORE forming the index: a hostile varint can carry
    // bit 63 (or saturate past it), and prev + gap in signed space would
    // go negative / overflow. extent − 1 − prev is the largest admissible
    // gap and is non-negative by the loop invariant prev < extent, so the
    // unsigned comparison is exact.
    if (gap == 0 || gap > static_cast<std::uint64_t>(extent - 1 - prev)) {
      throw error::CorruptInput("decode_index_set: malformed delta stream");
    }
    prev += static_cast<std::int64_t>(gap);
    out.push_back(prev);
  }
  return out;
}

/// Word-RLE bitmap body: segments of [header(skip:32 | literals:32),
/// literal words...]. Segments are maximal runs of bitmap words whose
/// interior zero-word gaps are at most one word (inlining one zero word
/// costs the same as a fresh header and keeps segments long).
std::vector<std::uint64_t> rle_body(std::span<const std::int64_t> sorted) {
  std::vector<std::uint64_t> body;
  std::size_t s = 0;
  std::int64_t pos = 0;  // bitmap word position after the previous segment
  while (s < sorted.size()) {
    // One segment: collect literal words while gaps stay <= 1 zero word.
    const std::int64_t first_word = sorted[s] >> 6;
    std::vector<std::uint64_t> literals;
    std::int64_t word = first_word;
    std::uint64_t bits = 0;
    while (s < sorted.size()) {
      const std::int64_t w = sorted[s] >> 6;
      if (w == word) {
        bits |= std::uint64_t{1} << (sorted[s] & 63);
        ++s;
        continue;
      }
      if (w - word > 2) break;  // gap of >= 2 zero words: new segment
      literals.push_back(bits);
      for (std::int64_t z = word + 1; z < w; ++z) literals.push_back(0);
      word = w;
      bits = 0;
    }
    literals.push_back(bits);

    std::int64_t skip = first_word - pos;
    while (skip > static_cast<std::int64_t>(kMax32)) {
      body.push_back(kMax32 << 32);  // skip-only header
      skip -= static_cast<std::int64_t>(kMax32);
    }
    // Literal counts can exceed 32 bits only past 2^38 rows per segment;
    // split defensively anyway.
    std::size_t emitted = 0;
    while (emitted < literals.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(literals.size() - emitted, kMax32);
      body.push_back((static_cast<std::uint64_t>(skip) << 32) |
                     static_cast<std::uint64_t>(chunk));
      body.insert(body.end(), literals.begin() + static_cast<std::ptrdiff_t>(emitted),
                  literals.begin() + static_cast<std::ptrdiff_t>(emitted + chunk));
      emitted += chunk;
      skip = 0;
    }
    pos = word + 1;
  }
  return body;
}

}  // namespace

std::vector<std::uint64_t> encode_index_set(std::span<const std::int64_t> sorted,
                                            std::int64_t extent) {
  if (sorted.empty()) return {};
  for (std::size_t s = 0; s < sorted.size(); ++s) {
    if (sorted[s] < 0 || sorted[s] >= extent ||
        (s > 0 && sorted[s] <= sorted[s - 1])) {
      throw std::invalid_argument("encode_index_set: need sorted unique in [0, extent)");
    }
  }
  const std::vector<std::uint64_t> rle = rle_body(sorted);
  const std::vector<std::uint64_t> delta = delta_body(sorted);
  const std::size_t best = std::min({rle.size(), delta.size(), sorted.size()});
  std::vector<std::uint64_t> out;
  out.reserve(1 + best);
  if (best == rle.size()) {
    out.push_back(kEncodingRle);
    out.insert(out.end(), rle.begin(), rle.end());
  } else if (best == delta.size()) {
    out.push_back(kEncodingDelta);
    out.insert(out.end(), delta.begin(), delta.end());
  } else {
    out.push_back(kEncodingList);
    for (std::int64_t idx : sorted) out.push_back(static_cast<std::uint64_t>(idx));
  }
  return out;
}

std::vector<std::int64_t> decode_index_set(std::span<const std::uint64_t> words,
                                           std::int64_t extent) {
  std::vector<std::int64_t> out;
  if (words.empty()) return out;
  if (words[0] == kEncodingList) {
    out.reserve(words.size() - 1);
    for (std::size_t w = 1; w < words.size(); ++w) {
      const auto idx = static_cast<std::int64_t>(words[w]);
      if (idx < 0 || idx >= extent || (!out.empty() && idx <= out.back())) {
        throw error::CorruptInput("decode_index_set: malformed raw list");
      }
      out.push_back(idx);
    }
    return out;
  }
  if (words[0] == kEncodingDelta) {
    return decode_delta(words.subspan(1), extent);
  }
  if (words[0] != kEncodingRle) {
    throw error::CorruptInput("decode_index_set: unknown encoding mode");
  }
  const std::int64_t word_extent = (extent + 63) / 64;
  std::int64_t pos = 0;  // current bitmap word position
  std::size_t w = 1;
  while (w < words.size()) {
    const std::int64_t skip = static_cast<std::int64_t>(words[w] >> 32);
    const std::int64_t literals = static_cast<std::int64_t>(words[w] & kMax32);
    ++w;
    if (w + static_cast<std::size_t>(literals) > words.size()) {
      throw error::CorruptInput("decode_index_set: truncated RLE segment");
    }
    pos += skip;
    // Bound pos before forming pos * 64: hostile skip headers chained
    // across segments could otherwise push it past the signed range.
    if (pos > word_extent) {
      throw error::CorruptInput("decode_index_set: RLE skip beyond extent");
    }
    for (std::int64_t l = 0; l < literals; ++l, ++w, ++pos) {
      if (pos >= word_extent) {
        if (words[w] != 0) {
          throw error::CorruptInput("decode_index_set: index beyond extent");
        }
        continue;  // zero padding words past the extent carry no indices
      }
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const std::int64_t idx = pos * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        if (idx >= extent) {
          throw error::CorruptInput("decode_index_set: index beyond extent");
        }
        out.push_back(idx);
      }
    }
  }
  return out;
}

std::vector<std::int64_t> distributed_index_union(bsp::Comm& comm,
                                                  std::span<const std::int64_t> mine,
                                                  std::int64_t universe, bool compress) {
  const int p = comm.size();
  std::vector<std::vector<std::int64_t>> outgoing(static_cast<std::size_t>(p));
  for (std::int64_t idx : mine) {
    outgoing[static_cast<std::size_t>(block_owner(universe, p, idx))].push_back(idx);
  }

  std::vector<std::int64_t> owned;
  if (compress) {
    // Compressed contributions: dedupe locally, then ship each block in
    // the set encoding relative to its owner's range.
    std::vector<std::vector<std::uint64_t>> packed(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) {
      auto& block = outgoing[static_cast<std::size_t>(q)];
      std::sort(block.begin(), block.end());
      block.erase(std::unique(block.begin(), block.end()), block.end());
      const BlockRange range = block_range(universe, p, q);
      for (std::int64_t& idx : block) idx -= range.begin;
      packed[static_cast<std::size_t>(q)] =
          encode_index_set(std::span<const std::int64_t>(block), range.size());
    }
    const auto incoming = comm.alltoall_v(packed);
    const BlockRange my_range = block_range(universe, p, comm.rank());
    for (const auto& block : incoming) {
      const auto decoded =
          decode_index_set(std::span<const std::uint64_t>(block), my_range.size());
      owned.insert(owned.end(), decoded.begin(), decoded.end());
    }
    std::sort(owned.begin(), owned.end());
    owned.erase(std::unique(owned.begin(), owned.end()), owned.end());

    // Compressed replication: each owner's set travels once per hop of
    // the ring allgather in the same encoding — the O(p · |union|) raw
    // word cost becomes O(p · encoded), ~1 bit per kept row on dense
    // batches.
    const auto gathered = comm.allgather_v<std::uint64_t>(
        std::span<const std::uint64_t>(
            encode_index_set(std::span<const std::int64_t>(owned), my_range.size())));
    std::vector<std::int64_t> result;
    for (int q = 0; q < p; ++q) {
      const BlockRange range = block_range(universe, p, q);
      const auto decoded = decode_index_set(
          std::span<const std::uint64_t>(gathered[static_cast<std::size_t>(q)]),
          range.size());
      for (std::int64_t idx : decoded) result.push_back(idx + range.begin);
    }
    return result;
  }

  std::vector<std::vector<std::int64_t>> incoming = comm.alltoall_v(outgoing);
  // Owner-side dedup: the (max,×) accumulation of the paper's write().
  for (auto& block : incoming) {
    owned.insert(owned.end(), block.begin(), block.end());
  }
  std::sort(owned.begin(), owned.end());
  owned.erase(std::unique(owned.begin(), owned.end()), owned.end());

  // Owners hold disjoint, increasing ranges (block partition), so the
  // rank-ordered concatenation of an allgather is already sorted.
  return comm.allgather<std::int64_t>(owned);
}

std::vector<std::uint64_t> allreduce_pair_union(bsp::Comm& comm,
                                                std::vector<std::uint64_t> mine) {
  std::sort(mine.begin(), mine.end());
  mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
  const auto blocks = comm.allgather_v<std::uint64_t>(
      std::span<const std::uint64_t>(mine));
  // Rank lists are each sorted; a concatenate + sort is O(total log p)-ish
  // and deterministic — candidate unions stay far below the n² regime
  // where a k-way merge would matter.
  std::vector<std::uint64_t> all;
  std::size_t total = 0;
  for (const auto& block : blocks) total += block.size();
  all.reserve(total);
  for (const auto& block : blocks) all.insert(all.end(), block.begin(), block.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::int64_t compact_row_id(std::span<const std::int64_t> sorted_filter,
                            std::int64_t global_row) {
  const auto it = std::lower_bound(sorted_filter.begin(), sorted_filter.end(), global_row);
  if (it == sorted_filter.end() || *it != global_row) {
    throw std::logic_error("compact_row_id: row not present in filter");
  }
  return static_cast<std::int64_t>(it - sorted_filter.begin());
}

}  // namespace sas::distmat
