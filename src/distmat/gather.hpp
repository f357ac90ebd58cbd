// gather.hpp — assemble the distributed output on the root, dense or
// survivor-sparse.
//
// Used at the very end of the pipeline to hand the similarity matrix to
// downstream consumers (tree building, clustering, file output). Two
// forms:
//
//   gather_blocks_to_root   — each rank ships ONE byte message
//     holding its dense blocks of a symmetric n×n product (the block
//     message below); rank 0 decodes each into the full matrix, writing
//     finalize(i, j, value) for every cell and the same value at (j, i).
//     The blocks cover one triangle (the serial block, the exact ring's
//     and the sketch ring's ring shares, distmat/ring.hpp, and SUMMA's
//     summa_share, distmat/spgemm.hpp), and a square block on the
//     diagonal ships only its upper triangle, so every output cell
//     travels once.
//     The exact pipeline ships B's integer intersection counts straight
//     from its accumulator panel and finalizes them on the root with the
//     allreduced â (core/driver.cpp), so no rank builds a block of
//     doubles; the sketch ring ships its estimates and keeps them as
//     they are. Rank 0 holds the n² output — 8·n² bytes for the
//     n×n similarity matrix (~20 GB at n = 50k), which is why the
//     mask-gated pipelines avoid this path — plus the coded messages, not
//     a second copy of the values.
//   gather_triplets_to_root — each rank ships only its (i, j, value)
//     triplets (for the hybrid: its block's cells that survive the
//     candidate mask, walked by CandidateMask::for_each_pair_in with the
//     i < j convention so disjoint blocks emit disjoint triplets); rank 0
//     checks every pair against the matrix, rejects duplicates and
//     merges the sorted pair lists. Bytes and rank-0 memory are
//     O(survivors), not O(n²).
//
// == The block message =====================================================
//
//   the LEB128 block count (util/leb128.hpp), then each block's row
//   begin, row count, column begin and column count, LEB128;
//   then each block's cells in row-major order as runs: a LEB128 count of
//   zero cells, a LEB128 count k of nonzero cells, then those k values,
//   until the block's cells are used up (a block's last run may have
//   k = 0; an empty block has no runs). A square block on the diagonal
//   (rows = cols) holds the cells of its upper triangle, row i from
//   column i: m(m + 1)/2 cells for m rows.
//
// A cell is zero when its bit pattern is, so −0.0 and NaN travel as
// values and the code is lossless for doubles too. Integer values are
// the LEB128 of their two's-complement bits (an intersection count takes
// a byte or two); doubles are their 8 raw bytes in host byte order.
// A rank with no blocks ships its 1-byte zero count, so an empty message
// is a truncation. The message carries no checksum of its own: bsp::Comm
// checks the CRC-32 of every message it delivers (bsp/comm.hpp). The
// decoder checks every block range against the matrix and every run
// against its block's remaining cells, and throws error::CorruptInput on
// any failure: what it accepts writes only inside the matrix.
//
// Tag audit (bsp/tags.hpp): both forms are built on gather_v, which runs
// on comm.hpp's reserved internal tags — no user tag is minted here. New
// point-to-point traffic must take its tag from bsp::tags.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bsp/comm.hpp"
#include "distmat/dense_block.hpp"
#include "distmat/triplet.hpp"
#include "util/error.hpp"
#include "util/leb128.hpp"

namespace sas::distmat {

/// One block a rank contributes to gather_blocks_to_root: the global
/// `rows` × `cols` of `source`, which must cover them. `T` is an integer
/// type or double.
template <typename T>
struct GatherBlock {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);

  const DenseBlock<T>* source;
  BlockRange rows;
  BlockRange cols;

  GatherBlock(const DenseBlock<T>& block, BlockRange r, BlockRange c)
      : source(&block), rows(r), cols(c) {}
  /// The whole block.
  explicit GatherBlock(const DenseBlock<T>& block)
      : GatherBlock(block, block.row_range, block.col_range) {}
};

/// gather_blocks_to_root's default finalize: each value as shipped.
struct KeepValue {
  template <typename T>
  T operator()(std::int64_t, std::int64_t, T value) const noexcept {
    return value;
  }
};

namespace gather_detail {

template <typename T>
[[nodiscard]] bool zero_bits(T value) noexcept {
  if constexpr (std::is_integral_v<T>) {
    return value == 0;
  } else {
    return std::bit_cast<std::uint64_t>(value) == 0;
  }
}

/// Appends one block's cells as (zero count, nonzero count, values) runs.
template <typename T>
class RunWriter {
 public:
  explicit RunWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void add(T value) {
    if (!zero_bits(value)) {
      run_.push_back(value);
      return;
    }
    if (!run_.empty()) flush();
    ++zeros_;
  }

  /// End the block with its last run.
  void finish() {
    if (zeros_ != 0 || !run_.empty()) flush();
  }

 private:
  void flush() {
    util::put_leb128(out_, zeros_);
    util::put_leb128(out_, static_cast<std::uint64_t>(run_.size()));
    for (const T value : run_) {
      if constexpr (std::is_integral_v<T>) {
        util::put_leb128(out_, static_cast<std::uint64_t>(value));
      } else {
        const std::size_t at = out_.size();
        out_.resize(at + sizeof(T));
        std::memcpy(out_.data() + at, &value, sizeof(T));
      }
    }
    zeros_ = 0;
    run_.clear();
  }

  std::vector<std::uint8_t>& out_;
  std::uint64_t zeros_ = 0;
  std::vector<T> run_;  ///< the open nonzero run
};

template <typename T>
[[nodiscard]] T read_value(util::Leb128Reader& in) {
  if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(in.read<std::uint64_t>());
  } else {
    T value;
    std::memcpy(&value, in.take(1, sizeof(T)).data(), sizeof(T));
    return value;
  }
}

[[noreturn]] inline void corrupt(const char* what) {
  throw error::CorruptInput(std::string("decode_block_message: ") + what);
}

/// A block range read from a message, checked against [0, extent).
[[nodiscard]] inline BlockRange read_range(util::Leb128Reader& in, std::int64_t extent) {
  const auto begin = in.read<std::uint64_t>();
  const auto size = in.read<std::uint64_t>();
  const auto limit = static_cast<std::uint64_t>(extent);
  if (begin > limit || size > limit - begin) corrupt("block outside the matrix");
  return {static_cast<std::int64_t>(begin), static_cast<std::int64_t>(begin + size)};
}

/// Does a block travel as its upper triangle? Only a square block on the
/// diagonal does.
[[nodiscard]] inline bool ships_triangle(BlockRange rows, BlockRange cols) noexcept {
  return rows.begin == cols.begin && rows.end == cols.end;
}

}  // namespace gather_detail

/// One rank's block message (see "The block message" above): a square
/// block on the diagonal ships its upper triangle.
/// Throws std::invalid_argument when a block is not inside its source.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encode_block_message(
    std::span<const GatherBlock<T>> blocks) {
  std::vector<std::uint8_t> out;
  util::put_leb128(out, static_cast<std::uint64_t>(blocks.size()));
  for (const GatherBlock<T>& block : blocks) {
    const DenseBlock<T>& source = *block.source;
    if (block.rows.begin < source.row_range.begin || block.rows.end < block.rows.begin ||
        block.rows.end > source.row_range.end || block.cols.begin < source.col_range.begin ||
        block.cols.end < block.cols.begin || block.cols.end > source.col_range.end) {
      throw std::invalid_argument("encode_block_message: block outside its source");
    }
    for (const std::int64_t v : {block.rows.begin, block.rows.size(), block.cols.begin,
                                 block.cols.size()}) {
      util::put_leb128(out, static_cast<std::uint64_t>(v));
    }
  }
  for (const GatherBlock<T>& block : blocks) {
    gather_detail::RunWriter<T> writer(out);
    const bool triangle = gather_detail::ships_triangle(block.rows, block.cols);
    const std::int64_t col0 = block.cols.begin - block.source->col_range.begin;
    for (std::int64_t i = block.rows.begin; i < block.rows.end; ++i) {
      const T* row = block.source->row_data(i - block.source->row_range.begin) + col0;
      for (std::int64_t j = triangle ? i - block.rows.begin : 0; j < block.cols.size(); ++j) {
        writer.add(row[j]);
      }
    }
    writer.finish();
  }
  return out;
}

/// Decode one rank's block message into `out`, the n×n row-major
/// matrix: out(i, j) = finalize(i, j, value) for every cell of every
/// block, and out(j, i) the same value unless the block holds (j, i)
/// itself — a square block on the diagonal holds its upper triangle, each
/// of whose cells is written at both (i, j) and (j, i). Throws
/// error::CorruptInput on a damaged message (a truncation, a block
/// outside the matrix, a run past its block's or triangle's cells) and
/// std::invalid_argument when `out` is not n×n. Whatever it accepts
/// writes only inside `out`.
template <typename T, typename Out, typename Finalize>
void decode_block_message(std::span<const std::uint8_t> message, std::int64_t n,
                          Finalize&& finalize, std::span<Out> out) {
  if (n < 0 || out.size() != static_cast<std::size_t>(n * n)) {
    throw std::invalid_argument("decode_block_message: bad output matrix");
  }
  util::Leb128Reader in(message, "decode_block_message");
  // A block's header takes at least 4 bytes, which bounds the count
  // before anything is sized by it.
  const auto count = in.read<std::uint64_t>();
  if (count > message.size() / 4) gather_detail::corrupt("more blocks than the message holds");
  std::vector<std::pair<BlockRange, BlockRange>> blocks;
  blocks.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t b = 0; b < count; ++b) {
    const BlockRange block_rows = gather_detail::read_range(in, n);
    blocks.emplace_back(block_rows, gather_detail::read_range(in, n));
  }
  for (const auto& [block_rows, block_cols] : blocks) {
    const bool triangle = gather_detail::ships_triangle(block_rows, block_cols);
    // The cursor (i, j) walks the block's cells in row-major order, a
    // triangle's row i from column i.
    std::int64_t i = block_rows.begin;
    std::int64_t j = block_cols.begin;
    const auto write = [&](std::uint64_t cells, auto next_value) {
      while (cells > 0) {
        const std::int64_t len =
            std::min(static_cast<std::int64_t>(cells), block_cols.end - j);
        Out* const row = out.data() + i * n;
        for (const std::int64_t end = j + len; j < end; ++j) {
          row[j] = finalize(i, j, next_value());
          if (triangle) out[static_cast<std::size_t>(j * n + i)] = row[j];
        }
        cells -= static_cast<std::uint64_t>(len);
        if (j == block_cols.end) {
          ++i;
          j = triangle ? i : block_cols.begin;
        }
      }
    };
    const auto m = static_cast<std::uint64_t>(block_rows.size());
    auto left = triangle ? m * (m + 1) / 2
                         : static_cast<std::uint64_t>(block_rows.size() * block_cols.size());
    while (left > 0) {
      const auto zeros = in.read<std::uint64_t>();
      if (zeros > left) gather_detail::corrupt("run past its block");
      const auto values = in.read<std::uint64_t>();
      if (values > left - zeros) gather_detail::corrupt("run past its block");
      if (zeros + values == 0) gather_detail::corrupt("empty run");
      write(zeros, [] { return T{}; });
      write(values, [&] { return gather_detail::read_value<T>(in); });
      left -= zeros + values;
    }
    if (triangle) continue;
    // The transpose goes in square tiles, so its strided side stays
    // cache-resident. A cell the block holds itself keeps its own value.
    constexpr std::int64_t kTile = 64;
    for (std::int64_t ib = block_rows.begin; ib < block_rows.end; ib += kTile) {
      for (std::int64_t jb = block_cols.begin; jb < block_cols.end; jb += kTile) {
        for (std::int64_t c = jb; c < std::min(jb + kTile, block_cols.end); ++c) {
          for (std::int64_t r = ib; r < std::min(ib + kTile, block_rows.end); ++r) {
            if (block_rows.contains(c) && block_cols.contains(r)) continue;
            out[static_cast<std::size_t>(c * n + r)] = out[static_cast<std::size_t>(r * n + c)];
          }
        }
      }
    }
  }
  if (!in.done()) gather_detail::corrupt("bytes past the last block");
}

/// Collective over `comm`: each rank ships its blocks of a symmetric n×n
/// product in one block message, and rank 0 writes finalize(i, j, value)
/// for each of their cells into the n×n row-major matrix, at (j, i) too
/// unless the block holds that cell. So the blocks need cover only one
/// triangle (the ring and SUMMA shares), and a square block on the
/// diagonal ships only its upper triangle. Cells no block covers stay
/// value-initialized; blocks must not overlap unless they agree. Returns
/// the matrix on rank 0 and an empty vector elsewhere. Throws
/// error::CorruptInput on a damaged message.
template <typename T, typename Finalize = KeepValue>
[[nodiscard]] auto gather_blocks_to_root(bsp::Comm& comm,
                                         std::span<const GatherBlock<T>> blocks,
                                         std::int64_t n, Finalize finalize = {}) {
  using Out = std::invoke_result_t<Finalize&, std::int64_t, std::int64_t, T>;
  const std::vector<std::uint8_t> message = encode_block_message(blocks);
  const auto messages = comm.gather_v<std::uint8_t>(std::span<const std::uint8_t>(message), 0);
  std::vector<Out> full;
  if (comm.rank() != 0) return full;
  full.assign(static_cast<std::size_t>(n * n), Out{});
  for (const std::vector<std::uint8_t>& received : messages) {
    decode_block_message<T>(received, n, finalize, std::span<Out>(full));
  }
  return full;
}

/// Collective over `comm`: gather each rank's (i, j, value) triplets of
/// the n×n matrix's upper triangle on rank 0, merged into (row, col)
/// order. Contributions must cover disjoint pairs (the for_each_pair_in
/// block walk guarantees this). The triplets arrived over the wire, so a
/// pair outside 0 ≤ row < col < n or a duplicate throws
/// error::CorruptInput. Returns the merged triplets on rank 0 and an
/// empty vector elsewhere.
template <typename T>
[[nodiscard]] std::vector<Triplet<T>> gather_triplets_to_root(bsp::Comm& comm,
                                                              std::vector<Triplet<T>> mine,
                                                              std::int64_t n) {
  static_assert(std::is_trivially_copyable_v<Triplet<T>>);
  auto blocks = comm.gather_v<Triplet<T>>(std::span<const Triplet<T>>(mine), 0);
  if (comm.rank() != 0) return {};
  std::size_t total = 0;
  for (const auto& block : blocks) total += block.size();
  std::vector<Triplet<T>> merged;
  merged.reserve(total);
  for (auto& block : blocks) {
    for (const Triplet<T>& t : block) {
      if (t.row < 0 || t.row >= t.col || t.col >= n) {
        throw error::CorruptInput("gather_triplets_to_root: pair outside 0 <= row < col < n");
      }
    }
    merged.insert(merged.end(), block.begin(), block.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Triplet<T>& a, const Triplet<T>& b) { return triplet_order(a, b); });
  for (std::size_t s = 1; s < merged.size(); ++s) {
    if (merged[s].row == merged[s - 1].row && merged[s].col == merged[s - 1].col) {
      throw error::CorruptInput("gather_triplets_to_root: duplicate pair");
    }
  }
  return merged;
}

}  // namespace sas::distmat
