// panel_wire.hpp — the compact wire form of bit-packed panel entries.
//
// Every exchange of the exact pipeline moves bit-packed entries
// (word-row, sample, 64-bit mask): the driver's redistribution alltoall
// (redistribute.hpp), the ring hops, SUMMA's transposes and broadcasts,
// and the hybrid's targeted alltoall (spgemm.hpp). In memory an entry is
// a 24-byte Triplet, 16 bytes of it coordinates, and its mask is nearly
// empty. On the wire a panel is therefore coded by its set bits:
//
//   one mode byte, then
//   * kRowMajor / kColMajor: for each major coordinate in ascending
//     order (the row of a canonical row-major panel, the column of a
//     pack's column-major bucket), the LEB128 gap to it from the
//     previous major + 1 (the first major is its own gap), then the
//     LEB128 gaps between its set-bit positions minor · 64 + bit (the
//     first from −1, so every gap is ≥ 1), ended by a 0 byte;
//   * raw: the entries' 24-byte Triplets verbatim, in the same order —
//     a size guard, chosen only when that is smaller (masks so dense
//     that a byte per set bit costs more than 24 per entry), so no
//     message is ever longer than 1 + 24 · nnz bytes.
//
// Every mask the pipeline ships has a set bit (pack_batch emits no empty
// mask and the OR-merge keeps them nonzero); the encoder rejects an
// empty one.
//
// An empty panel is an empty message. The code is lossless: a decoded
// panel equals the encoded one entry for entry. Positions reach
// minor · 64 + 63, past int64 for word-rows near 4³¹ (b = 1 with no row
// filter at k = 31), so past minor 2⁵⁷ they are formed in 128-bit
// arithmetic (64-bit below it) and a varint is at most 10 bytes. The
// varints are util/leb128.hpp's, shared with the filter union's index
// sets.
//
// The decoders take the receiver's extents and throw error::CorruptInput
// on an unknown mode, truncation, a runaway varint, a major with no set
// bit, a raw body out of order, or any coordinate outside the extents:
// whatever a damaged message decodes to is a canonical panel inside the
// box the receiver indexes with.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "distmat/block.hpp"
#include "distmat/csr.hpp"
#include "distmat/triplet.hpp"

namespace sas::distmat {

/// Which coordinate groups a panel message: its row (a canonical
/// SparseBlock panel) or its column (pack_batch's buckets).
enum class PanelOrder : std::uint8_t { kRowMajor, kColMajor };

/// The box a received panel must lie in: global rows × global cols.
/// Decoded coordinates are relative to (rows.begin, cols.begin).
struct PanelExtents {
  BlockRange rows;
  BlockRange cols;
};

/// Streaming encoder of one panel message. Entries must arrive strictly
/// ascending in the encoder's order with non-negative coordinates and a
/// nonzero mask (a canonical panel, or a column-major pack bucket); add
/// throws std::invalid_argument otherwise.
class PanelEncoder {
 public:
  explicit PanelEncoder(PanelOrder order) : order_(order) {}

  void add(const Triplet<std::uint64_t>& entry);

  /// The finished message: the coded form, or the raw one when that is
  /// smaller; empty for an empty panel.
  [[nodiscard]] std::vector<std::uint8_t> finish() &&;

 private:
  PanelOrder order_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t count_ = 0;
  std::int64_t major_ = -1;
  std::int64_t minor_ = -1;
  unsigned __int128 next_position_ = 0;  ///< last position + 1 in the major
};

/// Encode the entries of `entries` that `keep` accepts.
template <typename Keep>
[[nodiscard]] std::vector<std::uint8_t> encode_panel(
    std::span<const Triplet<std::uint64_t>> entries, PanelOrder order, Keep keep) {
  PanelEncoder encoder(order);
  for (const Triplet<std::uint64_t>& t : entries) {
    if (keep(t)) encoder.add(t);
  }
  return std::move(encoder).finish();
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_panel(
    std::span<const Triplet<std::uint64_t>> entries, PanelOrder order) {
  return encode_panel(entries, order, [](const Triplet<std::uint64_t>&) { return true; });
}

/// Decode a row-major message straight into the kernel's operand: a
/// CsrPanel of extents.rows.size() word-rows holding the columns
/// `keep_cols` (extent-relative) of the panel, renumbered from
/// keep_cols.begin. Throws error::CorruptInput on a malformed message.
[[nodiscard]] CsrPanel decode_panel(std::span<const std::uint8_t> bytes,
                                    PanelExtents extents, BlockRange keep_cols);

/// decode_panel keeping every column of the extents.
[[nodiscard]] CsrPanel decode_panel(std::span<const std::uint8_t> bytes,
                                    PanelExtents extents);

/// decode_panel with the panel's height cut to its occupied word-rows:
/// the last one + 1, 0 for an empty panel. SUMMA decodes its stage
/// panels this way, because the kernel sizes its densified operand
/// (CsrPanel::dense_columns) and its dense-path decision by that height.
[[nodiscard]] CsrPanel decode_tight_panel(std::span<const std::uint8_t> bytes,
                                          PanelExtents extents);

/// Decode a message of either order, appending its entries, in the
/// message's order and relative to the extents, to `out`. Throws
/// error::CorruptInput on a malformed message.
void decode_panel_append(std::span<const std::uint8_t> bytes, PanelOrder order,
                         PanelExtents extents, std::vector<Triplet<std::uint64_t>>& out);

}  // namespace sas::distmat
