// dist_filter.hpp — distributed work filters: the zero-row filter f⁽ˡ⁾
// (paper Eq. 5) and the hybrid's candidate-pair mask union.
//
// Zero-row filter: every rank sends its sorted, distinct observed rows to
// their row-block owners in one all-to-all, and each owner q dedups them
// into its block of the filter, owned_q (the (max,×) semiring write of
// §IV-A). The paper then "proceeds by collecting the sparse vector f on
// all processors, and performing a local prefix sum" (Eq. 6). This
// engine departs from that: no rank holds the whole filter. Each owner
// evaluates Eq. 6 for its block instead and, in a second all-to-all,
// replies to every rank r with |owned_q| and the positions of r's rows
// within owned_q. From the p counts every rank gets the offset of each
// block (the counts before it) and the filter's size (their sum); a row's
// compacted id is its owner's offset plus its position.
//
// == Reply bytes, not replication bytes ===================================
//
// Collecting f everywhere ships p − 1 copies of the whole filter per
// batch, as row indices. A reply carries only the receiver's own rows, as
// positions in [0, |owned_q|), plus the count: `families-hybrid`'s
// replication allgather was 37.2 MB a run, its replies are 1.5 MB. Every
// reply carries its count, so none is empty, and each rank sends and
// receives p − 1 of them, as it did in the allgather.
//
// With compression (the default, Config::compress_filter) a contribution
// and a reply's positions travel as one-row messages of the set-bit wire
// code (panel_wire.hpp's encode_index_set), the code the exact
// pipeline's panels use, and the count leads the reply as a LEB128
// varint. The encoder picks per list the smaller of word runs (a dense
// list costs about a bit per row) and LEB128 gaps (the hypersparse
// winner: k-mer universes of ~4^21 rows leave gaps of ~10^7, about 4
// bytes per row instead of 8). Without it, contributions are raw 8-byte
// rows and replies raw 8-byte [count, positions…]. The ids are identical
// either way (tested); only the wire bytes move.
//
// Pair-mask union: the pair-space analogue for the hybrid estimator —
// each rank keeps the candidate pairs it scored above the threshold, and
// allreduce_pair_union replicates the union of those packed pair lists so
// every rank can prune columns, exchanges, and kernel tiles against the
// same candidate set (pair_mask.hpp). The allgather ships 8 bytes per
// kept pair, so the bytes follow the survivor count, not n².
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm.hpp"

namespace sas::distmat {

/// One rank's rows of the zero-row filter, compacted (Eq. 6).
struct CompactedRows {
  /// ids[i] is the compacted id of the i-th row the rank contributed.
  std::vector<std::int64_t> ids;
  /// |f|: the rows surviving the filter over all ranks.
  std::int64_t filtered_rows = 0;
};

/// Collective zero-row filter over `comm`. `rows` is this rank's SORTED,
/// UNIQUE row offsets in [0, universe), which defines block ownership.
/// `compress` ships contributions and replies in the set-bit wire code
/// (see the reply-bytes note above); the ids are identical either way.
/// Throws error::CorruptInput when a reply fails decode_filter_reply.
[[nodiscard]] CompactedRows compact_filter_rows(bsp::Comm& comm,
                                                std::span<const std::int64_t> rows,
                                                std::int64_t universe, bool compress = true);

/// One owner's reply to one rank: |owned_q| and the positions, ascending,
/// of the rank's rows within owned_q.
struct FilterReply {
  std::int64_t count = 0;
  std::vector<std::int64_t> positions;
};

/// The reply message of an owner of `count` rows: the count, then
/// `positions`, which must be SORTED, UNIQUE and within [0, count) (the
/// compressed form throws std::invalid_argument otherwise).
[[nodiscard]] std::vector<std::uint8_t> encode_filter_reply(
    std::int64_t count, std::span<const std::int64_t> positions, bool compress = true);

/// Inverse of encode_filter_reply for the reply of an owner whose row
/// block holds `owner_rows` rows to a rank that sent it `sent` rows.
/// Throws error::CorruptInput on a malformed message, a count above
/// `owner_rows`, a position at or past the count, positions that do not
/// ascend, or a number of positions other than `sent`: the bytes arrived
/// over the wire.
[[nodiscard]] FilterReply decode_filter_reply(std::span<const std::uint8_t> bytes,
                                              std::int64_t owner_rows, std::size_t sent,
                                              bool compress = true);

/// Collective union-merge of packed candidate pairs
/// (CandidateMask::pack_pair format): returns the sorted, deduplicated
/// union of all ranks' lists, replicated on every rank. `mine` need not
/// be sorted. Bytes scale with the pair count, not with n².
[[nodiscard]] std::vector<std::uint64_t> allreduce_pair_union(
    bsp::Comm& comm, std::vector<std::uint64_t> mine);

}  // namespace sas::distmat
