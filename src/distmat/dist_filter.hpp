// dist_filter.hpp — distributed work filters: the zero-row filter f⁽ˡ⁾
// (paper Eq. 5) and the hybrid's candidate-pair mask union.
//
// Zero-row filter: every rank contributes the row indices it observed
// nonzeros in; the union is formed with one all-to-all (block owners
// deduplicate — the (max,×) semiring write of §IV-A) and then replicated
// on all ranks, matching the paper's implementation choice: "our
// implementation then proceeds by collecting the sparse vector f on all
// processors, and performing a local prefix sum". The prefix sum is
// implicit in the sorted order: the compacted row id of global row g is
// its position in the returned sorted vector (Eq. 6).
//
// == Replication bytes ===================================================
//
// Replicating the union as raw 8-byte indices costs O(p · |union| · 8)
// bytes per batch — this was the hybrid's remaining byte floor after the
// targeted rescore exchange. With compression (the default,
// Config::compress_filter) every shipped index list — both the
// contribution all-to-all and the replication allgather — travels as a
// one-row message of the set-bit wire code (panel_wire.hpp's
// encode_index_set), the same code the exact pipeline's panels use. Its
// encoder picks per list the smaller of
//
//   * word runs: the 64-row bitmap words that hold a kept row, 8 bytes
//     each, with a varint header per run of consecutive words. A batch
//     that keeps most rows compresses toward 1 BIT per row (~64x below
//     the raw list);
//   * gaps: LEB128-coded gaps between consecutive indices — the
//     hypersparse winner (k-mer universes of ~4^21 rows leave gaps of
//     ~10^7: ~4 bytes per index instead of 8).
//
// Gaps past 2^56 rows cost 9–10 bytes per index, more than the 8 of the
// uncompressed list; that needs k ≥ 29 with one or two batches. Contents
// are identical either way (tested); only the wire bytes move.
//
// Pair-mask union: the pair-space analogue for the hybrid estimator —
// each rank keeps the candidate pairs it scored above the threshold, and
// allreduce_pair_union replicates the union of those packed pair lists so
// every rank can prune columns, exchanges, and kernel tiles against the
// same candidate set (pair_mask.hpp). The allgather ships 8 bytes per
// kept pair, so the bytes follow the survivor count, not n².
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm.hpp"

namespace sas::distmat {

/// Sorted union of all ranks' index lists, replicated on every rank.
/// `universe` bounds the index range and defines block ownership.
/// `compress` ships every index list in the compressed set encoding
/// (see the replication-bytes note above); the returned union is
/// identical either way.
[[nodiscard]] std::vector<std::int64_t> distributed_index_union(
    bsp::Comm& comm, std::span<const std::int64_t> mine, std::int64_t universe,
    bool compress = true);

/// Compacted id of `global_row` in the sorted filter (Eq. 6), i.e. the
/// prefix-sum p⁽ˡ⁾ evaluated at a nonzero row. Throws
/// error::CorruptInput when the row is absent: the union holds every row
/// a rank observed, so a filter without one arrived damaged.
[[nodiscard]] std::int64_t compact_row_id(std::span<const std::int64_t> sorted_filter,
                                          std::int64_t global_row);

/// Collective union-merge of packed candidate pairs
/// (CandidateMask::pack_pair format): returns the sorted, deduplicated
/// union of all ranks' lists, replicated on every rank. `mine` need not
/// be sorted. Bytes scale with the pair count, not with n².
[[nodiscard]] std::vector<std::uint64_t> allreduce_pair_union(
    bsp::Comm& comm, std::vector<std::uint64_t> mine);

}  // namespace sas::distmat
