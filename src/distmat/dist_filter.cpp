#include "distmat/dist_filter.hpp"

#include <algorithm>
#include <span>

#include "distmat/block.hpp"
#include "distmat/panel_wire.hpp"
#include "util/error.hpp"

namespace sas::distmat {

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
    // Compressed contributions: dedupe locally, then ship each block as a
    // set-bit message relative to its owner's range.
    std::vector<std::vector<std::uint8_t>> packed(static_cast<std::size_t>(p));
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
      const auto decoded = decode_index_set(block, my_range.size());
      owned.insert(owned.end(), decoded.begin(), decoded.end());
    }
    std::sort(owned.begin(), owned.end());
    owned.erase(std::unique(owned.begin(), owned.end()), owned.end());

    // Compressed replication: each owner's set travels once per hop of
    // the ring allgather in the same code — the O(p · |union|) raw word
    // cost becomes O(p · encoded), about a bit per kept row on dense
    // batches.
    const std::vector<std::uint8_t> mine_encoded =
        encode_index_set(std::span<const std::int64_t>(owned), my_range.size());
    const auto gathered = comm.allgather_v<std::uint8_t>(mine_encoded);
    std::vector<std::int64_t> result;
    for (int q = 0; q < p; ++q) {
      const BlockRange range = block_range(universe, p, q);
      const auto decoded =
          decode_index_set(gathered[static_cast<std::size_t>(q)], range.size());
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
    throw error::CorruptInput("compact_row_id: row not present in filter");
  }
  return static_cast<std::int64_t>(it - sorted_filter.begin());
}

}  // namespace sas::distmat
