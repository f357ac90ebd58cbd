#include "distmat/dist_filter.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <span>
#include <string>

#include "distmat/block.hpp"
#include "distmat/panel_wire.hpp"
#include "util/error.hpp"
#include "util/leb128.hpp"

namespace sas::distmat {

namespace {

/// A sorted, unique index list within [0, extent) as one message: the
/// set-bit code, or raw 8-byte words.
std::vector<std::uint8_t> encode_indices(std::span<const std::int64_t> sorted,
                                         std::int64_t extent, bool compress) {
  if (compress) return encode_index_set(sorted, extent);
  std::vector<std::uint8_t> bytes(sorted.size_bytes());
  if (!sorted.empty()) std::memcpy(bytes.data(), sorted.data(), bytes.size());
  return bytes;
}

/// Inverse of encode_indices. Throws error::CorruptInput unless the
/// message holds a sorted, unique index list within [0, extent).
std::vector<std::int64_t> decode_indices(std::span<const std::uint8_t> bytes,
                                         std::int64_t extent, bool compress) {
  if (compress) return decode_index_set(bytes, extent);
  if (bytes.size() % sizeof(std::int64_t) != 0) {
    throw error::CorruptInput("dist_filter: truncated raw index list");
  }
  std::vector<std::int64_t> indices(bytes.size() / sizeof(std::int64_t));
  if (!indices.empty()) std::memcpy(indices.data(), bytes.data(), bytes.size());
  std::int64_t next = 0;
  for (const std::int64_t index : indices) {
    if (index < next || index >= extent) {
      throw error::CorruptInput("dist_filter: raw indices must ascend within " +
                                std::to_string(extent));
    }
    next = index + 1;
  }
  return indices;
}

}  // namespace

CompactedRows compact_filter_rows(bsp::Comm& comm, std::span<const std::int64_t> rows,
                                  std::int64_t universe, bool compress) {
  const int p = comm.size();
  const auto owners = static_cast<std::size_t>(p);
  // (1) Contributions: owners hold increasing blocks and `rows` ascends,
  // so each owner's rows are the next slice, shifted to its block.
  std::vector<std::vector<std::uint8_t>> outgoing(owners);
  std::vector<std::size_t> sent_to(owners);
  std::vector<std::int64_t> local;
  auto next = rows.begin();
  for (int q = 0; q < p; ++q) {
    const BlockRange range = block_range(universe, p, q);
    for (local.clear(); next != rows.end() && *next < range.end; ++next) {
      local.push_back(*next - range.begin);
    }
    sent_to[static_cast<std::size_t>(q)] = local.size();
    outgoing[static_cast<std::size_t>(q)] = encode_indices(local, range.size(), compress);
  }
  const auto contributions = comm.alltoall_v(outgoing);

  // (2) Owner side: dedup into owned_q — the (max,×) accumulation of the
  // paper's write() — and answer each rank with |owned_q| and the
  // positions of its rows there.
  const BlockRange mine = block_range(universe, p, comm.rank());
  std::vector<std::vector<std::int64_t>> sent(owners);
  std::vector<std::int64_t> owned;
  std::vector<std::int64_t> merged;
  for (std::size_t r = 0; r < owners; ++r) {
    sent[r] = decode_indices(contributions[r], mine.size(), compress);
    merged.clear();
    std::set_union(owned.begin(), owned.end(), sent[r].begin(), sent[r].end(),
                   std::back_inserter(merged));
    owned.swap(merged);
  }
  for (std::size_t r = 0; r < owners; ++r) {
    std::size_t position = 0;
    for (std::int64_t& row : sent[r]) {
      while (owned[position] != row) ++position;
      row = static_cast<std::int64_t>(position);
    }
    outgoing[r] = encode_filter_reply(static_cast<std::int64_t>(owned.size()), sent[r],
                                      compress);
  }
  const auto replies = comm.alltoall_v(outgoing);

  // (3) The prefix sum of the owners' counts places each owner's block.
  CompactedRows out;
  out.ids.reserve(rows.size());
  for (std::size_t q = 0; q < owners; ++q) {
    const FilterReply reply = decode_filter_reply(
        replies[q], block_range(universe, p, static_cast<int>(q)).size(), sent_to[q], compress);
    for (const std::int64_t position : reply.positions) {
      out.ids.push_back(out.filtered_rows + position);
    }
    out.filtered_rows += reply.count;
  }
  return out;
}

std::vector<std::uint8_t> encode_filter_reply(std::int64_t count,
                                              std::span<const std::int64_t> positions,
                                              bool compress) {
  std::vector<std::uint8_t> bytes;
  if (compress) {
    util::put_leb128(bytes, static_cast<std::uint64_t>(count));
  } else {
    bytes.resize(sizeof count);
    std::memcpy(bytes.data(), &count, sizeof count);
  }
  const std::vector<std::uint8_t> body = encode_indices(positions, count, compress);
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

FilterReply decode_filter_reply(std::span<const std::uint8_t> bytes, std::int64_t owner_rows,
                                std::size_t sent, bool compress) {
  std::uint64_t count = 0;
  std::span<const std::uint8_t> body;
  if (compress) {
    util::Leb128Reader in(bytes, "decode_filter_reply");
    count = in.read<std::uint64_t>();
    body = in.rest();
  } else if (bytes.size() >= sizeof count) {
    std::memcpy(&count, bytes.data(), sizeof count);
    body = bytes.subspan(sizeof count);
  } else {
    throw error::CorruptInput("decode_filter_reply: truncated count");
  }
  if (count > static_cast<std::uint64_t>(owner_rows)) {
    throw error::CorruptInput("decode_filter_reply: count " + std::to_string(count) +
                              " exceeds the owner's " + std::to_string(owner_rows) + " rows");
  }
  FilterReply reply{static_cast<std::int64_t>(count), {}};
  reply.positions = decode_indices(body, reply.count, compress);
  if (reply.positions.size() != sent) {
    throw error::CorruptInput("decode_filter_reply: " + std::to_string(reply.positions.size()) +
                              " positions for " + std::to_string(sent) + " rows sent");
  }
  return reply;
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

}  // namespace sas::distmat
