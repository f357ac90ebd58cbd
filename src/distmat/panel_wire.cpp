#include "distmat/panel_wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/error.hpp"
#include "util/leb128.hpp"

namespace sas::distmat {

namespace {

using u128 = unsigned __int128;

/// Mode bytes.
constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeRowMajor = 1;
constexpr std::uint8_t kModeColMajor = 2;

constexpr std::size_t kRawEntryBytes = sizeof(Triplet<std::uint64_t>);

/// Below this minor coordinate a position (minor · 64 + bit) + 1 fits in
/// 63 bits, so the codec runs its 64-bit path; past it, 128-bit.
constexpr std::int64_t kNarrowMinors = std::int64_t{1} << 57;

[[nodiscard]] std::uint8_t coded_mode(PanelOrder order) noexcept {
  return order == PanelOrder::kRowMajor ? kModeRowMajor : kModeColMajor;
}

/// An entry's (major, minor) coordinates in `order`.
struct Key {
  std::int64_t major;
  std::int64_t minor;
};

[[nodiscard]] Key key_of(const Triplet<std::uint64_t>& t, PanelOrder order) noexcept {
  return order == PanelOrder::kRowMajor ? Key{t.row, t.col} : Key{t.col, t.row};
}

void put_raw(std::vector<std::uint8_t>& out, const Triplet<std::uint64_t>& t) {
  const std::size_t at = out.size();
  out.resize(at + kRawEntryBytes);
  std::memcpy(out.data() + at, &t, kRawEntryBytes);
}

/// An upper bound on a message's entries, to size the output once: raw
/// entries exactly, coded ones by their varints (each entry has at least
/// one, and each varint ends in a byte below 0x80).
[[nodiscard]] std::size_t entry_bound(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return 0;
  if (bytes[0] == kModeRaw) return (bytes.size() - 1) / kRawEntryBytes;
  return static_cast<std::size_t>(std::count_if(bytes.begin() + 1, bytes.end(),
                                                [](std::uint8_t b) { return b < 0x80; }));
}

[[noreturn]] void outside_extents() {
  throw error::CorruptInput("decode_panel: coordinate outside the receiver's panel");
}

/// The coded body of one message: emit(major, minor, mask) per entry.
/// Positions are `Pos` arithmetic, std::uint64_t when minors.end ≤
/// kNarrowMinors.
template <typename Pos, typename Emit>
void decode_coded(util::Leb128Reader& in, BlockRange majors, BlockRange minors, Emit& emit) {
  // Set-bit positions of a major lie in [lowest, past_highest); `next` is
  // the last position + 1, so the bounds read next ∈ (lowest, past_highest].
  const Pos lowest = static_cast<Pos>(minors.begin) << 6;
  const Pos past_highest = static_cast<Pos>(minors.end) << 6;
  std::int64_t prev_major = -1;
  while (!in.done()) {
    // prev_major < majors.end, so the admissible gap bound is >= 0.
    const auto major_gap = in.read<std::uint64_t>();
    if (major_gap >= static_cast<std::uint64_t>(majors.end - (prev_major + 1))) {
      outside_extents();
    }
    const std::int64_t major = prev_major + 1 + static_cast<std::int64_t>(major_gap);
    if (major < majors.begin) outside_extents();
    prev_major = major;

    Pos next = 0;
    std::int64_t minor = -1;
    std::uint64_t mask = 0;
    for (Pos gap = in.read<Pos>(); gap != 0; gap = in.read<Pos>()) {
      if (gap > past_highest - next) outside_extents();
      next += gap;
      if (next <= lowest) outside_extents();
      const Pos position = next - 1;
      const auto m = static_cast<std::int64_t>(position >> 6);
      if (m != minor) {
        if (minor >= 0) emit(major, minor, mask);
        minor = m;
        mask = 0;
      }
      mask |= std::uint64_t{1} << static_cast<int>(position & 63);
    }
    if (minor < 0) throw error::CorruptInput("decode_panel: coordinate with no set bit");
    emit(major, minor, mask);
  }
}

/// Decode one message, calling sink(row, col, mask) per entry in the
/// message's order with extent-relative coordinates.
template <typename Sink>
void decode_entries(std::span<const std::uint8_t> bytes, PanelOrder order,
                    PanelExtents extents, Sink&& sink) {
  if (extents.rows.begin < 0 || extents.rows.size() < 0 || extents.cols.begin < 0 ||
      extents.cols.size() < 0) {
    throw std::invalid_argument("decode_panel: invalid extents");
  }
  if (bytes.empty()) return;
  const bool row_major = order == PanelOrder::kRowMajor;
  const BlockRange majors = row_major ? extents.rows : extents.cols;
  const BlockRange minors = row_major ? extents.cols : extents.rows;
  const auto emit = [&](std::int64_t major, std::int64_t minor, std::uint64_t mask) {
    if (row_major) {
      sink(major - extents.rows.begin, minor - extents.cols.begin, mask);
    } else {
      sink(minor - extents.rows.begin, major - extents.cols.begin, mask);
    }
  };
  const std::uint8_t mode = bytes[0];
  const std::span<const std::uint8_t> body = bytes.subspan(1);

  if (mode == kModeRaw) {
    if (body.size() % kRawEntryBytes != 0) {
      throw error::CorruptInput("decode_panel: truncated raw entry");
    }
    Key prev{-1, -1};
    for (std::size_t at = 0; at < body.size(); at += kRawEntryBytes) {
      Triplet<std::uint64_t> t;
      std::memcpy(&t, body.data() + at, kRawEntryBytes);
      const Key key = key_of(t, order);
      if (!majors.contains(key.major) || !minors.contains(key.minor)) outside_extents();
      if (key.major < prev.major || (key.major == prev.major && key.minor <= prev.minor)) {
        throw error::CorruptInput("decode_panel: raw entries out of order");
      }
      prev = key;
      emit(key.major, key.minor, t.value);
    }
    return;
  }
  if (mode != coded_mode(order)) {
    throw error::CorruptInput("decode_panel: unexpected mode byte " + std::to_string(mode));
  }
  util::Leb128Reader in(body, "decode_panel");
  if (minors.end <= kNarrowMinors) {
    decode_coded<std::uint64_t>(in, majors, minors, emit);
  } else {
    decode_coded<u128>(in, majors, minors, emit);
  }
}

/// Extents that admit every non-negative coordinate (re-reading this
/// encoder's own output).
constexpr PanelExtents kUnbounded{{0, std::numeric_limits<std::int64_t>::max()},
                                  {0, std::numeric_limits<std::int64_t>::max()}};

}  // namespace

void PanelEncoder::add(const Triplet<std::uint64_t>& entry) {
  const Key key = key_of(entry, order_);
  if (key.major < 0 || key.minor < 0) {
    throw std::invalid_argument("PanelEncoder: negative coordinate");
  }
  if (key.major < major_ || (key.major == major_ && key.minor <= minor_)) {
    throw std::invalid_argument("PanelEncoder: entries out of order");
  }
  if (entry.value == 0) throw std::invalid_argument("PanelEncoder: empty mask");
  if (count_ == 0) bytes_.push_back(coded_mode(order_));
  ++count_;
  if (key.major != major_) {
    if (major_ >= 0) bytes_.push_back(0);  // end the previous major
    util::put_leb128(bytes_, static_cast<std::uint64_t>(key.major) -
                                 static_cast<std::uint64_t>(major_ + 1));
    major_ = key.major;
    next_position_ = 0;
  }
  minor_ = key.minor;
  if (key.minor < kNarrowMinors) {
    // Minors ascend within a major, so next_position_ fits 64 bits too.
    const auto base = static_cast<std::uint64_t>(key.minor) << 6;
    auto next = static_cast<std::uint64_t>(next_position_);
    for (std::uint64_t bits = entry.value; bits != 0; bits &= bits - 1) {
      const std::uint64_t position = base | static_cast<unsigned>(std::countr_zero(bits));
      util::put_leb128(bytes_, position + 1 - next);
      next = position + 1;
    }
    next_position_ = next;
    return;
  }
  const u128 base = static_cast<u128>(key.minor) << 6;
  for (std::uint64_t bits = entry.value; bits != 0; bits &= bits - 1) {
    const u128 position = base | static_cast<unsigned>(std::countr_zero(bits));
    util::put_leb128(bytes_, position + 1 - next_position_);
    next_position_ = position + 1;
  }
}

std::vector<std::uint8_t> PanelEncoder::finish() && {
  if (count_ == 0) return {};
  bytes_.push_back(0);  // end the last major
  if (bytes_.size() <= 1 + count_ * kRawEntryBytes) return std::move(bytes_);
  // The size guard: masks so dense that the raw entries are smaller. The
  // coded message decodes back losslessly.
  std::vector<std::uint8_t> raw(1, kModeRaw);
  raw.reserve(1 + count_ * kRawEntryBytes);
  decode_entries(bytes_, order_, kUnbounded,
                 [&](std::int64_t row, std::int64_t col, std::uint64_t mask) {
                   put_raw(raw, {row, col, mask});
                 });
  return raw;
}

CsrPanel decode_panel(std::span<const std::uint8_t> bytes, PanelExtents extents,
                      BlockRange keep_cols) {
  if (keep_cols.begin < 0 || keep_cols.end < keep_cols.begin ||
      keep_cols.end > extents.cols.size()) {
    throw std::invalid_argument("decode_panel: keep_cols outside the extents");
  }
  CsrPanel panel;
  panel.rows = extents.rows.size();
  panel.cols = keep_cols.size();
  const std::size_t bound = entry_bound(bytes);
  panel.col_idx.reserve(bound);
  panel.values.reserve(bound);
  decode_entries(bytes, PanelOrder::kRowMajor, extents,
                 [&](std::int64_t row, std::int64_t col, std::uint64_t mask) {
                   if (!keep_cols.contains(col)) return;
                   if (panel.row_ids.empty() || panel.row_ids.back() != row) {
                     panel.row_ids.push_back(row);
                     panel.row_ptr.push_back(static_cast<std::int64_t>(panel.col_idx.size()));
                   }
                   panel.col_idx.push_back(col - keep_cols.begin);
                   panel.values.push_back(mask);
                 });
  panel.row_ptr.push_back(static_cast<std::int64_t>(panel.col_idx.size()));
  return panel;
}

CsrPanel decode_panel(std::span<const std::uint8_t> bytes, PanelExtents extents) {
  return decode_panel(bytes, extents, {0, extents.cols.size()});
}

CsrPanel decode_tight_panel(std::span<const std::uint8_t> bytes, PanelExtents extents) {
  CsrPanel panel = decode_panel(bytes, extents);
  panel.rows = panel.row_ids.empty() ? 0 : panel.row_ids.back() + 1;
  return panel;
}

void decode_panel_append(std::span<const std::uint8_t> bytes, PanelOrder order,
                         PanelExtents extents, std::vector<Triplet<std::uint64_t>>& out) {
  const std::size_t need = out.size() + entry_bound(bytes);
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  decode_entries(bytes, order, extents,
                 [&](std::int64_t row, std::int64_t col, std::uint64_t mask) {
                   out.push_back({row, col, mask});
                 });
}

}  // namespace sas::distmat
