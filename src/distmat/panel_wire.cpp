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
constexpr std::uint8_t kModeRuns = 0;
constexpr std::uint8_t kModeGaps = 1;

constexpr std::size_t kMaskBytes = sizeof(std::uint64_t);

/// Below this minor coordinate a position (minor · 64 + bit) + 1 fits in
/// 63 bits, so the codec runs its 64-bit path; past it, 128-bit.
constexpr std::int64_t kNarrowMinors = std::int64_t{1} << 57;

/// An entry's (major, minor) coordinates in `order`.
struct Key {
  std::int64_t major;
  std::int64_t minor;
};

[[nodiscard]] Key key_of(const Triplet<std::uint64_t>& t, PanelOrder order) noexcept {
  return order == PanelOrder::kRowMajor ? Key{t.row, t.col} : Key{t.col, t.row};
}

/// An upper bound on a message's entries, to size the output once: word
/// runs by their masks, gaps by their varints (each entry has at least
/// one, and each varint ends in a byte below 0x80).
[[nodiscard]] std::size_t entry_bound(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return 0;
  if (bytes[0] == kModeRuns) return (bytes.size() - 1) / kMaskBytes;
  return static_cast<std::size_t>(std::count_if(bytes.begin() + 1, bytes.end(),
                                                [](std::uint8_t b) { return b < 0x80; }));
}

[[noreturn]] void outside_extents() {
  throw error::CorruptInput("decode_panel: coordinate outside the receiver's panel");
}

[[noreturn]] void no_set_bit() {
  throw error::CorruptInput("decode_panel: coordinate with no set bit");
}

/// The next major coordinate, coded as its gap from prev_major + 1.
[[nodiscard]] std::int64_t read_major(util::Leb128Reader& in, BlockRange majors,
                                      std::int64_t prev_major) {
  // prev_major < majors.end, so the admissible gap bound is >= 0.
  const auto gap = in.read<std::uint64_t>();
  if (gap >= static_cast<std::uint64_t>(majors.end - (prev_major + 1))) outside_extents();
  const std::int64_t major = prev_major + 1 + static_cast<std::int64_t>(gap);
  if (major < majors.begin) outside_extents();
  return major;
}

/// The gap-coded body of one message: emit(major, minor, mask) per entry.
/// Positions are `Pos` arithmetic, std::uint64_t when minors.end ≤
/// kNarrowMinors.
template <typename Pos, typename Emit>
void decode_gaps(util::Leb128Reader& in, BlockRange majors, BlockRange minors, Emit& emit) {
  // Set-bit positions of a major lie in [lowest, past_highest); `next` is
  // the last position + 1, so the bounds read next ∈ (lowest, past_highest].
  const Pos lowest = static_cast<Pos>(minors.begin) << 6;
  const Pos past_highest = static_cast<Pos>(minors.end) << 6;
  for (std::int64_t major = -1; !in.done();) {
    major = read_major(in, majors, major);
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
    if (minor < 0) no_set_bit();
    emit(major, minor, mask);
  }
}

/// The word-run body of one message: emit(major, minor, mask) per entry.
template <typename Emit>
void decode_runs(util::Leb128Reader& in, BlockRange majors, BlockRange minors, Emit& emit) {
  for (std::int64_t major = -1; !in.done();) {
    major = read_major(in, majors, major);
    auto count = in.read<std::uint64_t>();
    if (count == 0) no_set_bit();
    // `end` is the previous run's end, at most minors.end, so both bounds
    // below are >= 0.
    for (std::int64_t end = 0; count != 0; count = in.read<std::uint64_t>()) {
      const auto skip = in.read<std::uint64_t>();
      if (skip >= static_cast<std::uint64_t>(minors.end - end)) outside_extents();
      const std::int64_t first = end + static_cast<std::int64_t>(skip);
      if (first < minors.begin || count > static_cast<std::uint64_t>(minors.end - first)) {
        outside_extents();
      }
      const std::span<const std::uint8_t> masks = in.take(count, kMaskBytes);
      for (std::uint64_t k = 0; k < count; ++k) {
        std::uint64_t mask = 0;
        std::memcpy(&mask, masks.data() + k * kMaskBytes, kMaskBytes);
        if (mask == 0) throw error::CorruptInput("decode_panel: empty mask");
        emit(major, first + static_cast<std::int64_t>(k), mask);
      }
      end = first + static_cast<std::int64_t>(count);
    }
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
  util::Leb128Reader in(bytes.subspan(1), "decode_panel");
  if (mode == kModeRuns) {
    decode_runs(in, majors, minors, emit);
  } else if (mode != kModeGaps) {
    throw error::CorruptInput("decode_panel: unexpected mode byte " + std::to_string(mode));
  } else if (minors.end <= kNarrowMinors) {
    decode_gaps<std::uint64_t>(in, majors, minors, emit);
  } else {
    decode_gaps<u128>(in, majors, minors, emit);
  }
}

/// Extents that admit every non-negative coordinate (re-reading this
/// encoder's own gap code).
constexpr PanelExtents kUnbounded{{0, std::numeric_limits<std::int64_t>::max()},
                                  {0, std::numeric_limits<std::int64_t>::max()}};

/// Writes the word-run form of entries arriving in message order.
class RunWriter {
 public:
  explicit RunWriter(std::size_t size) {
    out_.reserve(size);
    out_.push_back(kModeRuns);
  }

  void add(std::int64_t major, std::int64_t minor, std::uint64_t mask) {
    if (major != major_) {
      end_run();
      if (major_ >= 0) out_.push_back(0);  // end the previous major
      util::put_leb128(out_, static_cast<std::uint64_t>(major - (major_ + 1)));
      major_ = major;
      end_ = 0;
    } else if (minor != start_ + static_cast<std::int64_t>(run_.size())) {
      end_run();
    }
    if (run_.empty()) start_ = minor;
    run_.push_back(mask);
  }

  [[nodiscard]] std::vector<std::uint8_t> finish() && {
    end_run();
    out_.push_back(0);  // end the last major
    return std::move(out_);
  }

 private:
  void end_run() {
    if (run_.empty()) return;
    util::put_leb128(out_, run_.size());
    util::put_leb128(out_, static_cast<std::uint64_t>(start_ - end_));
    const std::size_t at = out_.size();
    out_.resize(at + run_.size() * kMaskBytes);
    std::memcpy(out_.data() + at, run_.data(), run_.size() * kMaskBytes);
    end_ = start_ + static_cast<std::int64_t>(run_.size());
    run_.clear();
  }

  std::vector<std::uint8_t> out_;
  std::vector<std::uint64_t> run_;  ///< the open run's masks
  std::int64_t major_ = -1;
  std::int64_t start_ = 0;  ///< the open run's first minor
  std::int64_t end_ = 0;    ///< the previous run's end in this major
};

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
  if (bytes_.empty()) {
    bytes_.push_back(kModeGaps);
    runs_floor_ = 1;
  }
  if (key.major != major_) {
    if (major_ >= 0) bytes_.push_back(0);  // end the previous major
    const std::uint64_t major_gap =
        static_cast<std::uint64_t>(key.major) - static_cast<std::uint64_t>(major_ + 1);
    util::put_leb128(bytes_, major_gap);
    // Its gap and 0 count, as in the gap code, and its first run's count
    // and skip.
    runs_floor_ += util::leb128_bytes(major_gap) + 1 + 2;
    major_ = key.major;
    next_position_ = 0;
  }
  runs_floor_ += kMaskBytes;
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
  if (bytes_.empty()) return {};
  bytes_.push_back(0);  // end the last major
  if (bytes_.size() > runs_floor_) {
    // Masks dense enough that word runs may be smaller: write them from
    // the gap code, which decodes back losslessly, and send the smaller
    // form. The writer reserves the floor, which is below their size,
    // not the gap code's larger one.
    RunWriter writer(static_cast<std::size_t>(runs_floor_));
    const bool row_major = order_ == PanelOrder::kRowMajor;
    decode_entries(bytes_, order_, kUnbounded,
                   [&](std::int64_t row, std::int64_t col, std::uint64_t mask) {
                     if (row_major) {
                       writer.add(row, col, mask);
                     } else {
                       writer.add(col, row, mask);
                     }
                   });
    std::vector<std::uint8_t> runs = std::move(writer).finish();
    if (runs.size() < bytes_.size()) bytes_ = std::move(runs);
  }
  return std::move(bytes_);
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

CsrPanel decode_tight_panel(std::span<const std::uint8_t> bytes, PanelExtents extents,
                            BlockRange keep_cols) {
  CsrPanel panel = decode_panel(bytes, extents, keep_cols);
  panel.rows = panel.occupied_height();
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

std::vector<std::uint8_t> encode_index_set(std::span<const std::int64_t> sorted,
                                           std::int64_t extent) {
  PanelEncoder encoder(PanelOrder::kRowMajor);
  std::int64_t prev = -1;
  std::int64_t word = 0;
  std::uint64_t mask = 0;
  for (const std::int64_t index : sorted) {
    if (index <= prev || index >= extent) {
      throw std::invalid_argument("encode_index_set: need sorted unique in [0, extent)");
    }
    prev = index;
    if ((index >> 6) != word) {
      if (mask != 0) encoder.add({0, word, mask});
      word = index >> 6;
      mask = 0;
    }
    mask |= std::uint64_t{1} << (index & 63);
  }
  if (mask != 0) encoder.add({0, word, mask});
  return std::move(encoder).finish();
}

std::vector<std::int64_t> decode_index_set(std::span<const std::uint8_t> bytes,
                                           std::int64_t extent) {
  const std::int64_t words = extent / 64 + (extent % 64 != 0 ? 1 : 0);
  std::vector<std::int64_t> out;
  decode_entries(bytes, PanelOrder::kRowMajor, {{0, 1}, {0, words}},
                 [&](std::int64_t, std::int64_t col, std::uint64_t mask) {
                   for (; mask != 0; mask &= mask - 1) {
                     const std::int64_t index = col * 64 + std::countr_zero(mask);
                     if (index >= extent) {
                       throw error::CorruptInput("decode_index_set: index beyond extent");
                     }
                     out.push_back(index);
                   }
                 });
  return out;
}

}  // namespace sas::distmat
