#include "sketch/one_perm_minhash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace sas::sketch {

namespace {

// equal_registers reads packed lane l as the little-endian bytes at bit
// offset l·b; the persisted-blob format already assumes this byte order.
static_assert(std::endian::native == std::endian::little,
              "OPH wire payloads are little-endian words");

/// Range partition of the 64-bit hash space into `bins` equal intervals
/// (multiply-high, as in Rng::uniform — no modulo bias).
std::int64_t bin_of(std::uint64_t hash, std::int64_t bins) noexcept {
  return static_cast<std::int64_t>(
      (static_cast<unsigned __int128>(hash) * static_cast<std::uint64_t>(bins)) >> 64);
}

std::uint64_t register_mask(int bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// b-bit collision-bias correction of the raw match fraction.
double corrected_estimate(std::int64_t matches, std::int64_t bins, int bits) noexcept {
  const double collision = std::ldexp(1.0, -bits);
  const double frac = static_cast<double>(matches) / static_cast<double>(bins);
  const double j = (frac - collision) / (1.0 - collision);
  return std::clamp(j, 0.0, 1.0);
}

std::uint64_t params_word(std::int64_t bins, int bits) noexcept {
  return static_cast<std::uint64_t>(bins) | (static_cast<std::uint64_t>(bits) << 32);
}

/// Densified register lane l of a packed wire payload.
std::uint64_t packed_lane(std::span<const std::uint64_t> payload, std::int64_t lane,
                          int bits) noexcept {
  const std::int64_t bit = lane * bits;
  return (payload[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) & register_mask(bits);
}

/// Equal lanes among the first `lanes` native Lane-wide registers of two
/// payloads. memcpy through the object bytes is the aliasing-safe read;
/// compilers turn it into plain (vector) loads. The count runs in blocks
/// on a Lane-wide counter, so compares and counts share one vector lane
/// width (a 64-bit count would widen every compare); a block stays below
/// the counter's range.
template <typename Lane>
std::int64_t equal_native_lanes(const std::uint64_t* a, const std::uint64_t* b,
                                std::int64_t lanes) noexcept {
  constexpr std::int64_t kBlock = sizeof(Lane) == 1 ? 128 : 4096;
  constexpr auto kWidth = static_cast<std::int64_t>(sizeof(Lane));
  const auto* ab = reinterpret_cast<const unsigned char*>(a);
  const auto* bb = reinterpret_cast<const unsigned char*>(b);
  std::int64_t matches = 0;
  for (std::int64_t begin = 0; begin < lanes; begin += kBlock) {
    const std::int64_t end = std::min(lanes, begin + kBlock);
    Lane block_matches = 0;
    for (std::int64_t l = begin; l < end; ++l) {
      Lane x = 0;
      Lane y = 0;
      std::memcpy(&x, ab + l * kWidth, sizeof(Lane));
      std::memcpy(&y, bb + l * kWidth, sizeof(Lane));
      block_matches = static_cast<Lane>(block_matches + (x == y));
    }
    matches += static_cast<std::int64_t>(block_matches);
  }
  return matches;
}

/// Non-zero b-bit lanes of `x` (b ∈ {1, 2, 4}) as a word with only each
/// such lane's high bit set: the low b − 1 bits plus all-ones carry into
/// the high bit iff one of them is set (no carry crosses a lane), and
/// OR-ing x adds lanes whose high bit was already set.
std::uint64_t nonzero_lane_bits(std::uint64_t x, std::uint64_t high) noexcept {
  return (((x & ~high) + ~high) | x) & high;
}

/// Matching registers of two packed payloads of `bins` b-bit lanes — the
/// count the per-lane packed_lane loop would return, word-parallel.
/// Byte-multiple widths compare native lanes; narrower ones XOR whole
/// words and count the non-zero lanes, masking the last word's padding
/// (whatever bits a blob carries past its last lane never count).
std::int64_t equal_registers(std::span<const std::uint64_t> pa,
                             std::span<const std::uint64_t> pb, std::int64_t bins,
                             int bits) noexcept {
  switch (bits) {
    case 8:
      return equal_native_lanes<std::uint8_t>(pa.data(), pb.data(), bins);
    case 16:
      return equal_native_lanes<std::uint16_t>(pa.data(), pb.data(), bins);
    case 32:
      return equal_native_lanes<std::uint32_t>(pa.data(), pb.data(), bins);
    case 64:
      return equal_native_lanes<std::uint64_t>(pa.data(), pb.data(), bins);
    default:
      break;
  }
  // b ∈ {1, 2, 4}: `high` holds the top bit of every lane.
  const std::uint64_t high =
      ~std::uint64_t{0} / register_mask(bits) << (bits - 1);
  const std::int64_t total_bits = bins * bits;
  const auto full_words = static_cast<std::size_t>(total_bits >> 6);
  std::int64_t differing = 0;
  for (std::size_t w = 0; w < full_words; ++w) {
    differing += std::popcount(nonzero_lane_bits(pa[w] ^ pb[w], high));
  }
  if (const int tail = static_cast<int>(total_bits & 63); tail != 0) {
    const std::uint64_t lanes = (std::uint64_t{1} << tail) - 1;
    differing += std::popcount(
        nonzero_lane_bits(pa[full_words] ^ pb[full_words], high) & lanes);
  }
  return bins - differing;
}

void check_params(std::int64_t bins, int bits) {
  if (bins < 1) throw std::invalid_argument("OnePermMinHash: bins must be >= 1");
  if (bits < 1 || bits > 64 || 64 % bits != 0) {
    throw std::invalid_argument("OnePermMinHash: bits must divide 64");
  }
}

}  // namespace

OnePermMinHash::OnePermMinHash(std::int64_t bins, int bits, std::uint64_t seed)
    : bits_(bits), seed_(seed), hash_(seed) {
  check_params(bins, bits);
  mins_.assign(static_cast<std::size_t>(bins), 0);
  occupied_mask_.assign(static_cast<std::size_t>((bins + 63) / 64), 0);
}

OnePermMinHash::OnePermMinHash(std::span<const std::uint64_t> elements,
                               std::int64_t bins, int bits, std::uint64_t seed)
    : OnePermMinHash(bins, bits, seed) {
  for (std::uint64_t e : elements) add(e);
}

void OnePermMinHash::add(std::uint64_t element) noexcept {
  const std::uint64_t h = hash_(element);
  const std::int64_t bin = bin_of(h, bins());
  const auto slot = static_cast<std::size_t>(bin);
  if (!bin_occupied(bin)) {
    mins_[slot] = h;
    occupied_mask_[static_cast<std::size_t>(bin >> 6)] |= std::uint64_t{1} << (bin & 63);
    ++occupied_;
  } else if (h < mins_[slot]) {
    mins_[slot] = h;
  }
}

std::vector<std::uint64_t> OnePermMinHash::densified_registers() const {
  const std::int64_t k = bins();
  std::vector<std::uint64_t> regs(static_cast<std::size_t>(k), 0);
  if (occupied_ == 0) return regs;  // all-empty: flagged separately on the wire
  const std::uint64_t mask = register_mask(bits_);
  // The probe family is decorrelated from the element hash family so a
  // bin's donor sequence is independent of its content.
  const HashFamily probe(seed_ ^ 0x6f5091657a18e3ddULL);
  for (std::int64_t i = 0; i < k; ++i) {
    std::int64_t source = i;
    if (!bin_occupied(i)) {
      // Optimal densification: walk the seeded universal probe sequence
      // of bin i until it lands on an occupied donor. Deterministic in
      // (seed, i), so both sides of a comparison borrow identically.
      for (std::uint64_t attempt = 1;; ++attempt) {
        const std::uint64_t h =
            probe(static_cast<std::uint64_t>(i) * 0x100000001b3ULL + attempt);
        source = bin_of(h, k);
        if (bin_occupied(source)) break;
      }
    }
    regs[static_cast<std::size_t>(i)] = mins_[static_cast<std::size_t>(source)] & mask;
  }
  return regs;
}

std::vector<std::uint64_t> OnePermMinHash::wire() const {
  const std::int64_t k = bins();
  const auto payload_words = static_cast<std::size_t>((k * bits_ + 63) / 64);
  std::vector<std::uint64_t> out;
  out.reserve(kWireHeaderWords + 1 + payload_words);
  out.push_back(wire_header_word(WireType::kOnePermMinHash));
  out.push_back(params_word(k, bits_));
  out.push_back(seed_);
  out.push_back(static_cast<std::uint64_t>(occupied_));
  out.resize(out.size() + payload_words, 0);
  const std::vector<std::uint64_t> regs = densified_registers();
  std::uint64_t* const payload = out.data() + kWireHeaderWords + 1;
  for (std::int64_t lane = 0; lane < k; ++lane) {
    const std::int64_t bit = lane * bits_;
    payload[bit >> 6] |= regs[static_cast<std::size_t>(lane)] << (bit & 63);
  }
  return out;
}

double oph_wire_jaccard(std::span<const std::uint64_t> a,
                        std::span<const std::uint64_t> b) {
  // Type first: a bottom-k blob whose params/seed words happen to
  // match must throw, not be scored as if it carried OPH registers.
  if (wire_type(a) != WireType::kOnePermMinHash ||
      wire_type(b) != WireType::kOnePermMinHash) {
    throw std::invalid_argument("oph_wire_jaccard: not OPH comparison blobs");
  }
  if (a.size() != b.size() || a.size() < kWireHeaderWords + 1 || a[1] != b[1] ||
      a[2] != b[2]) {
    throw std::invalid_argument("oph_wire_jaccard: incompatible blobs");
  }
  const auto bins = static_cast<std::int64_t>(a[1] & 0xffffffffu);
  const int bits = static_cast<int>(a[1] >> 32);
  check_params(bins, bits);  // malformed params word would read out of bounds
  const auto payload_words = static_cast<std::size_t>((bins * bits + 63) / 64);
  if (a.size() != kWireHeaderWords + 1 + payload_words) {
    throw std::invalid_argument("oph_wire_jaccard: truncated payload");
  }
  const bool empty_a = a[kWireHeaderWords] == 0;
  const bool empty_b = b[kWireHeaderWords] == 0;
  if (empty_a && empty_b) return 1.0;
  if (empty_a || empty_b) return 0.0;
  return corrected_estimate(
      equal_registers(a.subspan(kWireHeaderWords + 1), b.subspan(kWireHeaderWords + 1),
                      bins, bits),
      bins, bits);
}

std::vector<std::uint64_t> oph_wire_band_hashes(std::span<const std::uint64_t> wire,
                                                std::int64_t bands,
                                                std::int64_t rows_per_band) {
  if (wire_type(wire) != WireType::kOnePermMinHash) {
    throw std::invalid_argument("oph_wire_band_hashes: not an OPH comparison blob");
  }
  if (wire.size() < kWireHeaderWords + 1) {
    throw std::invalid_argument("oph_wire_band_hashes: truncated blob");
  }
  const auto bins = static_cast<std::int64_t>(wire[1] & 0xffffffffu);
  const int bits = static_cast<int>(wire[1] >> 32);
  check_params(bins, bits);
  const auto payload_words = static_cast<std::size_t>((bins * bits + 63) / 64);
  if (wire.size() != kWireHeaderWords + 1 + payload_words) {
    throw std::invalid_argument("oph_wire_band_hashes: truncated payload");
  }
  if (bands < 1 || rows_per_band < 1 || bands * rows_per_band > bins) {
    throw std::invalid_argument("oph_wire_band_hashes: bands exceed the registers");
  }
  const auto payload = wire.subspan(kWireHeaderWords + 1);
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(bands));
  for (std::int64_t t = 0; t < bands; ++t) {
    // Fold the band index in so equal buckets imply equal band AND equal
    // registers (up to 64-bit hash collisions). Pure in (wire, t):
    // bucket identity is independent of rank count and routing.
    std::uint64_t h = splitmix64(0x15688bd4c1a6e635ULL ^ static_cast<std::uint64_t>(t));
    for (std::int64_t r = 0; r < rows_per_band; ++r) {
      h = hash_combine(h, packed_lane(payload, t * rows_per_band + r, bits));
    }
    hashes[static_cast<std::size_t>(t)] = h;
  }
  return hashes;
}

}  // namespace sas::sketch
