#include "sketch/hyperloglog.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace sas::sketch {

namespace {

/// Bias-correction constant α_m (Flajolet et al. 2007, Fig. 3).
double hll_alpha(std::int64_t m) noexcept {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

/// 2^-r for register values (max rank is 64 − p + 1 ≤ 61).
const double* inv_pow2_table() noexcept {
  static const auto table = [] {
    std::array<double, 64> t{};
    for (std::size_t r = 0; r < t.size(); ++r) t[r] = std::ldexp(1.0, -static_cast<int>(r));
    return t;
  }();
  return table.data();
}

/// Raw + small-range-corrected cardinality from the harmonic sum and the
/// zero-register count.
double hll_estimate_from(double inv_sum, std::int64_t zeros, std::int64_t m) noexcept {
  const auto md = static_cast<double>(m);
  const double raw = hll_alpha(m) * md * md / inv_sum;
  if (raw <= 2.5 * md && zeros > 0) {
    return md * std::log(md / static_cast<double>(zeros));
  }
  return raw;
}

/// Register i of a packed payload (8 registers per word, little-endian
/// byte lanes).
unsigned packed_register(std::span<const std::uint64_t> payload, std::int64_t i) noexcept {
  return static_cast<unsigned>(
      (payload[static_cast<std::size_t>(i >> 3)] >> ((i & 7) * 8)) & 0xff);
}

/// Inclusion–exclusion Jaccard over two packed register payloads of
/// m = 2^precision registers (index-ascending sums).
double hll_jaccard(std::span<const std::uint64_t> pa, std::span<const std::uint64_t> pb,
                   int precision) {
  const std::int64_t m = std::int64_t{1} << precision;
  // add() never stores a rank above 64 − p + 1; a larger byte is corrupt
  // and would index past the 2^-r table.
  const auto max_rank = static_cast<unsigned>(64 - precision + 1);
  const double* const inv = inv_pow2_table();
  double sum_a = 0.0;
  double sum_b = 0.0;
  double sum_u = 0.0;
  std::int64_t zero_a = 0;
  std::int64_t zero_b = 0;
  std::int64_t zero_u = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    const unsigned a = packed_register(pa, i);
    const unsigned b = packed_register(pb, i);
    if (a > max_rank || b > max_rank) {
      throw std::invalid_argument("hll_wire_jaccard: register above the maximum rank");
    }
    const unsigned u = a > b ? a : b;
    sum_a += inv[a];
    sum_b += inv[b];
    sum_u += inv[u];
    zero_a += a == 0;
    zero_b += b == 0;
    zero_u += u == 0;
  }
  const double est_u = hll_estimate_from(sum_u, zero_u, m);
  if (est_u <= 0.0) return 1.0;  // both sketches empty: J(∅, ∅) = 1
  const double inter =
      hll_estimate_from(sum_a, zero_a, m) + hll_estimate_from(sum_b, zero_b, m) - est_u;
  if (inter <= 0.0) return 0.0;
  return std::min(1.0, inter / est_u);
}

void check_precision(int precision) {
  if (precision < HyperLogLog::kMinPrecision || precision > HyperLogLog::kMaxPrecision) {
    throw std::invalid_argument("HyperLogLog: precision must be in [4, 18]");
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision, std::uint64_t seed)
    : precision_(precision), seed_(seed), hash_(seed) {
  check_precision(precision);
  registers_.assign(std::size_t{1} << precision, 0);
}

HyperLogLog::HyperLogLog(std::span<const std::uint64_t> elements, int precision,
                         std::uint64_t seed)
    : HyperLogLog(precision, seed) {
  for (std::uint64_t e : elements) add(e);
}

void HyperLogLog::add(std::uint64_t element) noexcept {
  const std::uint64_t h = hash_(element);
  const auto idx = static_cast<std::size_t>(h >> (64 - precision_));
  const std::uint64_t rest = h << precision_;
  const auto rank = static_cast<std::uint8_t>(
      rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1);
  if (rank > registers_[idx]) registers_[idx] = rank;
}

std::vector<std::uint64_t> HyperLogLog::wire() const {
  const std::int64_t m = register_count();
  std::vector<std::uint64_t> out;
  out.reserve(kWireHeaderWords + static_cast<std::size_t>(m / 8));
  out.push_back(wire_header_word(WireType::kHyperLogLog));
  out.push_back(static_cast<std::uint64_t>(precision_));
  out.push_back(seed_);
  for (std::int64_t w = 0; w < m / 8; ++w) {
    std::uint64_t word = 0;
    for (int lane = 0; lane < 8; ++lane) {
      word |= static_cast<std::uint64_t>(registers_[static_cast<std::size_t>(w * 8 + lane)])
              << (lane * 8);
    }
    out.push_back(word);
  }
  return out;
}

double hll_wire_jaccard(std::span<const std::uint64_t> a,
                        std::span<const std::uint64_t> b) {
  // Type first (same gap as oph_wire_jaccard): a blob of another sketch
  // type with matching params/seed words must throw, not be decoded as
  // packed HLL registers.
  if (wire_type(a) != WireType::kHyperLogLog || wire_type(b) != WireType::kHyperLogLog) {
    throw std::invalid_argument("hll_wire_jaccard: not HLL blobs");
  }
  if (a.size() != b.size() || a.size() < kWireHeaderWords + 2 || a[1] != b[1] ||
      a[2] != b[2]) {
    throw std::invalid_argument("hll_wire_jaccard: incompatible blobs");
  }
  const auto precision = static_cast<int>(a[1]);
  check_precision(precision);  // malformed params word would UB the shift
  const auto pa = a.subspan(kWireHeaderWords);
  const auto pb = b.subspan(kWireHeaderWords);
  if (pa.size() != (std::size_t{1} << precision) / 8) {
    throw std::invalid_argument("hll_wire_jaccard: truncated payload");
  }
  return hll_jaccard(pa, pb, precision);
}

}  // namespace sas::sketch
