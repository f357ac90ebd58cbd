#include "sketch/bottomk.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "util/hashing.hpp"

namespace sas::sketch {

namespace {

/// Mash's estimator over two sorted hash lists: of the `capacity`
/// smallest hashes of the merged order, the fraction present in both.
double bottomk_walk(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                    std::size_t capacity) {
  if (a.empty() && b.empty()) return 1.0;  // J(∅, ∅) = 1
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t taken = 0;
  std::size_t shared = 0;
  while (taken < capacity && (ia < a.size() || ib < b.size())) {
    if (ib >= b.size() || (ia < a.size() && a[ia] < b[ib])) {
      ++ia;
    } else if (ia >= a.size() || b[ib] < a[ia]) {
      ++ib;
    } else {
      ++shared;
      ++ia;
      ++ib;
    }
    ++taken;
  }
  return taken == 0 ? 1.0 : static_cast<double>(shared) / static_cast<double>(taken);
}

}  // namespace

BottomKSketch::BottomKSketch(std::size_t sketch_size, std::uint64_t seed)
    : capacity_(sketch_size), seed_(seed) {
  if (sketch_size == 0) throw std::invalid_argument("BottomKSketch: size must be > 0");
}

BottomKSketch::BottomKSketch(std::span<const std::uint64_t> elements,
                             std::size_t sketch_size, std::uint64_t seed)
    : BottomKSketch(sketch_size, seed) {
  const HashFamily h(seed);
  hashes_.reserve(elements.size());
  for (std::uint64_t e : elements) hashes_.push_back(h(e));
  std::sort(hashes_.begin(), hashes_.end());
  hashes_.erase(std::unique(hashes_.begin(), hashes_.end()), hashes_.end());
  if (hashes_.size() > capacity_) hashes_.resize(capacity_);
}

void BottomKSketch::add(std::uint64_t element) {
  const std::uint64_t h = HashFamily(seed_)(element);
  if (hashes_.size() >= capacity_ && h >= hashes_.back()) return;
  const auto pos = std::lower_bound(hashes_.begin(), hashes_.end(), h);
  if (pos != hashes_.end() && *pos == h) return;  // distinct hashes only
  hashes_.insert(pos, h);
  if (hashes_.size() > capacity_) hashes_.pop_back();
}

std::vector<std::uint64_t> BottomKSketch::wire() const {
  std::vector<std::uint64_t> out;
  out.reserve(kWireHeaderWords + hashes_.size());
  out.push_back(wire_header_word(WireType::kBottomK));
  out.push_back(static_cast<std::uint64_t>(capacity_));
  out.push_back(seed_);
  out.insert(out.end(), hashes_.begin(), hashes_.end());
  return out;
}

std::vector<double> minhash_all_pairs(
    const std::vector<std::vector<std::uint64_t>>& samples, std::size_t sketch_size,
    std::uint64_t seed) {
  const auto n = static_cast<std::int64_t>(samples.size());
  std::vector<std::vector<std::uint64_t>> wires;
  wires.reserve(samples.size());
  for (const auto& sample : samples) {
    wires.push_back(BottomKSketch(sample, sketch_size, seed).wire());
  }
  std::vector<double> estimates(static_cast<std::size_t>(n * n), 1.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      const double e = bottomk_wire_jaccard(wires[static_cast<std::size_t>(i)],
                                            wires[static_cast<std::size_t>(j)]);
      estimates[static_cast<std::size_t>(i * n + j)] = e;
      estimates[static_cast<std::size_t>(j * n + i)] = e;
    }
  }
  return estimates;
}

double bottomk_wire_jaccard(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) {
  // Type first (same gap as oph_wire_jaccard): an OPH blob with
  // coincidentally matching params/seed words must throw, not have its
  // payload walked as sorted bottom-k minima.
  if (wire_type(a) != WireType::kBottomK || wire_type(b) != WireType::kBottomK) {
    throw std::invalid_argument("bottomk_wire_jaccard: not bottom-k blobs");
  }
  if (a.size() < kWireHeaderWords || b.size() < kWireHeaderWords || a[1] != b[1] ||
      a[2] != b[2]) {
    throw std::invalid_argument("bottomk_wire_jaccard: incompatible blobs");
  }
  const auto capacity = static_cast<std::size_t>(a[1]);
  if (capacity == 0 || a.size() > kWireHeaderWords + capacity ||
      b.size() > kWireHeaderWords + capacity) {
    throw std::invalid_argument("bottomk_wire_jaccard: malformed blob");
  }
  const auto pa = a.subspan(kWireHeaderWords);
  const auto pb = b.subspan(kWireHeaderWords);
  // The walk assumes distinct ascending minima; a swapped or repeated
  // word would silently skew the shared fraction.
  if (std::adjacent_find(pa.begin(), pa.end(), std::greater_equal<>()) != pa.end() ||
      std::adjacent_find(pb.begin(), pb.end(), std::greater_equal<>()) != pb.end()) {
    throw std::invalid_argument("bottomk_wire_jaccard: payload not strictly ascending");
  }
  return bottomk_walk(pa, pb, capacity);
}

}  // namespace sas::sketch
