#include "genome/kmer.hpp"

#include <stdexcept>

#include "util/error.hpp"

namespace sas::genome {

KmerCodec::KmerCodec(int k) : k_(k) {
  if (k < 1 || k > 31) {
    throw error::ConfigError("KmerCodec: k must be in [1, 31]");
  }
  mask_ = (k == 32) ? ~0ULL : ((std::uint64_t{1} << (2 * k)) - 1);
}

std::uint64_t KmerCodec::encode(std::string_view kmer) const {
  if (static_cast<int>(kmer.size()) != k_) {
    throw std::invalid_argument("KmerCodec::encode: wrong k-mer length");
  }
  std::uint64_t code = 0;
  for (char base : kmer) {
    const int c = base_code(base);
    if (c == kInvalidBase) {
      throw std::invalid_argument("KmerCodec::encode: invalid base");
    }
    code = (code << 2) | static_cast<std::uint64_t>(c);
  }
  return code;
}

std::string KmerCodec::decode(std::uint64_t code) const {
  std::string out(static_cast<std::size_t>(k_), 'A');
  for (int i = k_ - 1; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = code_base(static_cast<int>(code & 3));
    code >>= 2;
  }
  return out;
}

std::uint64_t KmerCodec::reverse_complement(std::uint64_t code) const noexcept {
  std::uint64_t rc = 0;
  for (int i = 0; i < k_; ++i) {
    rc = (rc << 2) | (3 - (code & 3));
    code >>= 2;
  }
  return rc & mask_;
}

std::vector<std::uint64_t> KmerCodec::canonical_kmers(std::string_view sequence) const {
  std::vector<std::uint64_t> out;
  if (static_cast<int>(sequence.size()) < k_) return out;
  out.reserve(sequence.size() - static_cast<std::size_t>(k_) + 1);

  std::uint64_t forward = 0;
  std::uint64_t reverse = 0;
  int run = 0;  // valid bases accumulated since the last break
  const int shift = 2 * (k_ - 1);
  for (char base : sequence) {
    const int c = base_code(base);
    if (c == kInvalidBase) {
      run = 0;
      forward = 0;
      reverse = 0;
      continue;
    }
    forward = ((forward << 2) | static_cast<std::uint64_t>(c)) & mask_;
    reverse = (reverse >> 2) |
              (static_cast<std::uint64_t>(3 - c) << shift);
    if (++run >= k_) out.push_back(forward < reverse ? forward : reverse);
  }
  return out;
}

}  // namespace sas::genome
