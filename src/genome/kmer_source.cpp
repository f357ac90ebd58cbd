#include "genome/kmer_source.hpp"

#include <algorithm>
#include <string>

#include "sketch/exchange.hpp"
#include "sketch/sketch.hpp"
#include "util/error.hpp"

namespace sas::genome {

namespace {

std::int64_t universe_for_k(int k) {
  if (k < 1 || k > 31) {
    throw error::ConfigError("k = " + std::to_string(k) + " is outside [1, 31]");
  }
  return std::int64_t{1} << (2 * k);
}

std::vector<std::int64_t> codes_in_range(const std::vector<std::uint64_t>& kmers,
                                         distmat::BlockRange range) {
  const auto lo = std::lower_bound(kmers.begin(), kmers.end(),
                                   static_cast<std::uint64_t>(range.begin));
  const auto hi = std::lower_bound(lo, kmers.end(),
                                   static_cast<std::uint64_t>(range.end));
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) out.push_back(static_cast<std::int64_t>(*it));
  return out;
}

/// `origin` names where the sample came from (its file, or its name).
void validate_sample(const KmerSample& sample, std::int64_t universe,
                     const std::string& origin) {
  if (!sample.kmers.empty() &&
      sample.kmers.back() >= static_cast<std::uint64_t>(universe)) {
    throw error::ConfigError("k-mer code " + std::to_string(sample.kmers.back()) +
                             " in " + origin + " exceeds the 4^k universe of --k (" +
                             std::to_string(universe) +
                             " codes); was it built with a larger k?");
  }
}

}  // namespace

KmerSampleSource::KmerSampleSource(int k, std::vector<KmerSample> samples)
    : universe_(universe_for_k(k)), samples_(std::move(samples)) {
  for (const KmerSample& s : samples_) validate_sample(s, universe_, "sample " + s.name);
}

std::vector<std::int64_t> KmerSampleSource::values_in_range(
    std::int64_t sample, distmat::BlockRange range) const {
  return codes_in_range(samples_[static_cast<std::size_t>(sample)].kmers, range);
}

std::vector<std::string> KmerSampleSource::sample_names() const {
  std::vector<std::string> names;
  names.reserve(samples_.size());
  for (const KmerSample& s : samples_) names.push_back(s.name);
  return names;
}

KmerFileSource::KmerFileSource(int k, const std::vector<std::string>& sample_paths)
    : universe_(universe_for_k(k)), paths_(sample_paths) {
  samples_.reserve(sample_paths.size());
  for (const std::string& path : sample_paths) {
    samples_.push_back(read_sample_file(path));
    validate_sample(samples_.back(), universe_, "sample file " + path);
  }
}

std::string KmerFileSource::sketch_path(std::int64_t sample,
                                        const core::Config& config) const {
  const core::Estimator est = sketch::resolved_sketch_estimator(config);
  return paths_[static_cast<std::size_t>(sample)] + "." +
         sketch::estimator_wire_name(est) + ".sketch";
}

std::vector<std::uint64_t> KmerFileSource::persisted_sketch(
    std::int64_t sample, const core::Config& config) const {
  const core::Estimator est = sketch::resolved_sketch_estimator(config);
  switch (est) {
    case core::Estimator::kHll:
    case core::Estimator::kMinhash:
    case core::Estimator::kBottomK:
      break;
    default:
      return {};
  }
  // read_wire_file returns empty on missing files and throws
  // error::CorruptInput on malformed ones; parameter compatibility is
  // the caller's wire_matches_config check.
  return sketch::read_wire_file(sketch_path(sample, config));
}

std::vector<std::int64_t> KmerFileSource::values_in_range(
    std::int64_t sample, distmat::BlockRange range) const {
  return codes_in_range(samples_[static_cast<std::size_t>(sample)].kmers, range);
}

std::vector<std::string> KmerFileSource::sample_names() const {
  std::vector<std::string> names;
  names.reserve(samples_.size());
  for (const KmerSample& s : samples_) names.push_back(s.name);
  return names;
}

}  // namespace sas::genome
