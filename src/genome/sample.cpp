#include "genome/sample.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "baselines/exact_pairwise.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace sas::genome {

KmerSample build_sample(const std::string& name,
                        const std::vector<SequenceRecord>& records,
                        const KmerCodec& codec, int min_count) {
  if (min_count < 1) throw std::invalid_argument("build_sample: min_count must be >= 1");
  KmerSample sample;
  sample.name = name;

  if (min_count == 1) {
    // No counting needed: collect, sort, dedupe.
    for (const SequenceRecord& record : records) {
      auto codes = codec.canonical_kmers(record.sequence);
      sample.kmers.insert(sample.kmers.end(), codes.begin(), codes.end());
    }
    std::sort(sample.kmers.begin(), sample.kmers.end());
    sample.kmers.erase(std::unique(sample.kmers.begin(), sample.kmers.end()),
                       sample.kmers.end());
    return sample;
  }

  std::unordered_map<std::uint64_t, std::int64_t> counts;
  for (const SequenceRecord& record : records) {
    for (std::uint64_t code : codec.canonical_kmers(record.sequence)) ++counts[code];
  }
  for (const auto& [code, count] : counts) {
    if (count >= min_count) sample.kmers.push_back(code);
  }
  std::sort(sample.kmers.begin(), sample.kmers.end());
  return sample;
}

double jaccard_of_samples(const KmerSample& a, const KmerSample& b) {
  return baselines::exact_jaccard(a.kmers, b.kmers);
}

void write_sample_file(const std::string& path, const KmerSample& sample) {
  std::ofstream out(path);
  if (!out) throw error::ConfigError("cannot write sample file: " + path);
  out << "# " << sample.name << '\n';
  for (std::uint64_t code : sample.kmers) out << code << '\n';
}

KmerSample read_sample_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw error::ConfigError("cannot open sample file: " + path);
  // One buffer per thread, reused file after file (it keeps the largest
  // file's size): a fresh buffer for each file would leave heap holes
  // between the samples' codes.
  thread_local std::string text;
  text.clear();
  std::array<char, 1 << 16> chunk;
  while (in.read(chunk.data(), chunk.size()), in.gcount() > 0) {
    text.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw error::ConfigError("cannot read sample file: " + path);

  KmerSample sample;
  const auto newlines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  sample.kmers.reserve(newlines + 1);
  const std::string_view all(text);
  std::int64_t line_no = 0;
  for (std::size_t start = 0; start < all.size();) {
    ++line_no;
    const std::size_t end = std::min(all.find('\n', start), all.size());
    std::string_view line = all.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::size_t first = line.find_first_not_of(" \t", 1);
      if (first != std::string_view::npos) sample.name = line.substr(first);
      continue;
    }
    const auto code = parse_number<std::uint64_t>(line);
    if (!code) {
      throw error::CorruptInput("sample file " + path + ": line " +
                                std::to_string(line_no) +
                                " is not a k-mer code (expected an unsigned integer)");
    }
    sample.kmers.push_back(*code);
  }
  if (!std::is_sorted(sample.kmers.begin(), sample.kmers.end())) {
    throw error::CorruptInput("sample file is not sorted: " + path);
  }
  return sample;
}

}  // namespace sas::genome
