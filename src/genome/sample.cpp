#include "genome/sample.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
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
  std::ifstream in(path);
  if (!in) throw error::ConfigError("cannot open sample file: " + path);
  KmerSample sample;
  std::string line;
  for (std::int64_t line_no = 1; std::getline(in, line); ++line_no) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::size_t start = line.find_first_not_of(" \t", 1);
      if (start != std::string::npos) sample.name = line.substr(start);
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
