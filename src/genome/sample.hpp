// sample.hpp — per-sample k-mer sets with noise thresholds (paper §V-A2).
//
// A sequencing sample is represented by the set of canonical k-mers it
// contains. Raw high-throughput reads carry sequencing errors, so k-mers
// occurring fewer than `min_count` times are dropped as noise — the same
// preprocessing the paper applies to the Kingsford and BIGSI corpora.
// GenomeAtScale stores samples as "files with a sorted numerical
// representation" (§IV); KmerSample mirrors that: a name plus a sorted,
// unique vector of packed k-mer codes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genome/fasta.hpp"
#include "genome/kmer.hpp"

namespace sas::genome {

struct KmerSample {
  std::string name;
  std::vector<std::uint64_t> kmers;  ///< canonical codes, sorted, unique

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(kmers.size());
  }
};

/// Build a sample from sequences: extract canonical k-mers, count
/// occurrences across all records, keep those with count >= min_count.
[[nodiscard]] KmerSample build_sample(const std::string& name,
                                      const std::vector<SequenceRecord>& records,
                                      const KmerCodec& codec, int min_count = 1);

/// Exact Jaccard similarity of two sorted k-mer sets:
/// baselines::exact_jaccard (merge join) over their k-mers.
[[nodiscard]] double jaccard_of_samples(const KmerSample& a, const KmerSample& b);

/// Serialize the sorted numeric representation (one decimal code per
/// line, preceded by a "# name" comment) — GenomeAtScale's on-disk sample
/// format (§IV).
void write_sample_file(const std::string& path, const KmerSample& sample);

/// Parse a sample file written by write_sample_file, read into one buffer
/// and split into lines in place: CR-LF ends, blank lines and `#` lines
/// are allowed, and the last line needs no newline. Throws
/// error::ConfigError (naming the path) when the file cannot be opened or
/// read, and error::CorruptInput (naming the path and 1-based line) on a
/// line that is not one unsigned decimal code, or on unsorted codes.
[[nodiscard]] KmerSample read_sample_file(const std::string& path);

}  // namespace sas::genome
