#include "genome/genome_at_scale.hpp"

#include <stdexcept>

#include "genome/fasta.hpp"
#include "genome/kmer_source.hpp"

namespace sas::genome {

namespace {

std::string path_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t end = (dot == std::string::npos || dot <= start) ? path.size() : dot;
  return path.substr(start, end - start);
}

}  // namespace

GenomeAtScaleResult run_genome_at_scale_fasta(const std::vector<std::string>& fasta_paths,
                                              const GenomeAtScaleOptions& options) {
  const KmerCodec codec(options.k);
  std::vector<KmerSample> samples;
  samples.reserve(fasta_paths.size());
  for (const std::string& path : fasta_paths) {
    samples.push_back(
        build_sample(path_stem(path), read_fasta_file(path), codec, options.min_count));
  }
  return run_genome_at_scale(std::move(samples), options);
}

GenomeAtScaleResult run_genome_at_scale(std::vector<KmerSample> samples,
                                        const GenomeAtScaleOptions& options) {
  if (samples.empty()) {
    throw std::invalid_argument("run_genome_at_scale: no samples");
  }
  KmerSampleSource source(options.k, std::move(samples));

  GenomeAtScaleResult result;
  result.sample_names = source.sample_names();
  core::Result core_result =
      core::similarity_at_scale_threaded(options.ranks, source, options.core);
  // A hybrid run assembles only the sparse form.
  result.similarity = core_result.sparse_output() ? core_result.sparse_similarity.to_dense()
                                                  : std::move(core_result.similarity);
  result.batches = std::move(core_result.batches);
  result.active_ranks = core_result.active_ranks;
  return result;
}

}  // namespace sas::genome
