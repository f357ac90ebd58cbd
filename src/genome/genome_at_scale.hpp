// genome_at_scale.hpp — the GenomeAtScale tool (paper §IV, Fig. 1 Part II).
//
// End-to-end pipeline: FASTA/FASTQ sample files (or prebuilt k-mer
// samples) → canonical k-mer sets with noise thresholds → batched
// distributed SimilarityAtScale → Jaccard similarity/distance matrices,
// ready for PHYLIP export and the downstream analyses in src/analysis.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/similarity_matrix.hpp"
#include "genome/sample.hpp"

namespace sas::genome {

struct GenomeAtScaleOptions {
  int k = 31;            ///< k-mer size (paper: 19 for Kingsford, 31 for BIGSI)
  int min_count = 1;     ///< rare-k-mer noise threshold (§V-A2)
  int ranks = 4;         ///< bsp ranks ("MPI processes")
  core::Config core;     ///< batching / bitmask / grid configuration
};

struct GenomeAtScaleResult {
  std::vector<std::string> sample_names;
  /// Dense n×n for every estimator; a hybrid run's is rebuilt from its
  /// sparse output (SparseSimilarity::to_dense).
  core::SimilarityMatrix similarity;
  std::vector<core::BatchStats> batches;
  int active_ranks = 0;
};

/// Run on FASTA files, one file per sample (sample name = file record
/// set's path stem).
[[nodiscard]] GenomeAtScaleResult run_genome_at_scale_fasta(
    const std::vector<std::string>& fasta_paths, const GenomeAtScaleOptions& options);

/// Run on prebuilt samples (already thresholded k-mer sets).
[[nodiscard]] GenomeAtScaleResult run_genome_at_scale(
    std::vector<KmerSample> samples, const GenomeAtScaleOptions& options);

}  // namespace sas::genome
