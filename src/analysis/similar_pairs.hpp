// similar_pairs.hpp — similar-sample discovery (paper Fig. 1 step 8).
//
// The first downstream application the paper draws: "Application:
// similar sample discovery" — given the all-pairs similarity matrix,
// surface the most related samples (to augment datasets with similar
// samples, §II-B/[64]) or every pair above a similarity threshold (the
// screen-style query). The dense overloads run over the full matrix the
// exact/sketch pipelines produce on the root rank. Hybrid runs hand in
// their SparseSimilarity, whose survivor list IS the candidate pair set:
// those overloads never touch (or require) an n² structure and never
// surface sketch-estimated (pruned) values as if exact.
#pragma once

#include <cstdint>
#include <vector>

#include "core/similarity_matrix.hpp"

namespace sas::analysis {

struct ScoredPair {
  std::int64_t a = 0;
  std::int64_t b = 0;        ///< a < b
  double similarity = 0.0;
};

/// The k most similar distinct pairs (i < j), descending by similarity;
/// ties broken by (a, b) for determinism. k is clamped to the pair count.
[[nodiscard]] std::vector<ScoredPair> top_k_pairs(const core::SimilarityMatrix& matrix,
                                                  std::int64_t k);

/// Every distinct pair with similarity >= threshold, descending.
[[nodiscard]] std::vector<ScoredPair> pairs_above(const core::SimilarityMatrix& matrix,
                                                  double threshold);

/// Every candidate pair of a hybrid run: the survivors of its
/// SparseSimilarity (exactly rescored values), optionally re-thresholded
/// on the exact value, descending. O(survivors), not O(n²).
[[nodiscard]] std::vector<ScoredPair> candidate_pairs(
    const core::SparseSimilarity& sparse, double threshold = 0.0);

/// The k most similar distinct pairs of a sparse-output run, descending.
/// Survivors dominate by construction (they cleared the prune threshold);
/// scored-but-pruned estimates fill out k when fewer survivors exist.
[[nodiscard]] std::vector<ScoredPair> top_k_pairs(const core::SparseSimilarity& sparse,
                                                  std::int64_t k);

/// For one query sample, its `k` nearest neighbours (most similar other
/// samples), descending.
[[nodiscard]] std::vector<ScoredPair> nearest_neighbours(
    const core::SimilarityMatrix& matrix, std::int64_t query, std::int64_t k);

}  // namespace sas::analysis
