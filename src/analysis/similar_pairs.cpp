#include "analysis/similar_pairs.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace sas::analysis {

namespace {

bool by_descending_similarity(const ScoredPair& x, const ScoredPair& y) {
  return std::tie(y.similarity, x.a, x.b) < std::tie(x.similarity, y.a, y.b);
}

}  // namespace

std::vector<ScoredPair> top_k_pairs(const core::SimilarityMatrix& matrix,
                                    std::int64_t k) {
  if (k < 0) throw std::invalid_argument("top_k_pairs: k must be non-negative");
  const std::int64_t n = matrix.size();
  std::vector<ScoredPair> pairs;
  pairs.reserve(static_cast<std::size_t>(n * (n - 1) / 2));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      pairs.push_back({i, j, matrix.similarity(i, j)});
    }
  }
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(k), pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(take),
                    pairs.end(), by_descending_similarity);
  pairs.resize(take);
  return pairs;
}

std::vector<ScoredPair> pairs_above(const core::SimilarityMatrix& matrix,
                                    double threshold) {
  const std::int64_t n = matrix.size();
  std::vector<ScoredPair> pairs;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      const double s = matrix.similarity(i, j);
      if (s >= threshold) pairs.push_back({i, j, s});
    }
  }
  std::sort(pairs.begin(), pairs.end(), by_descending_similarity);
  return pairs;
}

std::vector<ScoredPair> candidate_pairs(const core::SparseSimilarity& sparse,
                                        double threshold) {
  std::vector<ScoredPair> pairs;
  pairs.reserve(static_cast<std::size_t>(sparse.survivor_count()));
  sparse.for_each_survivor([&](std::int64_t i, std::int64_t j, double s) {
    if (s >= threshold) pairs.push_back({i, j, s});
  });
  std::sort(pairs.begin(), pairs.end(), by_descending_similarity);
  return pairs;
}

std::vector<ScoredPair> top_k_pairs(const core::SparseSimilarity& sparse,
                                    std::int64_t k) {
  if (k < 0) throw std::invalid_argument("top_k_pairs: k must be non-negative");
  std::vector<ScoredPair> pairs;
  pairs.reserve(static_cast<std::size_t>(sparse.survivor_count() +
                                         sparse.estimate_count()));
  sparse.for_each_survivor(
      [&](std::int64_t i, std::int64_t j, double s) { pairs.push_back({i, j, s}); });
  sparse.for_each_estimate(
      [&](std::int64_t i, std::int64_t j, double s) { pairs.push_back({i, j, s}); });
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(k), pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(take),
                    pairs.end(), by_descending_similarity);
  pairs.resize(take);
  return pairs;
}

std::vector<ScoredPair> nearest_neighbours(const core::SimilarityMatrix& matrix,
                                           std::int64_t query, std::int64_t k) {
  const std::int64_t n = matrix.size();
  if (query < 0 || query >= n) {
    throw std::out_of_range("nearest_neighbours: query out of range");
  }
  std::vector<ScoredPair> pairs;
  pairs.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (std::int64_t j = 0; j < n; ++j) {
    if (j == query) continue;
    pairs.push_back({std::min(query, j), std::max(query, j), matrix.similarity(query, j)});
  }
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(std::max<std::int64_t>(k, 0)),
                                          pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(take),
                    pairs.end(), by_descending_similarity);
  pairs.resize(take);
  return pairs;
}

}  // namespace sas::analysis
