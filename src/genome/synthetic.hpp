// synthetic.hpp — synthetic genome and sequencing-run generation.
//
// The paper's corpora (Kingsford RNASeq, BIGSI bacterial/viral WGS) are
// not redistributable at reproduction scale, so the benches and examples
// generate data with matched statistical structure (bench/paper_figures.cpp
// records the corpus substitution):
//  * random ancestor genomes,
//  * point-mutation evolution with a known expected Jaccard
//    J ≈ t/(2−t), t = (1−r)ᵏ for per-base mutation rate r,
//  * read simulation with sequencing errors, motivating the min-count
//    noise filter of §V-A2,
//  * whole evolved populations along a recorded tree, for the phylogeny
//    application (Fig. 1 steps 7–9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genome/fasta.hpp"
#include "util/rng.hpp"

namespace sas::genome {

/// Uniform random genome of `length` bases.
[[nodiscard]] std::string random_genome(std::int64_t length, Rng& rng);

/// Independently substitute each base with probability `rate` (always to
/// a different base). Models point mutations / SNPs.
[[nodiscard]] std::string mutate_point(const std::string& genome, double rate, Rng& rng);

/// Expected Jaccard similarity between a genome and its point-mutated
/// copy: shared k-mer fraction t = (1−r)ᵏ gives J ≈ t / (2 − t)
/// (neglecting chance k-mer collisions; property tests use a tolerance).
[[nodiscard]] double expected_jaccard_after_mutation(int k, double rate);

/// Per-base mutation rate that yields a target expected Jaccard (inverse
/// of expected_jaccard_after_mutation).
[[nodiscard]] double mutation_rate_for_jaccard(int k, double jaccard);

/// Simulate shotgun sequencing: `coverage`× read depth of `read_length`
/// reads drawn uniformly, each base miscalled with `error_rate` (the
/// error source that produces rare noise k-mers).
[[nodiscard]] std::vector<SequenceRecord> simulate_reads(const std::string& genome,
                                                         int read_length,
                                                         double coverage,
                                                         double error_rate, Rng& rng);

/// A leaf population evolved from one ancestor along a recorded random
/// binary tree: `parent[i]` is the tree parent of internal/leaf node i
/// (parent[0] = -1 for the root = the ancestor). Branch b mutates at
/// `rate_per_branch`.
struct EvolvedPopulation {
  std::vector<std::string> leaf_genomes;
  std::vector<std::string> leaf_names;
  std::vector<int> parent;       ///< tree over 2·leaves−1 nodes, root first
  std::vector<int> node_of_leaf; ///< tree node index of each leaf
};

[[nodiscard]] EvolvedPopulation evolve_population(const std::string& ancestor,
                                                  int leaves, double rate_per_branch,
                                                  Rng& rng);

}  // namespace sas::genome
