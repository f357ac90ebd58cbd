// genome_phylogeny — evolve a population, recover its tree.
//
// The paper's headline downstream application (Fig. 1 steps 7 and 9):
// Jaccard distances feed neighbor joining to produce phylogenies and
// guide trees for multiple sequence alignment. This example evolves a
// known population from one ancestor, computes the exact distance matrix
// with SimilarityAtScale, builds the NJ tree, and prints it in Newick
// form together with per-clade statistics.
//
// Usage:
//   genome_phylogeny [--leaves 8] [--k 15] [--ranks 4]
//                    [--genome-length 20000] [--branch-rate 0.008]
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/neighbor_joining.hpp"
#include "genome/genome_at_scale.hpp"
#include "genome/synthetic.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace sas;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int leaves = args.get_int32("leaves", 8);
  const int k = args.get_int32("k", 15);
  const int ranks = args.get_int32("ranks", 4);
  const auto genome_length = args.get_int("genome-length", 20000);
  const double branch_rate = args.get_double("branch-rate", 0.008);

  std::printf("Evolving %d leaves from one ancestor (%lld bp, %.3f mutations/branch)\n\n",
              leaves, static_cast<long long>(genome_length), branch_rate);

  Rng rng(777);
  const std::string ancestor = genome::random_genome(genome_length, rng);
  const auto population = genome::evolve_population(ancestor, leaves, branch_rate, rng);

  // Build k-mer samples for every leaf.
  const genome::KmerCodec codec(k);
  std::vector<genome::KmerSample> samples;
  for (std::size_t i = 0; i < population.leaf_genomes.size(); ++i) {
    samples.push_back(genome::build_sample(population.leaf_names[i],
                                           {{population.leaf_names[i], "",
                                             population.leaf_genomes[i]}},
                                           codec));
  }

  genome::GenomeAtScaleOptions options;
  options.k = k;
  options.ranks = ranks;
  options.core.batch_count = 4;
  const auto result = genome::run_genome_at_scale(samples, options);

  // Pairwise distance summary.
  TextTable table({"pair", "Jaccard J", "distance d_J", "est. mutation rate"});
  for (std::int64_t i = 0; i < leaves; ++i) {
    for (std::int64_t j = i + 1; j < leaves && table.row_count() < 10; ++j) {
      const double jac = result.similarity.similarity(i, j);
      // Invert the k-mer survival model to a per-base rate estimate.
      const double rate = genome::mutation_rate_for_jaccard(k, std::max(jac, 1e-9));
      table.add_row({result.sample_names[static_cast<std::size_t>(i)] + "-" +
                         result.sample_names[static_cast<std::size_t>(j)],
                     fmt_fixed(jac, 4), fmt_fixed(1.0 - jac, 4), fmt_fixed(rate, 5)});
    }
  }
  std::printf("First pairwise distances (of %d pairs):\n", leaves * (leaves - 1) / 2);
  table.print();

  const auto tree =
      analysis::neighbor_joining(result.similarity.distance_matrix(), result.sample_names);
  std::printf("\nNeighbor-joining tree (Newick):\n%s\n", tree.to_newick().c_str());
  std::printf("\nThis tree can be fed to MSA guide-tree consumers or viewed with any "
              "Newick renderer.\n");
  return 0;
}
