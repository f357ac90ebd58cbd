// quickstart — the 60-second GenomeAtScale tour.
//
// Generates three small related genomes, writes them as FASTA files,
// runs the full pipeline (k-mer extraction → batched distributed
// SimilarityAtScale), and prints the Jaccard similarity/distance
// matrices. This mirrors Fig. 1 of the paper end to end at toy scale.
//
// Usage:
//   quickstart [--k 17] [--ranks 4] [--batches 4] [--genome-length 20000]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "genome/genome_at_scale.hpp"
#include "genome/phylip.hpp"
#include "genome/synthetic.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace fs = std::filesystem;
using namespace sas;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int k = args.get_int32("k", 17);
  const int ranks = args.get_int32("ranks", 4);
  const auto batches = args.get_int("batches", 4);
  const auto genome_length = args.get_int("genome-length", 20000);

  std::printf("GenomeAtScale quickstart: k=%d, ranks=%d, batches=%lld\n\n", k, ranks,
              static_cast<long long>(batches));

  // 1. Make three related genomes: an ancestor, a close relative (~1%%
  //    mutated), and a distant one (~10%% mutated).
  Rng rng(2020);
  const std::string ancestor = genome::random_genome(genome_length, rng);
  const std::vector<std::pair<std::string, std::string>> genomes{
      {"ancestor", ancestor},
      {"close_relative", genome::mutate_point(ancestor, 0.01, rng)},
      {"distant_relative", genome::mutate_point(ancestor, 0.10, rng)},
  };

  // 2. Write them as FASTA files (the pipeline's on-disk entry point).
  const fs::path dir = fs::temp_directory_path() / "sas_quickstart";
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (const auto& [name, sequence] : genomes) {
    const fs::path path = dir / (name + ".fa");
    genome::write_fasta_file(path.string(), {{name, "synthetic genome", sequence}});
    paths.push_back(path.string());
  }

  // 3. Run the distributed pipeline.
  genome::GenomeAtScaleOptions options;
  options.k = k;
  options.ranks = ranks;
  options.core.batch_count = batches;
  const auto result = genome::run_genome_at_scale_fasta(paths, options);

  // 4. Report.
  TextTable similarity({"sample", genomes[0].first, genomes[1].first, genomes[2].first});
  for (std::int64_t i = 0; i < 3; ++i) {
    similarity.add_row({result.sample_names[static_cast<std::size_t>(i)],
                        fmt_fixed(result.similarity.similarity(i, 0), 4),
                        fmt_fixed(result.similarity.similarity(i, 1), 4),
                        fmt_fixed(result.similarity.similarity(i, 2), 4)});
  }
  std::printf("Jaccard similarity matrix S:\n");
  similarity.print();

  std::printf("\nJaccard distance d_J(ancestor, close_relative)   = %.4f\n",
              result.similarity.distance(0, 1));
  std::printf("Jaccard distance d_J(ancestor, distant_relative) = %.4f\n",
              result.similarity.distance(0, 2));

  const fs::path phylip = dir / "distances.phylip";
  genome::write_phylip_file(phylip.string(), result.sample_names,
                            result.similarity.distance_matrix(), 3);
  std::printf("\nPHYLIP distance matrix written to %s\n", phylip.string().c_str());
  std::printf("Processed %zu batches on %d active ranks.\n", result.batches.size(),
              result.active_ranks);
  return 0;
}
