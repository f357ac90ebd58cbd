// metagenome_clustering — sample clustering + anomaly detection.
//
// The metagenomic workflow of paper Fig. 1 step 7/8 ("similar sample
// discovery", "use clustering to augment datasets with similar samples")
// and §II-D (proximity-based outlier detection): several bacterial-like
// clades are sequenced with simulated noisy reads, samples are built with
// the rare-k-mer threshold, clustered with k-medoids over Jaccard
// distances, and a contaminant sample is flagged by its outlier score.
//
// Usage:
//   metagenome_clustering [--clades 3] [--per-clade 4] [--k 15] [--ranks 4]
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/clustering.hpp"
#include "genome/genome_at_scale.hpp"
#include "genome/synthetic.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace sas;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int clades = args.get_int32("clades", 3);
  const int per_clade = args.get_int32("per-clade", 4);
  const int k = args.get_int32("k", 15);
  const int ranks = args.get_int32("ranks", 4);

  Rng rng(90210);
  const genome::KmerCodec codec(k);
  std::vector<genome::KmerSample> samples;
  std::vector<int> truth;

  std::printf("Simulating %d clades x %d samples (noisy 100bp reads, 20x coverage, "
              "0.3%% error, min-count 3) plus one contaminant...\n\n",
              clades, per_clade);
  for (int c = 0; c < clades; ++c) {
    const std::string ancestor = genome::random_genome(12000, rng);
    for (int s = 0; s < per_clade; ++s) {
      const std::string individual = genome::mutate_point(ancestor, 0.004, rng);
      const auto reads = genome::simulate_reads(individual, 100, 20.0, 0.003, rng);
      const std::string name = "clade" + std::to_string(c) + "_s" + std::to_string(s);
      // min_count = 3 drops sequencing-error k-mers (paper §V-A2).
      samples.push_back(genome::build_sample(name, reads, codec, 3));
      truth.push_back(c);
    }
  }
  // A contaminant unrelated to every clade.
  {
    const auto reads =
        genome::simulate_reads(genome::random_genome(12000, rng), 100, 20.0, 0.003, rng);
    samples.push_back(genome::build_sample("contaminant", reads, codec, 3));
    truth.push_back(clades);
  }
  const auto n = static_cast<std::int64_t>(samples.size());

  genome::GenomeAtScaleOptions options;
  options.k = k;
  options.ranks = ranks;
  options.core.batch_count = 4;
  const auto result = genome::run_genome_at_scale(samples, options);
  const auto distances = result.similarity.distance_matrix();

  // k-medoids over d_J (a proper metric, §II-A) recovers the clades.
  const auto labels = analysis::k_medoids(distances, n, clades + 1, /*seed=*/7);
  TextTable clusters({"sample", "cluster", "true clade"});
  std::int64_t pure = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    clusters.add_row({result.sample_names[static_cast<std::size_t>(i)],
                      std::to_string(labels[static_cast<std::size_t>(i)]),
                      std::to_string(truth[static_cast<std::size_t>(i)])});
    // Purity proxy: same cluster as the first member of its true clade.
    for (std::int64_t j = 0; j < n; ++j) {
      if (truth[static_cast<std::size_t>(j)] == truth[static_cast<std::size_t>(i)]) {
        pure += labels[static_cast<std::size_t>(j)] == labels[static_cast<std::size_t>(i)]
                    ? 1
                    : 0;
        break;
      }
    }
  }
  std::printf("k-medoids clustering over Jaccard distances:\n");
  clusters.print();
  std::printf("\nClade agreement: %lld / %lld samples grouped with their clade's "
              "representative\n\n",
              static_cast<long long>(pure), static_cast<long long>(n));

  // Outlier scores flag the contaminant (§II-D).
  const auto scores = analysis::knn_outlier_scores(distances, n, 3);
  std::int64_t worst = 0;
  for (std::int64_t i = 1; i < n; ++i) {
    if (scores[static_cast<std::size_t>(i)] > scores[static_cast<std::size_t>(worst)]) {
      worst = i;
    }
  }
  std::printf("Highest 3-NN outlier score: %s (%.3f) -- expected: contaminant\n",
              result.sample_names[static_cast<std::size_t>(worst)].c_str(),
              scores[static_cast<std::size_t>(worst)]);
  return 0;
}
