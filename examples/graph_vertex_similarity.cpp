// graph_vertex_similarity — the graph-analytics use case (paper §II-F).
//
// Vertex similarity |N(v)∩N(u)| / |N(v)∪N(u)| over adjacency sets: the
// indicator matrix is the graph's adjacency matrix (paper Table III,
// "Similarity of vertices: neighbors of one vertex / neighbors of one
// vertex"). A planted two-community graph is generated, all-pairs vertex
// similarity computed by the driver, and the similarities are used for
// Jarvis–Patrick-style community recovery plus link prediction (paper
// §II-F: "discovering missing links").
//
// Usage:
//   graph_vertex_similarity [--vertices 24] [--ranks 4] [--p-in 0.6] [--p-out 0.05]
#include <cstdio>
#include <vector>

#include "analysis/clustering.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace sas;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto n = args.get_int("vertices", 24);
  const int ranks = args.get_int32("ranks", 4);
  const double p_in = args.get_double("p-in", 0.6);
  const double p_out = args.get_double("p-out", 0.05);

  // Planted partition graph: two communities of n/2 vertices.
  Rng rng(4242);
  std::vector<std::vector<std::int64_t>> adjacency(static_cast<std::size_t>(n));
  auto community = [n](std::int64_t v) { return v < n / 2 ? 0 : 1; };
  std::int64_t edges = 0;
  // One held-out intra-community edge for the link-prediction demo.
  const std::int64_t held_u = 0;
  const std::int64_t held_v = 1;
  for (std::int64_t u = 0; u < n; ++u) {
    for (std::int64_t v = u + 1; v < n; ++v) {
      const double p = community(u) == community(v) ? p_in : p_out;
      if (u == held_u && v == held_v) continue;  // withhold this edge
      if (rng.bernoulli(p)) {
        adjacency[static_cast<std::size_t>(u)].push_back(v);
        adjacency[static_cast<std::size_t>(v)].push_back(u);
        ++edges;
      }
    }
  }
  std::printf("Planted-partition graph: %lld vertices, %lld edges "
              "(p_in=%.2f, p_out=%.2f); edge (%lld,%lld) withheld\n\n",
              static_cast<long long>(n), static_cast<long long>(edges), p_in, p_out,
              static_cast<long long>(held_u), static_cast<long long>(held_v));

  // Samples = neighborhood sets; universe = vertex ids.
  const core::VectorSampleSource source(n, std::move(adjacency));
  const auto result = core::similarity_at_scale_threaded(ranks, source, core::Config{});

  // Community recovery from the similarity-derived distances.
  const auto merges =
      analysis::hierarchical_cluster(result.similarity.distance_matrix(), n,
                                     analysis::Linkage::kAverage);
  const auto labels = analysis::cut_dendrogram(merges, n, 2);
  std::int64_t agree = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    if ((labels[static_cast<std::size_t>(v)] == labels[0]) == (community(v) == 0)) {
      ++agree;
    }
  }
  const double accuracy =
      std::max(agree, n - agree) / static_cast<double>(n);  // label-permutation safe
  std::printf("Community recovery from vertex Jaccard: %.1f%% of vertices correct\n\n",
              100.0 * accuracy);

  // Link prediction: rank non-adjacent pairs by similarity.
  TextTable table({"candidate pair", "Jaccard", "same community?"});
  std::vector<std::tuple<double, std::int64_t, std::int64_t>> candidates;
  for (std::int64_t u = 0; u < n; ++u) {
    for (std::int64_t v = u + 1; v < n; ++v) {
      bool adjacent = false;
      for (std::int64_t w : source.sample(u)) adjacent = adjacent || (w == v);
      if (!adjacent) {
        candidates.emplace_back(result.similarity.similarity(u, v), u, v);
      }
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());
  std::printf("Top predicted missing links (withheld edge should rank high):\n");
  for (std::size_t i = 0; i < candidates.size() && i < 5; ++i) {
    const auto [jac, u, v] = candidates[i];
    std::string pair = "(" + std::to_string(u) + "," + std::to_string(v) + ")";
    if (u == held_u && v == held_v) pair += "  <-- withheld edge";
    table.add_row({pair, fmt_fixed(jac, 3),
                   community(u) == community(v) ? "yes" : "no"});
  }
  table.print();
  return 0;
}
