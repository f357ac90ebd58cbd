// fig2b_bigsi_strong — reproduces paper Fig. 2b.
//
// Strong scaling on the (scaled) BIGSI-like hypersparse dataset with
// highly variable column density. Protocol as in the paper: batch size
// doubles with the rank count, the per-batch time is averaged after
// skipping the first 3 warm-up batches ("averaged across eight batches,
// not considering the first three"), and the projected completion time is
// avg_batch_time × #batches. Because the scaled dataset fits, the actual
// full-run time is also measured — the paper's own projection-vs-actual
// check (0.42h projected vs 0.38h measured on 128 nodes).
#include "bench_common.hpp"

using namespace sas;
using namespace sas::bench;

int main() {
  const auto source = bigsi_like();
  print_header("Fig. 2b — BIGSI dataset, strong scaling",
               "Besta et al., IPDPS'20, Figure 2b",
               "Bernoulli stand-in: n=768, m=2^27, density=2e-6, 8x column-density "
               "spread (paper: n=446506 WGS, density 4e-12; DESIGN.md §2)");

  const bsp::BspMachine model = machine();
  TextTable table({"ranks", "batches", "time/batch", "ci95", "projected total",
                   "actual total", "projection err", "bytes/batch", "modelled BSP"});
  for (int ranks : {4, 9, 16, 25}) {  // perfect grids, stand-ins for 128..1024 nodes
    core::Config config;
    config.batch_count = 128 / ranks;  // batch size ∝ ranks, as in the paper
    const RunResult run = run_driver(ranks, source, config);
    const BatchTiming timing = summarize_batches(run.result.batches, /*warmup=*/3);
    const double projected =
        timing.mean_seconds * static_cast<double>(config.batch_count);
    const double err = run.wall_seconds > 0
                           ? 100.0 * (projected - run.wall_seconds) / run.wall_seconds
                           : 0.0;
    table.add_row({std::to_string(run.result.active_ranks),
                   std::to_string(config.batch_count),
                   fmt_duration(timing.mean_seconds), fmt_duration(timing.ci95),
                   fmt_duration(projected), fmt_duration(run.wall_seconds),
                   fmt_fixed(err, 1) + "%",
                   std::to_string(mean_batch_bytes(run.result.batches)),
                   fmt_duration(model.modelled_seconds(run.cost))});
  }
  table.print();
  std::printf(
      "\nPaper shape to match: per-batch time roughly constant while the batch size\n"
      "doubles with ranks (37.3s-43.9s across 128-1024 nodes), so the projected\n"
      "total halves per doubling; projections track actual runs closely.\n");
  return 0;
}
