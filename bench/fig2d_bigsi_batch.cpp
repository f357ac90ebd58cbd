// fig2d_bigsi_batch — reproduces paper Fig. 2d.
//
// Batch-size sensitivity on the BIGSI-like hypersparse dataset at a fixed
// rank count (paper: 128 nodes, 16384-262144 batches). Same expected
// shape as Fig. 2c: larger batches amortize per-batch latency and
// synchronization, so the projected total drops (the paper's 24.1s/batch
// at the largest batch size vs 39.8s at the smallest — while batch size
// varies 16x).
#include "bench_common.hpp"

using namespace sas;
using namespace sas::bench;

int main() {
  const auto source = bigsi_like();
  print_header("Fig. 2d — BIGSI dataset, batch-size sensitivity",
               "Besta et al., IPDPS'20, Figure 2d",
               "n=768, m=2^27, density=2e-6, 8x column spread, fixed 8 ranks "
               "(paper: 128 nodes)");

  const bsp::BspMachine model = machine();
  const int ranks = 8;
  TextTable table({"batches", "rows/batch", "time/batch", "projected total",
                   "actual total", "modelled BSP"});
  for (int batches : {256, 128, 64, 32, 16}) {
    core::Config config;
    config.batch_count = batches;
    const RunResult run = run_driver(ranks, source, config);
    const BatchTiming timing = summarize_batches(run.result.batches, /*warmup=*/3);
    table.add_row({std::to_string(batches),
                   fmt_count(static_cast<std::uint64_t>(source.attribute_universe() /
                                                        batches)),
                   fmt_duration(timing.mean_seconds),
                   fmt_duration(timing.mean_seconds * batches),
                   fmt_duration(run.wall_seconds),
                   fmt_duration(model.modelled_seconds(run.cost))});
  }
  table.print();
  std::printf("\nPaper shape to match: projected total decreases monotonically with\n"
              "batch size; per-batch time grows far slower than the 16x batch growth.\n");
  return 0;
}
