// fig2a_kingsford_strong — reproduces paper Fig. 2a.
//
// Strong scaling on the (scaled) Kingsford-like low-variability dataset:
// the rank count doubles while the batch size doubles with it (constant
// batch count × size product = the full matrix), exactly the protocol of
// Fig. 2a. Reported per row: time/batch, #batches, projected total time
// (mean batch × batches, the paper's y-axis), actual total, and the
// modelled BSP time. A second table reproduces the paper's observation
// that performance deteriorates once ranks outnumber matrix columns
// ("the number of MPI processes starts to exceed the number of columns").
#include "bench_common.hpp"

using namespace sas;
using namespace sas::bench;

int main() {
  const auto source = kingsford_like();
  print_header("Fig. 2a — Kingsford dataset, strong scaling",
               "Besta et al., IPDPS'20, Figure 2a",
               "Bernoulli stand-in: n=516, m=2^22, density=1.5e-4 "
               "(paper: n=2580 RNASeq, density 1.5e-4; DESIGN.md §2)");

  const bsp::BspMachine model = machine();
  TextTable table({"ranks(grid-active)", "batches", "time/batch", "ci95",
                   "projected total", "actual total", "bytes/batch",
                   "modelled BSP", "speedup(model)"});
  double base_model = 0.0;
  for (int ranks : {1, 4, 9, 16, 25, 36}) {
    core::Config config;
    config.batch_count = std::max<std::int64_t>(64 / ranks, 2);  // batch size ∝ ranks
    const RunResult run = run_driver(ranks, source, config);
    const BatchTiming timing = summarize_batches(run.result.batches, /*warmup=*/1);
    const double projected =
        timing.mean_seconds * static_cast<double>(config.batch_count);
    const double modelled = model.modelled_seconds(run.cost);
    if (base_model == 0.0) base_model = modelled;
    table.add_row({std::to_string(ranks) + " (" +
                       std::to_string(run.result.active_ranks) + ")",
                   std::to_string(config.batch_count), fmt_duration(timing.mean_seconds),
                   fmt_duration(timing.ci95), fmt_duration(projected),
                   fmt_duration(run.wall_seconds),
                   std::to_string(mean_batch_bytes(run.result.batches)),
                   fmt_duration(modelled),
                   fmt_fixed(base_model / modelled, 2) + "x"});
  }
  table.print();

  std::printf("\nPaper shape to match: projected total drops steeply to a sweet spot\n"
              "(42.2x at 32 nodes), with per-batch time roughly flat while batch size\n"
              "doubles with the rank count.\n\n");

  // The load-imbalance regime: ranks approaching/exceeding n.
  std::printf("Load-imbalance regime (paper: 2048-8192 processes vs n=2580 columns):\n");
  const core::BernoulliSampleSource tiny(1 << 18, /*samples=*/24, 2e-3, 5);
  TextTable imbalance({"ranks", "columns", "time/batch", "modelled BSP"});
  for (int ranks : {4, 16, 32}) {
    core::Config config;
    config.batch_count = 4;
    const RunResult run = run_driver(ranks, tiny, config);
    const BatchTiming timing = summarize_batches(run.result.batches, 1);
    imbalance.add_row({std::to_string(ranks), "24", fmt_duration(timing.mean_seconds),
                       fmt_duration(machine().modelled_seconds(run.cost))});
  }
  imbalance.print();
  std::printf("\nExpected: no further improvement (or regression) once ranks >> n.\n");
  return 0;
}
