// ablation_algorithm — design ablation over the parallel schedule.
//
// DESIGN.md calls out the schedule as the central design choice: the same
// batched, filtered, bit-packed pipeline can multiply with
//   * one rank (serial reference),
//   * a 1D column-panel ring (the "obvious" parallelization),
//   * 2D SUMMA, or 2.5D SUMMA with replication c ∈ {2, 4}
// and every variant returns bit-identical matrices (tests enforce this).
// What changes is communication volume and its split between the z-sized
// input term and the n²-sized output term — the heart of the paper's
// communication-avoidance claim.
#include "bench_common.hpp"

using namespace sas;
using namespace sas::bench;

int main() {
  print_header("Ablation — parallel schedule (serial / ring1D / SUMMA / 2.5D)",
               "Besta et al., IPDPS'20, §III-C (communication-avoiding schedule)",
               "Kingsford-like n=516, m=2^22, density=1.5e-4, 16 ranks, 8 batches");
  const auto source = kingsford_like();
  const bsp::BspMachine model = machine();

  struct Variant {
    const char* name;
    core::Algorithm algorithm;
    int ranks;
    int c;
  };
  const std::vector<Variant> variants{
      {"serial (1 rank)", core::Algorithm::kSerial, 1, 1},
      {"ring 1D", core::Algorithm::kRing1D, 16, 1},
      {"SUMMA 2D (c=1)", core::Algorithm::kSumma, 16, 1},
      {"SUMMA 2.5D (c=2)", core::Algorithm::kSumma, 16, 2},
      {"SUMMA 2.5D (c=4)", core::Algorithm::kSumma, 16, 4},
  };

  TextTable table({"schedule", "active ranks", "max bytes/rank", "max flops/rank",
                   "wall total", "modelled BSP"});
  for (const Variant& v : variants) {
    core::Config config;
    config.algorithm = v.algorithm;
    config.replication = v.c;
    config.batch_count = 8;
    const RunResult run = run_driver(v.ranks, source, config);
    table.add_row({v.name, std::to_string(run.result.active_ranks),
                   fmt_bytes(static_cast<double>(run.cost.max_bytes)),
                   fmt_count(run.cost.max_flops), fmt_duration(run.wall_seconds),
                   fmt_duration(model.modelled_seconds(run.cost))});
  }
  table.print();
  std::printf("\nShapes to match:\n"
              "  * flops/rank drop ~p-fold for every parallel schedule (same algebra);\n"
              "  * ring pays Θ(z) bytes/rank; SUMMA pays Θ(z/√(cp) + cn²/p);\n"
              "  * replication c trades lower input traffic for a larger output\n"
              "    reduction — worthwhile when z dominates n²/√p.\n");
  return 0;
}
