// comm_model_validation — validates the paper's §III-C BSP analysis.
//
// The cost model predicts, per batch and per rank,
//     W(p, c) = O( z/√(cp) + c·n²/p )        [bandwidth term]
// for the SUMMA schedule, versus Θ(z) for the 1D ring and Θ(n²) for the
// MapReduce allreduce pattern (§VI). Because the bsp runtime counts every
// byte each rank sends, the bound is checked directly:
//   (a) rank sweep at c=1 — measured max bytes/rank must track z/√p+n²/p,
//   (b) replication sweep at fixed p — input term shrinks as 1/√c while
//       the output-reduction term grows as c,
//   (c) schedule comparison — SUMMA vs ring vs MapReduce bytes,
//   (d) cost-model drift — every collective's α-β prediction against its
//       measured time; the exit code gates each data primitive's ratio.
#include <cmath>

#include "baselines/mapreduce_jaccard.hpp"
#include "bench_common.hpp"

using namespace sas;
using namespace sas::bench;

namespace {

/// Predicted bandwidth volume per rank (bytes sent over the whole run).
/// Input: the redistribution, transposes and broadcasts move each rank
/// 2z/√(cp) nonzeros, and the compact panel wire (distmat/panel_wire.hpp)
/// codes each nonzero as one LEB128 gap between set bits, about the
/// varint length of the mean gap 1/density: ⌈log₂(1/density)/7⌉ bytes.
/// Output: the rank's c·n²/p block of 8-byte words, moved once at c = 1
/// (the gather to the root) and once per batch at c > 1, where every
/// batch reduces the layers' partial sums onto layer 0.
double predicted_bytes(double z, double n, double density, int p, int c,
                       std::int64_t batches) {
  const double bytes_per_nonzero = std::ceil(std::log2(1.0 / density) / 7.0);
  const double input_term =
      bytes_per_nonzero * 2.0 * z / std::sqrt(static_cast<double>(c * p));
  const double output_term =
      8.0 * static_cast<double>(c) * n * n / p * static_cast<double>(c > 1 ? batches : 1);
  return input_term + output_term;
}

}  // namespace

int main() {
  const std::int64_t m = std::int64_t{1} << 19;
  const std::int64_t n = 512;
  const double density = 2e-3;
  const std::int64_t batches = 4;
  const double z = density * static_cast<double>(m) * static_cast<double>(n);
  print_header("BSP cost model validation",
               "Besta et al., IPDPS'20, §III-C analysis + §VI MapReduce comparison",
               "m=2^19, n=512, density=2e-3 (z ~ " +
                   fmt_count(static_cast<std::uint64_t>(z)) + " nonzeros), 4 batches");
  const core::BernoulliSampleSource source(m, n, density, 13);

  // (a) rank sweep, c = 1.
  std::printf("(a) SUMMA rank sweep (c=1): measured max bytes/rank vs model\n");
  TextTable ranks_table({"active ranks", "measured bytes/rank", "model bytes/rank",
                         "measured/model", "supersteps"});
  for (int ranks : {1, 4, 9, 16, 25}) {
    core::Config config;
    config.batch_count = batches;
    const RunResult run = run_driver(ranks, source, config);
    const int active = run.result.active_ranks;
    const double model = predicted_bytes(z, static_cast<double>(n), density, active, 1, batches);
    ranks_table.add_row(
        {std::to_string(active), fmt_bytes(static_cast<double>(run.cost.max_bytes)),
         fmt_bytes(model),
         fmt_fixed(static_cast<double>(run.cost.max_bytes) / model, 2),
         std::to_string(run.cost.max_supersteps)});
  }
  ranks_table.print();
  std::printf("Shape to match: measured/model stays O(1) across the sweep — the\n"
              "constant-factor ratio must not grow with p.\n\n");

  // (b) replication sweep at p = 16.
  std::printf("(b) replication sweep at 16 ranks: c ∈ {1, 2, 4}\n");
  TextTable c_table({"c", "grid", "measured bytes/rank", "model bytes/rank",
                     "measured/model"});
  for (int c : {1, 2, 4}) {
    core::Config config;
    config.batch_count = batches;
    config.replication = c;
    const RunResult run = run_driver(16, source, config);
    const int active = run.result.active_ranks;
    const int side = static_cast<int>(std::sqrt(active / c));
    const double model = predicted_bytes(z, static_cast<double>(n), density, active, c, batches);
    c_table.add_row({std::to_string(c),
                     std::to_string(side) + "x" + std::to_string(side) + "x" +
                         std::to_string(c),
                     fmt_bytes(static_cast<double>(run.cost.max_bytes)), fmt_bytes(model),
                     fmt_fixed(static_cast<double>(run.cost.max_bytes) / model, 2)});
  }
  c_table.print();
  std::printf("Shape to match: the model (input term ↓ 1/√c, output term ↑ c) keeps\n"
              "tracking the measurement as c varies.\n\n");

  // (c) schedule comparison at 16 ranks, at two operating points:
  // input-dominated (z >> n²) and output-dominated (n² >> z/√p) — the
  // latter is where the MapReduce allreduce pattern hurts most.
  auto compare_schedules = [&](const core::SampleSource& src, std::int64_t batches,
                               const char* label) {
    std::printf("(c) schedule comparison at 16 ranks — %s\n", label);
    TextTable sched({"schedule", "max bytes/rank", "total bytes", "max flops/rank"});
    core::Config config;
    config.batch_count = batches;
    const RunResult summa = run_driver(16, src, config);
    sched.add_row({"SUMMA 2D (this work)",
                   fmt_bytes(static_cast<double>(summa.cost.max_bytes)),
                   fmt_bytes(static_cast<double>(summa.cost.total_bytes)),
                   fmt_count(summa.cost.max_flops)});
    config.algorithm = core::Algorithm::kRing1D;
    const RunResult ring = run_driver(16, src, config);
    sched.add_row({"1D ring (panel circulation)",
                   fmt_bytes(static_cast<double>(ring.cost.max_bytes)),
                   fmt_bytes(static_cast<double>(ring.cost.total_bytes)),
                   fmt_count(ring.cost.max_flops)});
    std::vector<bsp::CostCounters> mr_counters;
    (void)baselines::mapreduce_jaccard_threaded(16, src, batches, &mr_counters);
    const auto mr = bsp::CostSummary::aggregate(mr_counters);
    sched.add_row({"MapReduce + allreduce (sec. VI)",
                   fmt_bytes(static_cast<double>(mr.max_bytes)),
                   fmt_bytes(static_cast<double>(mr.total_bytes)),
                   fmt_count(mr.max_flops)});
    sched.print();
    std::printf("\n");
  };
  compare_schedules(source, 4, "input-dominated (n=512, z~536k)");
  const core::BernoulliSampleSource wide(std::int64_t{1} << 19, 1024, 2e-4, 17);
  compare_schedules(wide, 4, "output-dominated (n=1024, z~107k)");

  std::printf("Shape to match: SUMMA moves the fewest bytes per rank at both points.\n"
              "At the input-dominated point the ring pays Θ(z) input circulation. At the\n"
              "output-dominated point the two stay within about 10%% per rank: the output\n"
              "gather ships coded counts of one triangle of the output for both\n"
              "(ring_share, summa_share), so both are input-bound, and at 16 ranks the\n"
              "ring's ⌊p/2⌋ hops of a z/p panel cost what SUMMA's 2z/√p does.\n"
              "MapReduce pays the Θ(n²) allreduce the paper criticizes — dominant at the\n"
              "second operating point — plus quadratic reduce-side work on dense\n"
              "attribute rows.\n\n");

  // (d) cost-model drift gate: every instrumented collective books its
  // α-β prediction next to the measured time (obs::CollectiveScope). The
  // gate is deliberately loose — in-process "ranks" are threads
  // oversubscribing one host, so measured times wander far from the
  // network model — but it catches the failure modes that matter: a
  // primitive whose prediction went to zero (counter plumbing broke) or
  // a drift ratio off by >4 decades (model or clock broke). The barrier
  // row is printed but exempt from the ratio range: its measured time is
  // pure scheduler noise at p ≫ cores.
  std::printf("(d) cost-model drift: α-β predicted vs measured per primitive\n");
  obs::Observer observer(16, std::size_t{1} << 15);
  {
    core::Config config;
    config.batch_count = 2;
    (void)run_driver(16, source, config, &observer);
    config.algorithm = core::Algorithm::kRing1D;
    (void)run_driver(16, source, config, &observer);
  }
  const auto drift = observer.aggregate_drift();
  const auto fmt_sci = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", v);
    return std::string(buf);
  };
  TextTable drift_table(
      {"primitive", "samples", "predicted s", "measured s", "measured/predicted"});
  int data_primitives_ok = 0;
  bool gate_failed = false;
  for (std::size_t i = 0; i < obs::kPrimitiveCount; ++i) {
    const obs::DriftCell& cell = drift[i];
    if (cell.samples == 0) continue;
    const auto prim = static_cast<obs::Primitive>(i);
    const double ratio = cell.predicted_seconds > 0.0
                             ? cell.measured_seconds / cell.predicted_seconds
                             : 0.0;
    drift_table.add_row({obs::primitive_name(prim), fmt_count(cell.samples),
                         fmt_sci(cell.predicted_seconds), fmt_sci(cell.measured_seconds),
                         fmt_sci(ratio)});
    if (prim == obs::Primitive::kBarrier) continue;
    if (cell.predicted_seconds > 0.0 && cell.measured_seconds > 0.0 &&
        ratio >= 1e-4 && ratio <= 1e4) {
      ++data_primitives_ok;
    } else {
      std::printf("DRIFT GATE: %s out of range (predicted %.3e s, measured %.3e s)\n",
                  obs::primitive_name(prim), cell.predicted_seconds,
                  cell.measured_seconds);
      gate_failed = true;
    }
  }
  drift_table.print();
  if (data_primitives_ok < 3) {
    std::printf("DRIFT GATE: only %d data primitives exercised (need >= 3)\n",
                data_primitives_ok);
    gate_failed = true;
  }
  std::printf("drift gate: %d data primitives in range [1e-4, 1e4] — %s\n",
              data_primitives_ok, gate_failed ? "FAIL" : "ok");
  return gate_failed ? 1 : 0;
}
