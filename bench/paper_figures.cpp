// paper_figures — the paper's evaluation as one scenario table.
//
// Reproduces Besta et al., IPDPS'20, Fig. 2a–f and Fig. 3, plus the
// §III-C schedule and §III-B bitmask/filter ablations. Every figure is a
// list of tables; every table is a list of scenario rows (ranks, sample
// source, core::Config) and a list of named cells. One loop runs each
// row through the core driver and one printer renders the cells, each
// from the row's own run and, for the ratio columns, the table's first
// run. The binary takes no flags and prints every figure.
//
// Corpus substitution. The paper's corpora do not fit this reproduction:
// Kingsford is 2,580 RNASeq samples, BIGSI 446,506 bacterial/viral WGS
// samples over a 4^31 k-mer universe, and the synthetic set m = 32M rows
// by n = 10k samples, all on up to 1024 Stampede2 nodes. Each is replaced
// by a seeded Bernoulli indicator matrix in the same density regime,
// scaled to one host: the Kingsford stand-in keeps the paper's density
// with 1/5 of the samples, the BIGSI stand-in keeps the hypersparsity
// (>= 99.8% of rows all-zero) and an 8x column-density spread, and the
// synthetic sets keep p = 0.01. The paper's §V-D MCDRAM-as-L3 toggle
// needs hardware this host does not have; the bitmask width sweep is the
// working-set knob that stands in for it.
//
// Ranks are threads of one process, so rank counts above the host's
// cores oversubscribe it and wall-clock speedups saturate at the core
// count. Each table therefore reports both the measured times and the
// modelled BSP time from the runtime's cost counters, which is
// machine-independent and carries the paper's scaling shapes. Timed
// tables follow the paper's projection (Fig. 2): average the per-batch
// time after dropping warm-up batches, and project the total as that
// mean times the batch count.
//
// The schedule ablation is the 1-D vs 2-D comparison of Özkural and
// Aykanat ("1-D and 2-D Parallel Algorithms for All-Pairs Similarity
// Problem"), carried to the paper's 2.5D replication.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace sas;
using namespace sas::bench;

namespace {

/// The BSP machine behind every modelled time; the ratios (not the
/// absolute constants) drive the reported shapes.
const bsp::BspMachine kModel{5e-6, 5e-10, 1e-9};

/// Kingsford stand-in. Paper: n = 2,580 RNASeq samples, density about
/// 1.5e-4 (low variability). Scaled: n = 516 (1/5), m = 2^22 rows per
/// full pass (z about 325k).
core::BernoulliSampleSource kingsford_like() {
  return core::BernoulliSampleSource(/*universe=*/std::int64_t{1} << 22,
                                     /*samples=*/516, /*density=*/1.5e-4, /*seed=*/19);
}

/// BIGSI stand-in. Paper: n = 446,506 WGS samples, density about 4e-12
/// over m = 4^31 (hypersparse, highly variable column density). Scaled:
/// n = 768, m = 2^27, density 2e-6 (>= 99.8% of rows all-zero, z about
/// 206k), density spread 8x across columns as in BIGSI.
core::BernoulliSampleSource bigsi_like() {
  return core::BernoulliSampleSource(/*universe=*/std::int64_t{1} << 27,
                                     /*samples=*/768, /*density=*/2e-6, /*seed=*/31,
                                     /*density_spread=*/8.0);
}

core::Config batches(std::int64_t count) {
  core::Config config;
  config.batch_count = count;
  return config;
}

/// One scenario. `label` names the row where no Config field does.
struct Row {
  std::string label;
  int ranks;
  core::BernoulliSampleSource source;
  core::Config config;
};

/// Paper-style per-batch statistics: mean over batches after skipping
/// `warmup` of them (the paper skips the first 3 of 11 BIGSI batches).
struct BatchTiming {
  double mean_seconds = 0.0;
  double ci95 = 0.0;
};

BatchTiming summarize_batches(const std::vector<core::BatchStats>& batches,
                              std::size_t warmup) {
  StatAccumulator acc;
  for (std::size_t i = warmup < batches.size() ? warmup : 0; i < batches.size(); ++i) {
    acc.add(batches[i].seconds);
  }
  return {acc.mean(), acc.ci95_halfwidth()};
}

/// One measured row.
struct Run {
  const Row* row;
  RunResult out;
  BatchTiming timing;
  double modelled;  ///< kModel seconds from the run's cost counters
};

/// A cell reads its row's run and the table's first run (ratio columns).
using Cell = std::string (*)(const Run& run, const Run& first);

struct Column {
  const char* header;
  Cell cell;
};

struct Table {
  std::string title;  ///< printed above the table when non-empty
  std::size_t warmup;  ///< batches dropped before averaging time/batch
  std::vector<Column> columns;
  std::vector<Row> rows;
  std::string note;  ///< the paper shape to match, printed below
};

struct Figure {
  const char* experiment;
  const char* paper_ref;
  const char* workload;
  std::vector<Table> tables;
};

// ---- quantities the cells share

double projected(const Run& r) {
  return r.timing.mean_seconds * static_cast<double>(r.row->config.batch_count);
}

/// Mean traffic per batch: bytes summed over ranks, from the per-batch
/// counters BatchStats carries (fed by the bsp cost counters).
std::uint64_t mean_batch_bytes(const Run& r) {
  const auto& stats = r.out.result.batches;
  if (stats.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& b : stats) total += b.bytes_sent;
  return total / stats.size();
}

double flops_per_rank(const Run& r) {
  return static_cast<double>(r.out.cost.total_flops) / r.out.result.active_ranks;
}

double nonzeros(const Run& r) {
  const core::BernoulliSampleSource& s = r.row->source;
  return s.density() * static_cast<double>(s.attribute_universe()) *
         static_cast<double>(s.sample_count());
}

std::int64_t packed_nnz(const Run& r) {
  std::int64_t total = 0;
  for (const auto& b : r.out.result.batches) total += b.packed_nnz;
  return total;
}

std::int64_t word_rows(const Run& r) {
  std::int64_t total = 0;
  for (const auto& b : r.out.result.batches) total += b.word_rows;
  return total;
}

// ---- cells

std::string label(const Run& r, const Run&) { return r.row->label; }
std::string ranks(const Run& r, const Run&) { return std::to_string(r.row->ranks); }
std::string active_ranks(const Run& r, const Run&) {
  return std::to_string(r.out.result.active_ranks);
}
std::string ranks_and_active(const Run& r, const Run&) {
  return std::to_string(r.row->ranks) + " (" +
         std::to_string(r.out.result.active_ranks) + ")";
}
std::string batch_count(const Run& r, const Run&) {
  return std::to_string(r.row->config.batch_count);
}
std::string rows_per_batch(const Run& r, const Run&) {
  return fmt_count(static_cast<std::uint64_t>(r.row->source.attribute_universe() /
                                              r.row->config.batch_count));
}
std::string rows_m(const Run& r, const Run&) {
  return fmt_count(static_cast<std::uint64_t>(r.row->source.attribute_universe()));
}
std::string samples_n(const Run& r, const Run&) {
  return fmt_count(static_cast<std::uint64_t>(r.row->source.sample_count()));
}
std::string columns(const Run& r, const Run&) {
  return std::to_string(r.row->source.sample_count());
}
std::string density(const Run& r, const Run&) {
  return fmt_fixed(r.row->source.density(), 4);
}
std::string nnz_z(const Run& r, const Run&) {
  return fmt_count(static_cast<std::uint64_t>(nonzeros(r)));
}
std::string bit_width(const Run& r, const Run&) {
  return std::to_string(r.row->config.bit_width);
}
std::string time_per_batch(const Run& r, const Run&) {
  return fmt_duration(r.timing.mean_seconds);
}
std::string ci95(const Run& r, const Run&) { return fmt_duration(r.timing.ci95); }
std::string projected_total(const Run& r, const Run&) {
  return fmt_duration(projected(r));
}
std::string wall_total(const Run& r, const Run&) {
  return fmt_duration(r.out.wall_seconds);
}
std::string projection_err(const Run& r, const Run&) {
  const double wall = r.out.wall_seconds;
  const double err = wall > 0 ? 100.0 * (projected(r) - wall) / wall : 0.0;
  return fmt_fixed(err, 1) + "%";
}
std::string bytes_per_batch(const Run& r, const Run&) {
  return std::to_string(mean_batch_bytes(r));
}
std::string max_bytes(const Run& r, const Run&) {
  return fmt_bytes(static_cast<double>(r.out.cost.max_bytes));
}
std::string max_flops(const Run& r, const Run&) {
  return fmt_count(r.out.cost.max_flops);
}
std::string modelled(const Run& r, const Run&) { return fmt_duration(r.modelled); }
std::string model_speedup(const Run& r, const Run& first) {
  return fmt_fixed(first.modelled / r.modelled, 2) + "x";
}
std::string model_efficiency(const Run& r, const Run& first) {
  const double speedup = first.modelled / r.modelled;
  return fmt_fixed(100.0 * speedup / r.out.result.active_ranks, 1) + "%";
}
std::string model_time_vs_first(const Run& r, const Run& first) {
  return fmt_fixed(r.modelled / first.modelled, 2) + "x";
}
std::string flops_rank(const Run& r, const Run&) {
  return fmt_count(static_cast<std::uint64_t>(flops_per_rank(r)));
}
std::string work_vs_first(const Run& r, const Run& first) {
  return fmt_fixed(flops_per_rank(r) / flops_per_rank(first), 2) + "x";
}
std::string model_per_nnz(const Run& r, const Run&) {
  return fmt_fixed(1e9 * r.modelled / nonzeros(r), 2) + " ns";
}
std::string packed_entries(const Run& r, const Run&) {
  return fmt_count(static_cast<std::uint64_t>(packed_nnz(r)));
}
std::string entry_ratio(const Run& r, const Run& first) {
  return fmt_fixed(static_cast<double>(packed_nnz(first)) /
                       static_cast<double>(packed_nnz(r)), 1) + "x fewer";
}
std::string word_rows_cell(const Run& r, const Run&) {
  return fmt_count(static_cast<std::uint64_t>(word_rows(r)));
}
std::string row_space_ratio(const Run& r, const Run& first) {
  return fmt_fixed(static_cast<double>(word_rows(first)) /
                       static_cast<double>(word_rows(r)), 1) + "x fewer";
}
/// The §III-B storage trade-off: row starts scale with word-rows, and
/// each entry costs an index plus a mask (see distmat/csr.hpp).
std::string csr_storage(const Run& r, const Run&) {
  const auto row_starts =
      word_rows(r) + static_cast<std::int64_t>(r.out.result.batches.size());
  return fmt_bytes(static_cast<double>(row_starts * 8 + packed_nnz(r) * (8 + 8)));
}

// ---- the figures

std::vector<Figure> paper_figures() {
  const core::BernoulliSampleSource kingsford = kingsford_like();
  const core::BernoulliSampleSource bigsi = bigsi_like();
  std::vector<Figure> figures;

  // Fig. 2a: the batch size doubles with the rank count (constant batch
  // count x size = the full matrix); then ranks outnumber the columns.
  Table strong{
      "", 1,
      {{"ranks(grid-active)", ranks_and_active}, {"batches", batch_count},
       {"time/batch", time_per_batch}, {"ci95", ci95},
       {"projected total", projected_total}, {"actual total", wall_total},
       {"bytes/batch", bytes_per_batch}, {"modelled BSP", modelled},
       {"speedup(model)", model_speedup}},
      {},
      "Paper shape to match: projected total drops steeply to a sweet spot\n"
      "(42.2x at 32 nodes), with per-batch time roughly flat while batch size\n"
      "doubles with the rank count."};
  for (int p : {1, 4, 9, 16, 25, 36}) {
    strong.rows.push_back({"", p, kingsford, batches(std::max<std::int64_t>(64 / p, 2))});
  }
  Table imbalance{
      "Load-imbalance regime (paper: 2048-8192 processes vs n=2580 columns):", 1,
      {{"ranks", ranks}, {"columns", columns}, {"time/batch", time_per_batch},
       {"modelled BSP", modelled}},
      {},
      "Expected: no further improvement (or regression) once ranks >> n."};
  const core::BernoulliSampleSource tiny(1 << 18, /*samples=*/24, 2e-3, 5);
  for (int p : {4, 16, 32}) imbalance.rows.push_back({"", p, tiny, batches(4)});
  figures.push_back({"Fig. 2a — Kingsford dataset, strong scaling",
                     "Besta et al., IPDPS'20, Figure 2a",
                     "Bernoulli stand-in: n=516, m=2^22, density=1.5e-4 "
                     "(paper: n=2580 RNASeq, density 1.5e-4)",
                     {strong, imbalance}});

  // Fig. 2b: as 2a on the hypersparse corpus, skipping 3 warm-up batches
  // ("averaged across eight batches, not considering the first three");
  // the full run is measured too, the paper's projection-vs-actual check.
  Table bigsi_strong{
      "", 3,
      {{"ranks", active_ranks}, {"batches", batch_count},
       {"time/batch", time_per_batch}, {"ci95", ci95},
       {"projected total", projected_total}, {"actual total", wall_total},
       {"projection err", projection_err}, {"bytes/batch", bytes_per_batch},
       {"modelled BSP", modelled}},
      {},
      "Paper shape to match: per-batch time roughly constant while the batch size\n"
      "doubles with ranks (37.3s-43.9s across 128-1024 nodes), so the projected\n"
      "total halves per doubling; projections track actual runs closely."};
  for (int p : {4, 9, 16, 25}) {
    bigsi_strong.rows.push_back({"", p, bigsi, batches(128 / p)});
  }
  figures.push_back({"Fig. 2b — BIGSI dataset, strong scaling",
                     "Besta et al., IPDPS'20, Figure 2b",
                     "Bernoulli stand-in: n=768, m=2^27, density=2e-6, 8x column-density "
                     "spread (paper: n=446506 WGS, density 4e-12)",
                     {bigsi_strong}});

  // Fig. 2c/2d: the batch count swept at 8 ranks.
  const std::vector<Column> batch_columns{
      {"batches", batch_count},       {"rows/batch", rows_per_batch},
      {"time/batch", time_per_batch}, {"projected total", projected_total},
      {"actual total", wall_total},   {"modelled BSP", modelled}};
  Table kingsford_batch{
      "", 1, batch_columns, {},
      "Paper shape to match: time/batch grows sub-linearly as batches shrink\n"
      "(0.67s at 16384 batches -> 6.78s at 1024 in the paper), so the projected\n"
      "total falls with increasing batch size."};
  for (int b : {128, 64, 32, 16, 8, 4}) {
    kingsford_batch.rows.push_back({"", 8, kingsford, batches(b)});
  }
  figures.push_back({"Fig. 2c — Kingsford dataset, batch-size sensitivity",
                     "Besta et al., IPDPS'20, Figure 2c",
                     "n=516, m=2^22, density=1.5e-4, fixed 8 ranks (paper: 8 nodes, "
                     "1024-16384 batches)",
                     {kingsford_batch}});
  Table bigsi_batch{
      "", 3, batch_columns, {},
      "Paper shape to match: projected total decreases monotonically with\n"
      "batch size; per-batch time grows far slower than the 16x batch growth."};
  for (int b : {256, 128, 64, 32, 16}) {
    bigsi_batch.rows.push_back({"", 8, bigsi, batches(b)});
  }
  figures.push_back({"Fig. 2d — BIGSI dataset, batch-size sensitivity",
                     "Besta et al., IPDPS'20, Figure 2d",
                     "n=768, m=2^27, density=2e-6, 8x column spread, fixed 8 ranks "
                     "(paper: 128 nodes)",
                     {bigsi_batch}});

  // Fig. 2e: strong scaling on the uniform synthetic set, total work fixed.
  Table synth_strong{
      "", 1,
      {{"ranks", active_ranks}, {"batches", batch_count},
       {"time/batch", time_per_batch}, {"actual total", wall_total},
       {"modelled BSP", modelled}, {"model speedup", model_speedup},
       {"model efficiency", model_efficiency}},
      {},
      "Paper shape to match: total time ∝ 1/ranks while time/batch slightly\n"
      "increases (113.7s at 2 batches vs 68.7s at 64 batches in the paper,\n"
      "against a 64x batch-size growth).\n"
      "Note: wall-clock speedup saturates at the host's physical core count;\n"
      "the modelled BSP columns carry the scaling shape."};
  const core::BernoulliSampleSource synth(std::int64_t{1} << 19, 384, 0.01, 7);
  for (int p : {1, 4, 9, 16}) {
    synth_strong.rows.push_back({"", p, synth, batches(64 / p)});
  }
  figures.push_back({"Fig. 2e — synthetic dataset, strong scaling",
                     "Besta et al., IPDPS'20, Figure 2e",
                     "m=2^19, n=384, density=0.01 (paper: m=32M, n=10k, p=0.01)",
                     {synth_strong}});

  // Fig. 2f: m, n and the batch size grow with the rank count; the
  // paper's work-vs-time ratio comes from the measured flop counters.
  Table weak{
      "", 1,
      {{"ranks", active_ranks}, {"#rows(m)", rows_m}, {"#samples(n)", samples_n},
       {"time/batch", time_per_batch}, {"actual total", wall_total},
       {"modelled BSP", modelled}, {"flops/rank", flops_rank},
       {"work/rank vs step0", work_vs_first},
       {"model time vs step0", model_time_vs_first}},
      {},
      "Paper shape: weak scaling is sustainable — per-rank work grows far slower\n"
      "than total work (64x total -> their 35.3x time; here 16x ranks carry 16x\n"
      "total work at ~3.6x work/rank). The paper additionally reports a 1.81x\n"
      "efficiency IMPROVEMENT at scale; that gain comes from amortizing their\n"
      "single-node startup/I/O overheads, which this in-process runtime does not\n"
      "have (its 1-rank baseline is already overhead-free), so the modelled time\n"
      "here grows mildly FASTER than work/rank."};
  weak.rows.push_back({"", 1, {std::int64_t{1} << 17, 128, 0.01, 7}, batches(8)});
  weak.rows.push_back({"", 4, {std::int64_t{1} << 18, 256, 0.01, 7}, batches(8)});
  weak.rows.push_back({"", 16, {std::int64_t{1} << 19, 512, 0.01, 7}, batches(8)});
  figures.push_back({"Fig. 2f — synthetic dataset, weak scaling",
                     "Besta et al., IPDPS'20, Figure 2f",
                     "(m, n) grow with ranks at density 0.01: (2^17,128) -> (2^19,512) "
                     "(paper: 100k,1k -> 3.2M,32k over 1 -> 4096 cores)",
                     {weak}});

  // Fig. 3: total time against the Bernoulli density at fixed ranks and
  // batches; it should track the nonzero count once work dominates.
  Table sparsity{
      "", 1,
      {{"density", density}, {"nnz(z)", nnz_z}, {"time/batch", time_per_batch},
       {"actual total", wall_total}, {"modelled BSP", modelled},
       {"model time per nnz", model_per_nnz}},
      {},
      "Paper shape to match: total time grows with density (0.5s at 1e-4 to\n"
      "85.4s at 1e-2 in the paper); time-per-nonzero flattens once the\n"
      "popcount kernel dominates fixed per-batch costs."};
  for (double d : {1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2}) {
    sparsity.rows.push_back({"", 8, {std::int64_t{1} << 19, 384, d, 7}, batches(4)});
  }
  figures.push_back({"Fig. 3 — impact of data sparsity",
                     "Besta et al., IPDPS'20, Figure 3",
                     "n=384, m=2^19, 8 ranks, 4 batches, density swept 1e-4 .. 1e-2 "
                     "(paper: n=10k, m=32M, 16 nodes)",
                     {sparsity}});

  // §III-C: one batched, filtered, bit-packed pipeline under every
  // schedule. The matrices are bit-identical (tests enforce it); the
  // split of traffic between the z-sized input and n²-sized output moves.
  Table schedules{
      "", 1,
      {{"schedule", label}, {"active ranks", active_ranks},
       {"max bytes/rank", max_bytes}, {"max flops/rank", max_flops},
       {"wall total", wall_total}, {"modelled BSP", modelled}},
      {},
      "Shapes to match:\n"
      "  * flops/rank drop ~p-fold for every parallel schedule (same algebra);\n"
      "  * ring pays Θ(z) bytes/rank; SUMMA pays Θ(z/√(cp) + cn²/p);\n"
      "  * replication c trades lower input traffic for a larger output\n"
      "    reduction — worthwhile when z dominates n²/√p."};
  const auto schedule = [&](const char* name, core::Algorithm algorithm, int p, int c) {
    core::Config config = batches(8);
    config.algorithm = algorithm;
    config.replication = c;
    schedules.rows.push_back({name, p, kingsford, config});
  };
  schedule("serial (1 rank)", core::Algorithm::kSerial, 1, 1);
  schedule("ring 1D", core::Algorithm::kRing1D, 16, 1);
  schedule("SUMMA 2D (c=1)", core::Algorithm::kSumma, 16, 1);
  schedule("SUMMA 2.5D (c=2)", core::Algorithm::kSumma, 16, 2);
  schedule("SUMMA 2.5D (c=4)", core::Algorithm::kSumma, 16, 4);
  figures.push_back({"Ablation — parallel schedule (serial / ring1D / SUMMA / 2.5D)",
                     "Besta et al., IPDPS'20, §III-C (communication-avoiding schedule)",
                     "Kingsford-like n=516, m=2^22, density=1.5e-4, 16 ranks, 8 batches",
                     {schedules}});

  // §III-B techniques 2-3: the bitmask width b (packed entries shrink up
  // to b-fold, CSR row starts by b) and the zero-row filter (without
  // compaction, hypersparse batches pack scattered rows into nearly-empty
  // words). Locally dense columns win entries and work outright; at
  // moderate density the win is the b-fold row-space reduction.
  const std::vector<Column> bit_columns{
      {"b", bit_width},           {"packed entries", packed_entries},
      {"entry ratio", entry_ratio}, {"word-rows", word_rows_cell},
      {"row-space ratio", row_space_ratio}, {"CSR storage", csr_storage},
      {"wall total", wall_total}, {"modelled BSP", modelled}};
  Table dense_bits{
      "(a) bitmask width sweep — locally dense (m=2^14, n=256, density=0.25) "
      "(filter ON, 8 ranks):",
      1, bit_columns, {}, ""};
  Table moderate_bits{
      "(a) bitmask width sweep — moderate density (m=2^19, n=384, density=0.01) "
      "(filter ON, 8 ranks):",
      1, bit_columns, {},
      "Shape to match (paper §III-B): the mask cuts the row space by b (up to\n"
      "64x fewer row starts) in BOTH regimes, \"while increasing the storage\n"
      "necessary for each nonzero by no more than 2-3x\"; entry counts\n"
      "collapse only where columns are locally dense after compaction."};
  for (int b : {1, 8, 32, 64}) {
    core::Config config = batches(8);
    config.bit_width = b;
    dense_bits.rows.push_back({"", 8, {std::int64_t{1} << 14, 256, 0.25, 7}, config});
    moderate_bits.rows.push_back({"", 8, {std::int64_t{1} << 19, 384, 0.01, 7}, config});
  }
  Table filter{
      "(b) zero-row filter on hypersparse input (b=64, 8 ranks):", 1,
      {{"filter", label}, {"packed entries", packed_entries},
       {"word-rows (sum over batches)", word_rows_cell}, {"wall total", wall_total},
       {"modelled BSP", modelled}},
      {},
      "Shape to match: the filter shrinks the virtual word-row space from m/b\n"
      "to |filter|/b (hundreds-fold here) — the difference between a feasible\n"
      "and an infeasible CSR row-start array on the real 4^31 k-mer universe.\n"
      "At this reproduction's scale the COO representation hides that memory\n"
      "cost, so the filter's own communication makes it net-slower in wall\n"
      "time.\n\n"
      "(c) §V-D stand-in: note how (a)'s wall times move by far less than the\n"
      "entry-count ratios — the kernel is bandwidth-friendly, matching the\n"
      "paper's finding that the MCDRAM-as-L3 toggle changed per-batch times\n"
      "only marginally (9.26s -> 9.33s on 4 nodes)."};
  for (bool on : {true, false}) {
    core::Config config = batches(16);
    config.use_zero_row_filter = on;
    filter.rows.push_back({on ? "ON  (Eq. 5-6)" : "OFF (ablated)", 8, bigsi, config});
  }
  figures.push_back({"Ablation — bitmask width b and zero-row filter",
                     "Besta et al., IPDPS'20, §III-B techniques 2-3; §V-D (substituted)",
                     "dense-ish: m=2^19, n=384, density=0.01; hypersparse: BIGSI-like",
                     {dense_bits, moderate_bits, filter}});
  return figures;
}

}  // namespace

int main() {
  for (const Figure& figure : paper_figures()) {
    print_header(figure.experiment, figure.paper_ref, figure.workload);
    for (const Table& table : figure.tables) {
      if (!table.title.empty()) std::printf("%s\n", table.title.c_str());
      std::vector<Run> runs;
      for (const Row& row : table.rows) {
        Run run{&row, run_driver(row.ranks, row.source, row.config), {}, 0.0};
        run.timing = summarize_batches(run.out.result.batches, table.warmup);
        run.modelled = kModel.modelled_seconds(run.out.cost);
        runs.push_back(std::move(run));
      }
      std::vector<std::string> header;
      for (const Column& column : table.columns) header.emplace_back(column.header);
      TextTable out(header);
      for (const Run& run : runs) {
        std::vector<std::string> cells;
        for (const Column& column : table.columns) {
          cells.push_back(column.cell(run, runs.front()));
        }
        out.add_row(cells);
      }
      out.print();
      std::printf("\n%s%s", table.note.c_str(), table.note.empty() ? "" : "\n\n");
    }
  }
  return 0;
}
