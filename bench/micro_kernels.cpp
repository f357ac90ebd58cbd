// micro_kernels — google-benchmark microbenchmarks of the hot paths:
// the popcount-AND Eq. 7 kernels (legacy triplet merge-join vs the CSR
// tiled kernel, same shapes so the speedup reads directly off the
// items/sec column), CsrPanel construction, k-mer extraction, MinHash
// sketching and wire estimation, and triplet normalization. These are the
// per-operation costs behind every figure bench; regressions here move
// every curve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "distmat/csr.hpp"
#include "distmat/spgemm.hpp"
#include "genome/kmer.hpp"
#include "genome/synthetic.hpp"
#include "sketch/bottomk.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace {

using sas::Rng;
using sas::distmat::BlockRange;
using sas::distmat::DenseBlock;
using sas::distmat::SparseBlock;
using sas::distmat::Triplet;

SparseBlock random_block(std::int64_t rows, std::int64_t cols, double density,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet<std::uint64_t>> entries;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) entries.push_back({r, c, rng()});
    }
  }
  return SparseBlock::from_triplets(rows, cols, std::move(entries));
}

/// Eq. 7 kernel: B += popcount(L ∧ N) over matching word-rows.
void BM_PopcountJoin(benchmark::State& state) {
  const auto density = static_cast<double>(state.range(0)) / 1000.0;
  const SparseBlock block = random_block(512, 128, density, 42);
  DenseBlock<std::int64_t> out(BlockRange{0, 128}, BlockRange{0, 128});
  std::uint64_t flop_estimate = 0;
  for (auto _ : state) {
    std::fill(out.values.begin(), out.values.end(), 0);
    sas::bsp::CostCounters counters;
    popcount_join_accumulate(block.entries, block.entries, 0, 0, out, &counters);
    flop_estimate = counters.flops;
    benchmark::DoNotOptimize(out.values.data());
  }
  state.counters["madds/iter"] = static_cast<double>(flop_estimate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flop_estimate));
}
BENCHMARK(BM_PopcountJoin)->Arg(50)->Arg(200)->Arg(500)->Arg(900);

/// Times `kernel(panel, out, counters)` on a 512-word-row × 128-column
/// random panel of density state.range(0) / 1000, multiplied by itself.
/// The panel is built outside the timed region: in production it is
/// constructed once per received panel and reused across the multiply.
template <typename Kernel>
void time_self_product(benchmark::State& state, Kernel kernel) {
  const auto density = static_cast<double>(state.range(0)) / 1000.0;
  const SparseBlock block = random_block(512, 128, density, 42);
  const sas::distmat::CsrPanel panel = sas::distmat::CsrPanel::from_block(block);
  DenseBlock<std::int64_t> out(BlockRange{0, 128}, BlockRange{0, 128});
  std::uint64_t flop_estimate = 0;
  for (auto _ : state) {
    std::fill(out.values.begin(), out.values.end(), 0);
    sas::bsp::CostCounters counters;
    kernel(panel, out, &counters);
    flop_estimate = counters.flops;
    benchmark::DoNotOptimize(out.values.data());
  }
  state.counters["madds/iter"] = static_cast<double>(flop_estimate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flop_estimate));
}

/// Eq. 7 kernel, CSR tiled form — identical shapes to BM_PopcountJoin
/// (density 0.9 is the dense-ish synthetic case where the adaptive
/// dense-block path engages).
void BM_CsrAtaKernel(benchmark::State& state) {
  time_self_product(state, [](const sas::distmat::CsrPanel& panel,
                              DenseBlock<std::int64_t>& out, sas::bsp::CostCounters* counters) {
    csr_popcount_ata_accumulate(panel, panel, 0, 0, out, counters);
  });
}
BENCHMARK(BM_CsrAtaKernel)->Arg(50)->Arg(200)->Arg(500)->Arg(900);

/// The popcount SYRK on BM_CsrAtaKernel's panels: the same product's
/// upper triangle, diagonal included — what every diagonal block of the
/// schedules runs. Its madds/iter is about half of BM_CsrAtaKernel's, so
/// compare the two rows' time per iteration, not their rates.
void BM_CsrSyrkKernel(benchmark::State& state) {
  time_self_product(state, [](const sas::distmat::CsrPanel& panel,
                              DenseBlock<std::int64_t>& out, sas::bsp::CostCounters* counters) {
    csr_popcount_syrk_accumulate(panel, 0, 0, out, counters);
  });
}
BENCHMARK(BM_CsrSyrkKernel)->Arg(50)->Arg(200)->Arg(500)->Arg(900);

/// Wide-output variant where the column tiling matters: 1024 output
/// columns → the accumulator panel is 8 MiB and untiled traversal
/// thrashes L2. Arg(0) runs untiled (one huge tile); compare it
/// against the Arg(512) default-tile row.
void BM_CsrAtaKernelWide(benchmark::State& state) {
  const std::int64_t tile_cols = state.range(0);  // 0 = untiled (one huge tile)
  const SparseBlock block = random_block(512, 1024, 0.08, 47);
  const sas::distmat::CsrPanel panel = sas::distmat::CsrPanel::from_block(block);
  DenseBlock<std::int64_t> out(BlockRange{0, 1024}, BlockRange{0, 1024});
  std::uint64_t flop_estimate = 0;
  for (auto _ : state) {
    std::fill(out.values.begin(), out.values.end(), 0);
    sas::bsp::CostCounters counters;
    sas::distmat::CsrAtaOptions options;
    options.tile_cols = tile_cols == 0 ? std::int64_t{1} << 30 : tile_cols;
    options.allow_dense = false;  // isolate the sparse tile traversal
    csr_popcount_ata_accumulate(panel, panel, 0, 0, out, &counters, options);
    flop_estimate = counters.flops;
    benchmark::DoNotOptimize(out.values.data());
  }
  state.counters["madds/iter"] = static_cast<double>(flop_estimate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flop_estimate));
}
BENCHMARK(BM_CsrAtaKernelWide)->Arg(0)->Arg(512);

/// Dense-path streaming popcount: scalar cell-at-a-time dot products vs
/// the 2×2 register tile (popcount_and_sum_stream_2x2). Identical cell
/// grid and word count, so items/sec compares directly — the 2×2 form
/// loads each column word once per TWO output cells, halving the load
/// traffic per output; this pair is the gate for keeping the tiled path
/// on the dense kernel's unpruned cells. Arg = words per column.
void BM_DenseStreamScalar(benchmark::State& state) {
  const auto words = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kCells = 32;  // 32×32 output cells
  Rng rng(99);
  std::vector<std::uint64_t> lhs(words * kCells);
  std::vector<std::uint64_t> rhs(words * kCells);
  for (auto& w : lhs) w = rng();
  for (auto& w : rhs) w = rng();
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < kCells; ++i) {
      for (std::int64_t j = 0; j < kCells; ++j) {
        sink += sas::popcount_and_sum_stream(
            lhs.data() + static_cast<std::size_t>(i) * words,
            rhs.data() + static_cast<std::size_t>(j) * words, words);
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kCells *
                          kCells * static_cast<std::int64_t>(words));
}
BENCHMARK(BM_DenseStreamScalar)->Arg(64)->Arg(512);

void BM_DenseStream2x2(benchmark::State& state) {
  const auto words = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kCells = 32;
  Rng rng(99);
  std::vector<std::uint64_t> lhs(words * kCells);
  std::vector<std::uint64_t> rhs(words * kCells);
  for (auto& w : lhs) w = rng();
  for (auto& w : rhs) w = rng();
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < kCells; i += 2) {
      for (std::int64_t j = 0; j < kCells; j += 2) {
        std::uint64_t sums[4];
        sas::popcount_and_sum_stream_2x2(
            lhs.data() + static_cast<std::size_t>(i) * words,
            lhs.data() + static_cast<std::size_t>(i + 1) * words,
            rhs.data() + static_cast<std::size_t>(j) * words,
            rhs.data() + static_cast<std::size_t>(j + 1) * words, words, sums);
        sink += sums[0] + sums[1] + sums[2] + sums[3];
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kCells *
                          kCells * static_cast<std::int64_t>(words));
}
BENCHMARK(BM_DenseStream2x2)->Arg(64)->Arg(512);

/// Scalar vs AVX512 gather/scatter accumulate — the sparse tile loop's
/// inner kernel (spgemm.hpp "Kernel strategy" item 3). Same segment
/// shape for both rows, so items/sec compares directly; the dispatch
/// row resolves to the vectorized TU where the host has AVX512VPOPCNTDQ
/// and to the scalar inline kernel elsewhere. Arg = segment length
/// (columns hit per word-row).
void BM_ScatterScalar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<std::int64_t> cols(count);
  for (std::size_t i = 0; i < count; ++i) cols[i] = static_cast<std::int64_t>(i);
  for (std::size_t i = count; i > 1; --i) std::swap(cols[i - 1], cols[rng.uniform(i)]);
  std::vector<std::uint64_t> vals(count);
  for (auto& v : vals) v = rng();
  std::vector<std::int64_t> acc(count, 0);
  for (auto _ : state) {
    sas::popcount_and_scatter(rng(), cols.data(), vals.data(), count, acc.data());
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ScatterScalar)->Arg(64)->Arg(1024);

void BM_ScatterVector(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<std::int64_t> cols(count);
  for (std::size_t i = 0; i < count; ++i) cols[i] = static_cast<std::int64_t>(i);
  for (std::size_t i = count; i > 1; --i) std::swap(cols[i - 1], cols[rng.uniform(i)]);
  std::vector<std::uint64_t> vals(count);
  for (auto& v : vals) v = rng();
  std::vector<std::int64_t> acc(count, 0);
  for (auto _ : state) {
    sas::popcount_and_scatter_dispatch(rng(), cols.data(), vals.data(), count,
                                       acc.data());
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ScatterVector)->Arg(64)->Arg(1024);

/// CsrPanel construction — the once-per-received-panel cost the tiled
/// kernel amortizes (it replaces per-step triplet run re-derivation).
void BM_CsrPanelBuild(benchmark::State& state) {
  const auto density = static_cast<double>(state.range(0)) / 1000.0;
  const SparseBlock block = random_block(512, 128, density, 42);
  for (auto _ : state) {
    auto panel = sas::distmat::CsrPanel::from_block(block);
    benchmark::DoNotOptimize(panel.row_ptr.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * block.nnz());
}
BENCHMARK(BM_CsrPanelBuild)->Arg(200)->Arg(500);

/// Canonical k-mer extraction throughput (bases/second).
void BM_CanonicalKmers(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const sas::genome::KmerCodec codec(k);
  Rng rng(7);
  const std::string sequence = sas::genome::random_genome(1 << 16, rng);
  for (auto _ : state) {
    auto kmers = codec.canonical_kmers(sequence);
    benchmark::DoNotOptimize(kmers.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sequence.size()));
}
BENCHMARK(BM_CanonicalKmers)->Arg(19)->Arg(31);

/// Bottom-k MinHash sketch construction over a k-mer-sized element set.
void BM_BottomKSketch(benchmark::State& state) {
  const auto sketch_size = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::uint64_t> elements(100000);
  for (auto& e : elements) e = rng();
  for (auto _ : state) {
    sas::sketch::BottomKSketch sketch(elements, sketch_size, 5);
    benchmark::DoNotOptimize(sketch.hashes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elements.size()));
}
BENCHMARK(BM_BottomKSketch)->Arg(128)->Arg(1024)->Arg(8192);

/// b-bit one-permutation MinHash wire estimate (Arg = b, 1,024 bins):
/// every ordered pair of 16 sketches of overlapping sets per iteration —
/// the inner loop of the sketch ring and both candidate passes.
void BM_OphWireJaccard(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  constexpr std::int64_t kBins = 1024;
  constexpr std::size_t kSketches = 16;
  Rng rng(17);
  std::vector<std::uint64_t> shared(20000);
  for (auto& e : shared) e = rng();
  std::vector<std::vector<std::uint64_t>> wires;
  for (std::size_t s = 0; s < kSketches; ++s) {
    const auto common = static_cast<std::ptrdiff_t>(rng.uniform(shared.size()));
    std::vector<std::uint64_t> set(shared.begin(), shared.begin() + common);
    for (int e = 0; e < 5000; ++e) set.push_back(rng());
    wires.push_back(sas::sketch::OnePermMinHash(set, kBins, bits, 3).wire());
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& a : wires) {
      for (const auto& b : wires) sum += sas::sketch::estimate_jaccard_wire(a, b);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kSketches * kSketches,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OphWireJaccard)->Arg(1)->Arg(8)->Arg(16)->Arg(64);

/// Accumulating-write normalization (sort + OR-merge), the local half of
/// every redistribution, over a 1024 × 256 block. Arg 1 selects the
/// input order: 0 random, 1 ascending by column as a pack emits it, which
/// skips the column pass.
void BM_NormalizeTriplets(benchmark::State& state) {
  Rng rng(13);
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<Triplet<std::uint64_t>> base(count);
  for (auto& t : base) {
    t = {static_cast<std::int64_t>(rng.uniform(1024)),
         static_cast<std::int64_t>(rng.uniform(256)), rng()};
  }
  if (state.range(1) != 0) {
    std::sort(base.begin(), base.end(), [](const auto& a, const auto& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
  }
  for (auto _ : state) {
    auto copy = base;
    sas::distmat::normalize_triplets(
        copy, 1024, 256, [](std::uint64_t a, std::uint64_t b) { return a | b; });
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_NormalizeTriplets)
    ->Args({1 << 12, 0})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

/// Tracing-overhead gate (ROADMAP "Observability"): the span layer must
/// stay cheap enough to leave on — every instrumentation site is one
/// thread-local load plus a null check when unbound, and a clock pair
/// plus a bounded append when bound. The gate times identical 4-rank
/// exact 1D-ring driver runs with tracing off (null observer) and on
/// (fresh Observer each trial), interleaved min-of-N so scheduler noise
/// cancels, and fails the binary when the bound path costs >= 3%.
int run_tracing_overhead_gate() {
  const sas::core::BernoulliSampleSource source(std::int64_t{1} << 17, 96, 1e-3, 7);
  sas::core::Config config;
  config.algorithm = sas::core::Algorithm::kRing1D;
  config.batch_count = 2;

  constexpr int kTrials = 11;
  (void)sas::core::similarity_at_scale_threaded(4, source, config);  // warmup
  double best_off = 1e300;
  double best_on = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    {
      sas::Timer timer;
      (void)sas::core::similarity_at_scale_threaded(4, source, config);
      best_off = std::min(best_off, timer.seconds());
    }
    {
      sas::obs::Observer observer(4);
      sas::Timer timer;
      (void)sas::core::similarity_at_scale_threaded(4, source, config, nullptr,
                                                    &observer);
      best_on = std::min(best_on, timer.seconds());
    }
  }
  const double overhead = best_on / best_off - 1.0;
  std::printf(
      "tracing overhead (exact 1D ring, 4 ranks, min of %d): off %.2f ms, "
      "on %.2f ms, overhead %.2f%% (gate < 3%%)\n",
      kTrials, best_off * 1e3, best_on * 1e3, overhead * 100.0);
  return overhead >= 0.03 ? 1 : 0;
}

/// Vectorized-scatter speed gate (ROADMAP "Raw speed"): where the host
/// compiled the AVX512 scatter TU, the dispatched kernel must beat the
/// scalar inline kernel by >= 1.2x on a production-shaped segment
/// (min-of-N, interleaved). On hosts without AVX512VPOPCNTDQ the
/// dispatch IS the scalar kernel — the gate prints a skip and passes
/// (skip-not-fail: the parity tests still cover the delegation path).
int run_scatter_speed_gate() {
  if (!sas::popcount_scatter_vectorized()) {
    std::printf(
        "scatter speed gate: SKIP (no AVX512VPOPCNTDQ at build time; "
        "dispatch delegates to the scalar kernel)\n");
    return 0;
  }
  constexpr std::size_t kCount = 1024;
  constexpr int kReps = 2048;
  constexpr int kTrials = 15;
  Rng rng(33);
  std::vector<std::int64_t> cols(kCount);
  for (std::size_t i = 0; i < kCount; ++i) cols[i] = static_cast<std::int64_t>(i);
  for (std::size_t i = kCount; i > 1; --i) std::swap(cols[i - 1], cols[rng.uniform(i)]);
  std::vector<std::uint64_t> vals(kCount);
  for (auto& v : vals) v = rng();
  std::vector<std::uint64_t> words(kReps);
  for (auto& w : words) w = rng();
  std::vector<std::int64_t> acc(kCount, 0);

  // Volatile pointer: keeps the scalar kernel an out-of-line call like
  // the dispatch entry point (fair comparison), and stops GCC's full
  // unroll of the inlined tail loop (which trips a bogus
  // -Waggressive-loop-optimizations diagnostic at -O3).
  void (*volatile scalar_kernel)(std::uint64_t, const std::int64_t*,
                                 const std::uint64_t*, std::size_t,
                                 std::int64_t*) noexcept = sas::popcount_and_scatter;

  // Warm both paths before timing: the first AVX512 burst can carry a
  // frequency-license transition that would otherwise land in trial 0.
  for (int rep = 0; rep < kReps; ++rep) {
    scalar_kernel(words[static_cast<std::size_t>(rep)], cols.data(), vals.data(),
                  kCount, acc.data());
    sas::popcount_and_scatter_dispatch(words[static_cast<std::size_t>(rep)],
                                       cols.data(), vals.data(), kCount, acc.data());
  }

  const auto measure_speedup = [&] {
    double best_scalar = 1e300;
    double best_vector = 1e300;
    for (int t = 0; t < kTrials; ++t) {
      {
        sas::Timer timer;
        for (int rep = 0; rep < kReps; ++rep) {
          scalar_kernel(words[static_cast<std::size_t>(rep)], cols.data(), vals.data(),
                        kCount, acc.data());
        }
        best_scalar = std::min(best_scalar, timer.seconds());
      }
      {
        sas::Timer timer;
        for (int rep = 0; rep < kReps; ++rep) {
          sas::popcount_and_scatter_dispatch(words[static_cast<std::size_t>(rep)],
                                             cols.data(), vals.data(), kCount,
                                             acc.data());
        }
        best_vector = std::min(best_vector, timer.seconds());
      }
    }
    std::printf(
        "scatter speed gate (%zu cols x %d reps, min of %d): scalar %.3f us, "
        "vector %.3f us, speedup %.2fx (gate >= 1.2x)\n",
        kCount, kReps, kTrials, best_scalar * 1e6, best_vector * 1e6,
        best_scalar / best_vector);
    return best_scalar / best_vector;
  };
  // Shared/virtualized CI hosts jitter enough to smear a real ~1.3x
  // kernel speedup across the gate line; steal time and frequency
  // transitions only ever depress one side of a round. Up to three
  // measurement rounds, any clean round passes.
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    if (measure_speedup() >= 1.2) {
      benchmark::DoNotOptimize(acc.data());
      return 0;
    }
  }
  benchmark::DoNotOptimize(acc.data());
  std::printf("scatter speed gate: FAIL (< 1.2x in all %d rounds)\n", kRounds);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Both gates always run; either failing fails the binary.
  const int tracing = run_tracing_overhead_gate();
  const int scatter = run_scatter_speed_gate();
  return tracing != 0 || scatter != 0 ? 1 : 0;
}
