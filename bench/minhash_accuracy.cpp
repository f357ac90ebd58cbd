// minhash_accuracy — sketch-estimator accuracy vs exact Jaccard, and the
// CI accuracy gate for the sketch subsystem.
//
// Quantifies the paper's §I motivation ("these approximations often lead
// to inaccurate approximations of d_J for highly similar pairs ... and
// tend to be ineffective ... for highly dissimilar sets unless very
// large sketch sizes are used") across the two src/sketch/ estimators:
// genome pairs are generated at controlled true Jaccard levels via the
// point-mutation model and each estimator's mean absolute error over
// hash-seed trials is compared against the exact value the
// SimilarityAtScale pipeline computes by construction.
//
// Second half: the distributed sketch-exchange pipeline on a mutated-
// genome corpus — estimated SimilarityMatrix error vs the exact driver,
// and the communicated bytes from the bsp cost counters (the sketch ring
// moves O(samples_per_rank · sketch_bytes) per rotation step; the exact
// ring moves O(nnz) panel bytes).
//
// Third part: the hybrid (sketch-prune → exact-rescore) estimator on a
// pair-sparse family corpus — recall at the default prune threshold (no
// pair with true J ≥ threshold + slack may be pruned), bitwise parity of
// the surviving pairs against the exact driver, and the measured bytes
// of the sketch pass + targeted rescore vs the exact ring.
//
// EXIT CODE is the CI gate: non-zero when any default-size estimator's
// mean absolute Jaccard error exceeds its documented bound
// (oph_jaccard_error_bound / bottomk_jaccard_error_bound), when a sketch
// pipeline fails to communicate fewer bytes than the exact pipeline on
// this workload, or when the hybrid violates recall / parity / bytes on
// the family corpus.
// Fourth part (gated): the LSH-banded candidate pass vs the all-pairs
// sketch ring on a genome-family corpus — the all-pairs pass must keep
// every pair whose true J is at least threshold + slack, and the banded
// pass must keep each pair the all-pairs pass keeps there (equal prune
// recall) while exchanging fewer bytes.
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "baselines/exact_pairwise.hpp"
#include "bench_common.hpp"
#include "bsp/runtime.hpp"
#include "distmat/block.hpp"
#include "genome/kmer_source.hpp"
#include "genome/sample.hpp"
#include "genome/synthetic.hpp"
#include "sketch/bottomk.hpp"
#include "sketch/exchange.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "sketch/sketch.hpp"
#include "util/args.hpp"

using namespace sas;
using namespace sas::bench;

namespace {

constexpr std::int64_t kDefaultSketchSize = 1024;
constexpr int kDefaultMinhashBits = 16;

double estimate_once(const std::string& kind, std::span<const std::uint64_t> a,
                     std::span<const std::uint64_t> b, std::int64_t size,
                     std::uint64_t seed) {
  if (kind == "minhash") {
    return sketch::estimate_jaccard_wire(
        sketch::OnePermMinHash(a, size, kDefaultMinhashBits, seed).wire(),
        sketch::OnePermMinHash(b, size, kDefaultMinhashBits, seed).wire());
  }
  return sketch::estimate_jaccard_wire(
      sketch::BottomKSketch(a, static_cast<std::size_t>(size), seed).wire(),
      sketch::BottomKSketch(b, static_cast<std::size_t>(size), seed).wire());
}

std::int64_t sketch_bytes(const std::string& kind, std::int64_t size) {
  if (kind == "minhash") return size * kDefaultMinhashBits / 8;  // k·b/8
  return size * 8;                                               // bottom-k slots
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int k = 21;
  const std::int64_t genome_length = args.get_int("length", 60000);
  const int trials = args.get_int32("trials", 6);
  print_header("Sketch-estimator accuracy vs exact Jaccard (paper §I / §VI motivation)",
               "Besta et al., IPDPS'20, §I (Mash limitations) + sketch subsystem",
               "genome pairs at controlled true J, k=21, " +
                   std::to_string(genome_length) + "bp, " + std::to_string(trials) +
                   " hash seeds");

  const genome::KmerCodec codec(k);
  Rng rng(1234);
  const std::string base = genome::random_genome(genome_length, rng);
  const auto base_sample = genome::build_sample("base", {{"g", "", base}}, codec);

  // Default-size error accumulators for the CI gate.
  double gate_err_oph = 0.0;
  double gate_err_bk = 0.0;
  int gate_count = 0;

  struct Variant {
    const char* kind;
    std::vector<std::int64_t> sizes;  // slots k
  };
  // Minhash at 2,048 bins is 4,096 B, what HyperLogLog took at p = 12:
  // sketch/sketch.hpp records the equal-bytes comparison that deleted it.
  const std::vector<Variant> variants = {
      {"minhash", {128, kDefaultSketchSize, 2048, 8192}},
      {"bottomk", {128, kDefaultSketchSize, 8192}},
  };

  TextTable table({"true J (exact)", "regime", "estimator", "size", "bytes",
                   "mean |err|", "mean rel err"});
  for (double target : {0.999, 0.99, 0.9, 0.5, 0.1, 0.01, 0.002}) {
    const double rate = genome::mutation_rate_for_jaccard(k, target);
    const std::string mutated = genome::mutate_point(base, rate, rng);
    const auto other = genome::build_sample("m", {{"g", "", mutated}}, codec);
    const double truth = baselines::exact_jaccard(base_sample.kmers, other.kmers);
    const char* regime =
        target >= 0.9 ? "highly similar" : (target <= 0.01 ? "highly dissimilar" : "mid");

    for (const Variant& variant : variants) {
      for (std::int64_t size : variant.sizes) {
        double abs_err = 0.0;
        double rel_err = 0.0;
        for (int t = 0; t < trials; ++t) {
          const double est =
              estimate_once(variant.kind, base_sample.kmers, other.kmers, size,
                            100 + static_cast<std::uint64_t>(t));
          abs_err += std::fabs(est - truth);
          rel_err += truth > 0 ? std::fabs(est - truth) / truth : 0.0;
        }
        abs_err /= trials;
        rel_err /= trials;
        if (size == kDefaultSketchSize) {
          if (variant.kind == std::string("minhash")) gate_err_oph += abs_err;
          if (variant.kind == std::string("bottomk")) gate_err_bk += abs_err;
        }
        table.add_row({fmt_fixed(truth, 4), regime, variant.kind, std::to_string(size),
                       std::to_string(sketch_bytes(variant.kind, size)),
                       fmt_fixed(abs_err, 5), fmt_fixed(100.0 * rel_err, 1) + "%"});
      }
    }
    ++gate_count;
  }
  table.print();
  gate_err_oph /= gate_count;
  gate_err_bk /= gate_count;

  std::printf("\nShapes to match (paper's motivation):\n"
              "  * highly dissimilar pairs: relative error is huge at small sketches\n"
              "    (estimates quantize at 1/size or collapse to 0);\n"
              "  * highly similar pairs: the DISTANCE d_J = 1-J inherits the absolute\n"
              "    error, which dwarfs the tiny true distance;\n"
              "  * error shrinks ~1/sqrt(size), i.e. accuracy costs sketch bytes;\n"
              "  * the exact pipeline has zero error at every operating point.\n");

  // ---- distributed sketch-exchange pipeline vs the exact driver ----------
  std::printf("\nDistributed pipeline: sketch-exchange ring vs exact ring "
              "(12 mutated genomes, 4 ranks)\n\n");
  std::vector<genome::KmerSample> corpus;
  Rng corpus_rng(77);
  const std::string ancestor = genome::random_genome(20000, corpus_rng);
  for (int i = 0; i < 12; ++i) {
    const double rate = 0.002 * i;
    const std::string individual =
        i == 0 ? ancestor : genome::mutate_point(ancestor, rate, corpus_rng);
    corpus.push_back(
        genome::build_sample("s" + std::to_string(i), {{"g", "", individual}}, codec));
  }
  const genome::KmerSampleSource source(k, std::move(corpus));
  const std::int64_t n = source.sample_count();

  core::Config exact_cfg;
  exact_cfg.algorithm = core::Algorithm::kRing1D;
  exact_cfg.batch_count = 4;
  const RunResult exact = run_driver(4, source, exact_cfg);

  struct PipelineCase {
    const char* name;
    core::Estimator estimator;
    double bound;
  };
  const std::vector<PipelineCase> cases = {
      {"minhash", core::Estimator::kMinhash,
       sketch::oph_jaccard_error_bound(kDefaultSketchSize, kDefaultMinhashBits)},
      {"bottomk", core::Estimator::kBottomK,
       sketch::bottomk_jaccard_error_bound(kDefaultSketchSize)},
  };

  bool ok = true;
  TextTable pipe({"estimator", "mean |err|", "error bound", "max bytes/rank",
                  "total bytes", "vs exact bytes", "gate"});
  pipe.add_row({"exact", "0 (exact)", "0", std::to_string(exact.cost.max_bytes),
                std::to_string(exact.cost.total_bytes), "1.00x", "-"});
  for (const PipelineCase& c : cases) {
    core::Config cfg = exact_cfg;
    cfg.estimator = c.estimator;
    const RunResult run = run_driver(4, source, cfg);
    double err = 0.0;
    int pairs = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        err += std::fabs(run.result.similarity.similarity(i, j) -
                         exact.result.similarity.similarity(i, j));
        ++pairs;
      }
    }
    err /= pairs;
    const bool pass = err <= c.bound && run.cost.total_bytes < exact.cost.total_bytes;
    ok = ok && pass;
    pipe.add_row({c.name, fmt_fixed(err, 5), fmt_fixed(c.bound, 5),
                  std::to_string(run.cost.max_bytes), std::to_string(run.cost.total_bytes),
                  fmt_fixed(static_cast<double>(run.cost.total_bytes) /
                                static_cast<double>(exact.cost.total_bytes),
                            3) + "x",
                  pass ? "PASS" : "FAIL"});
  }
  pipe.print();

  // ---- hybrid: sketch-prune → exact-rescore on a pair-sparse corpus ------
  // Family corpus: 8 unrelated ancestors × 2 mutated members over 8 ranks.
  // Cross-family pairs (J ≈ 0) dominate — the regime the hybrid targets at
  // the default prune_threshold = 0.1.
  std::printf("\nHybrid estimator: sketch-prune -> exact-rescore "
              "(8 genome families x 2 members, 8 ranks, threshold 0.1)\n\n");
  std::vector<genome::KmerSample> families;
  Rng family_rng(55);
  std::vector<std::string> ancestors;
  for (int f = 0; f < 8; ++f) {
    ancestors.push_back(genome::random_genome(8000, family_rng));
  }
  for (int i = 0; i < 2; ++i) {
    for (int f = 0; f < 8; ++f) {
      const std::string individual =
          i == 0 ? ancestors[static_cast<std::size_t>(f)]
                 : genome::mutate_point(ancestors[static_cast<std::size_t>(f)], 0.02,
                                        family_rng);
      families.push_back(genome::build_sample(
          "f" + std::to_string(f) + "m" + std::to_string(i), {{"g", "", individual}},
          codec));
    }
  }
  const genome::KmerSampleSource family_source(k, std::move(families));
  const std::int64_t fn = family_source.sample_count();

  core::Config family_exact_cfg;
  family_exact_cfg.algorithm = core::Algorithm::kRing1D;
  family_exact_cfg.batch_count = 2;
  const RunResult family_exact = run_driver(8, family_source, family_exact_cfg);

  core::Config hybrid_cfg = family_exact_cfg;
  hybrid_cfg.estimator = core::Estimator::kHybrid;
  hybrid_cfg.prune_threshold = 0.1;
  const double slack = sketch::hybrid_prune_slack(hybrid_cfg);
  const RunResult hybrid = run_driver(8, family_source, hybrid_cfg);

  std::int64_t surviving = 0;
  std::int64_t recall_violations = 0;
  std::int64_t parity_violations = 0;
  std::int64_t must_survive = 0;
  for (std::int64_t i = 0; i < fn; ++i) {
    for (std::int64_t j = i + 1; j < fn; ++j) {
      const double truth = family_exact.result.similarity.similarity(i, j);
      const bool kept = hybrid.result.sparse_similarity.is_survivor(i, j);
      if (truth >= hybrid_cfg.prune_threshold + slack) {
        ++must_survive;
        if (!kept) ++recall_violations;
      }
      if (kept) {
        ++surviving;
        if (hybrid.result.similarity_at(i, j) != truth) ++parity_violations;
      }
    }
  }
  const bool hybrid_bytes_ok = hybrid.cost.total_bytes < family_exact.cost.total_bytes;
  const bool hybrid_ok =
      recall_violations == 0 && parity_violations == 0 && hybrid_bytes_ok;
  ok = ok && hybrid_ok;

  TextTable hybrid_table({"pipeline", "pairs kept", "recall@J>=thr+slack",
                          "exact-parity", "total bytes", "vs exact bytes", "gate"});
  hybrid_table.add_row({"exact ring", std::to_string(fn * (fn - 1) / 2), "-", "-",
                        std::to_string(family_exact.cost.total_bytes), "1.00x", "-"});
  hybrid_table.add_row(
      {"hybrid(" +
           std::string(sketch::estimator_wire_name(
               sketch::resolved_sketch_estimator(hybrid_cfg))) +
           ")",
       std::to_string(surviving),
       std::to_string(must_survive - recall_violations) + "/" +
           std::to_string(must_survive),
       parity_violations == 0 ? "bitwise" : std::to_string(parity_violations) + " FAIL",
       std::to_string(hybrid.cost.total_bytes),
       fmt_fixed(static_cast<double>(hybrid.cost.total_bytes) /
                     static_cast<double>(family_exact.cost.total_bytes),
                 3) + "x",
       hybrid_ok ? "PASS" : "FAIL"});
  hybrid_table.print();
  std::printf("\nslack (minhash mean-error bound at defaults): %.4f — no pair with\n"
              "true J >= threshold + slack may be pruned; survivors must be bitwise\n"
              "equal to the exact driver; total bytes must undercut the exact ring.\n",
              slack);

  // Per-stage breakdown of the hybrid run: shows where the remaining
  // bytes live (the replicated zero-row filter union inside pack/sketch
  // was the PR 3/4 floor; this run ships it compressed).
  std::printf("\nHybrid per-stage breakdown (max seconds over ranks, bytes summed):\n");
  TextTable stage_table({"stage", "seconds", "bytes sent", "messages"});
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    const core::StageStats& st = hybrid.result.stages.stages[s];
    stage_table.add_row({core::stage_name(static_cast<core::Stage>(s)),
                         fmt_fixed(st.seconds, 4), std::to_string(st.bytes_sent),
                         std::to_string(st.messages)});
  }
  stage_table.print();

  // ---- sparse result assembly vs the exact ring's dense gather -----------
  // Same family corpus: the hybrid's survivor gather against family_exact,
  // whose assemble stage is the exact ring's dense gather of all n² cells.
  // GATES: survivor values bitwise-identical to exact (the parity count
  // above), and the hybrid's assemble bytes, pack + assemble bytes, and
  // rank-0 resident output all strictly below the dense run.
  std::printf("\nSparse result assembly vs the exact ring's dense gather "
              "(same corpus)\n\n");
  const auto assemble_bytes = [](const RunResult& run) {
    return run.result.stages[core::Stage::kAssemble].bytes_sent;
  };
  const auto pack_bytes = [](const RunResult& run) {
    return run.result.stages[core::Stage::kPackSketch].bytes_sent;
  };
  const bool sparse_assemble_ok = assemble_bytes(hybrid) < assemble_bytes(family_exact);
  const bool sparse_floor_ok = assemble_bytes(hybrid) + pack_bytes(hybrid) <
                               assemble_bytes(family_exact) + pack_bytes(family_exact);
  const bool sparse_resident_ok =
      result_output_bytes(hybrid.result) < result_output_bytes(family_exact.result);
  const bool sparse_ok = parity_violations == 0 && sparse_assemble_ok &&
                         sparse_floor_ok && sparse_resident_ok;
  ok = ok && sparse_ok;

  TextTable sparse_table({"output path", "assemble bytes", "pack bytes",
                          "pack+assemble", "rank-0 output bytes", "parity", "gate"});
  const auto sparse_row = [&](const char* name, const RunResult& run, bool gated) {
    sparse_table.add_row(
        {name, std::to_string(assemble_bytes(run)), std::to_string(pack_bytes(run)),
         std::to_string(assemble_bytes(run) + pack_bytes(run)),
         std::to_string(result_output_bytes(run.result)),
         gated ? (parity_violations == 0 ? "bitwise" : "FAIL") : "-",
         gated ? (sparse_ok ? "PASS" : "FAIL") : "-"});
  };
  sparse_row("exact ring dense gather", family_exact, false);
  sparse_row("hybrid sparse survivor gather", hybrid, true);
  sparse_table.print();
  std::printf("\nsparse-output gate: survivor values bitwise-identical to exact;\n"
              "assemble bytes, pack+assemble bytes, and rank-0 resident output\n"
              "strictly below the exact ring's dense gather.\n");

  // ---- mask-first packing: pruned columns are never packed ---------------
  // Corpus with genuine prunables: 4 families x 2 members plus 8 singleton
  // genomes (no relative above the threshold). The hybrid pipeline defers
  // pack_batch until after the candidate pass, so the singletons' columns
  // are dropped BEFORE the zero-row filter union — pack/sketch-stage bytes
  // must come in strictly below the exact pipeline's, which packs every
  // column. (The family corpus above can't show this: every sample there
  // has a surviving partner, so its mask is all-ones.)
  std::printf("\nMask-first packing: pack bytes with prunable columns "
              "(4 families x 2 + 8 singletons, 8 ranks, threshold 0.1)\n\n");
  std::vector<genome::KmerSample> mf_corpus;
  Rng mf_rng(77);
  for (int f = 0; f < 4; ++f) {
    const std::string ancestor = genome::random_genome(6000, mf_rng);
    for (int m = 0; m < 2; ++m) {
      const std::string individual =
          m == 0 ? ancestor : genome::mutate_point(ancestor, 0.02, mf_rng);
      mf_corpus.push_back(genome::build_sample(
          "mf" + std::to_string(f) + "m" + std::to_string(m), {{"g", "", individual}},
          codec));
    }
  }
  for (int s = 0; s < 8; ++s) {
    mf_corpus.push_back(
        genome::build_sample("mfsingle" + std::to_string(s),
                             {{"g", "", genome::random_genome(6000, mf_rng)}}, codec));
  }
  const genome::KmerSampleSource mf_source(k, std::move(mf_corpus));
  const std::int64_t mfn = mf_source.sample_count();
  const RunResult mf_exact = run_driver(8, mf_source, family_exact_cfg);
  const RunResult mf_hybrid = run_driver(8, mf_source, hybrid_cfg);
  std::int64_t mf_parity_violations = 0;
  for (std::int64_t i = 0; i < mfn; ++i) {
    for (std::int64_t j = i + 1; j < mfn; ++j) {
      if (!mf_hybrid.result.sparse_similarity.is_survivor(i, j)) continue;
      if (mf_hybrid.result.similarity_at(i, j) !=
          mf_exact.result.similarity.similarity(i, j)) {
        ++mf_parity_violations;
      }
    }
  }
  const bool mf_pack_ok = pack_bytes(mf_hybrid) < pack_bytes(mf_exact);
  const bool mf_ok = mf_parity_violations == 0 && mf_pack_ok;
  ok = ok && mf_ok;
  TextTable mf_table({"pipeline", "pack/filter bytes", "parity", "gate"});
  mf_table.add_row({"exact (packs every column)", std::to_string(pack_bytes(mf_exact)),
                    "-", "-"});
  mf_table.add_row({"hybrid (mask-first pack)", std::to_string(pack_bytes(mf_hybrid)),
                    mf_parity_violations == 0 ? "bitwise" : "FAIL",
                    mf_ok ? "PASS" : "FAIL"});
  mf_table.print();
  std::printf("\nmask-first gate: hybrid pack/sketch bytes strictly below exact — the\n"
              "pruned columns never reach the zero-row filter union or the packer.\n");

  // ---- LSH-banded candidate pass vs the all-pairs ring -------------------
  // Larger family corpus (24 families x 2 members, 8 ranks): the regime
  // past the all-pairs pass's comfort zone. The banded pass must match
  // the all-pairs recall above threshold + slack while moving fewer
  // candidate-pass bytes than the all-pairs pass's panel hops.
  std::printf("\nLSH-banded candidate pass vs the all-pairs sketch ring "
              "(24 genome families x 2 members, 8 ranks, threshold 0.1)\n\n");
  std::vector<genome::KmerSample> lsh_corpus;
  Rng lsh_rng(91);
  for (int f = 0; f < 24; ++f) {
    const std::string ancestor = genome::random_genome(4000, lsh_rng);
    for (int m = 0; m < 2; ++m) {
      const std::string individual =
          m == 0 ? ancestor : genome::mutate_point(ancestor, 0.02, lsh_rng);
      lsh_corpus.push_back(genome::build_sample(
          "lf" + std::to_string(f) + "m" + std::to_string(m), {{"g", "", individual}},
          codec));
    }
  }
  const auto ln = static_cast<std::int64_t>(lsh_corpus.size());

  core::Config pass_cfg;
  pass_cfg.estimator = core::Estimator::kMinhash;
  pass_cfg.prune_threshold = 0.1;
  const double pass_slack = sketch::hybrid_prune_slack(pass_cfg);

  struct PassRun {
    sketch::CandidatePass pass;
    bsp::CostSummary cost;
  };
  const auto run_candidate_pass = [&](core::CandidateMode mode) {
    core::Config cfg = pass_cfg;
    cfg.candidate_mode = mode;
    PassRun out;
    auto counters = bsp::Runtime::run(8, [&](bsp::Comm& comm) {
      // The driver's layout: each rank holds its block of samples.
      const distmat::BlockRange mine = distmat::block_range(ln, comm.size(), comm.rank());
      std::vector<std::vector<std::uint64_t>> blobs;
      for (std::int64_t i = mine.begin; i < mine.end; ++i) {
        blobs.push_back(
            sketch::OnePermMinHash(
                std::span<const std::uint64_t>(
                    lsh_corpus[static_cast<std::size_t>(i)].kmers),
                cfg.sketch_size, cfg.minhash_bits, cfg.sketch_seed)
                .wire());
      }
      auto pass = sketch::sketch_candidate_pass(comm, blobs, ln, cfg);
      // Single writer (rank 0), read only after run() joins the ranks.
      if (comm.rank() == 0) out.pass = std::move(pass);
    });
    out.cost = bsp::CostSummary::aggregate(counters);
    return out;
  };
  const PassRun all_pairs_run = run_candidate_pass(core::CandidateMode::kAllPairs);
  const PassRun lsh_run = run_candidate_pass(core::CandidateMode::kLsh);

  std::int64_t lsh_must_survive = 0;
  std::int64_t lsh_recall_misses = 0;
  std::int64_t allpairs_recall_misses = 0;
  for (std::int64_t i = 0; i < ln; ++i) {
    for (std::int64_t j = i + 1; j < ln; ++j) {
      const double truth = baselines::exact_jaccard(
          lsh_corpus[static_cast<std::size_t>(i)].kmers,
          lsh_corpus[static_cast<std::size_t>(j)].kmers);
      if (truth < pass_cfg.prune_threshold + pass_slack) continue;
      ++lsh_must_survive;
      if (!all_pairs_run.pass.mask.test(i, j)) ++allpairs_recall_misses;
      if (!lsh_run.pass.mask.test(i, j)) ++lsh_recall_misses;
    }
  }
  const bool lsh_bytes_ok = lsh_run.cost.total_bytes < all_pairs_run.cost.total_bytes;
  const bool lsh_ok =
      allpairs_recall_misses == 0 && lsh_recall_misses <= allpairs_recall_misses && lsh_bytes_ok;
  ok = ok && lsh_ok;

  const auto fmt_recall = [&](std::int64_t misses) {
    return std::to_string(lsh_must_survive - misses) + "/" +
           std::to_string(lsh_must_survive);
  };
  TextTable lsh_table({"candidate pass", "plan", "pairs kept", "recall@J>=thr+slack",
                       "pass bytes", "vs all-pairs", "gate"});
  lsh_table.add_row(
      {"all-pairs ring", "-",
       std::to_string((all_pairs_run.pass.mask.count() - ln) / 2),
       fmt_recall(allpairs_recall_misses),
       std::to_string(all_pairs_run.cost.total_bytes), "1.00x", "-"});
  lsh_table.add_row(
      {"lsh-banded",
       "B=" + std::to_string(lsh_run.pass.plan.bands) +
           " R=" + std::to_string(lsh_run.pass.plan.rows_per_band),
       std::to_string((lsh_run.pass.mask.count() - ln) / 2),
       fmt_recall(lsh_recall_misses),
       std::to_string(lsh_run.cost.total_bytes),
       fmt_fixed(static_cast<double>(lsh_run.cost.total_bytes) /
                     static_cast<double>(all_pairs_run.cost.total_bytes),
                 3) + "x",
       lsh_ok ? "PASS" : "FAIL"});
  lsh_table.print();
  std::printf("\nbanded pass gate: the all-pairs pass keeps every pair with true\n"
              "J >= threshold + slack, the banded pass's recall is no worse at equal\n"
              "sketch budget, and its candidate-pass bytes are strictly below the\n"
              "all-pairs ring's (keys + colliding-pair blob fetches vs floor(p/2)\n"
              "panel hops).\n");

  // ---- the CI gate --------------------------------------------------------
  std::printf("\nAccuracy gate (mean |err| at default sizes vs documented bounds):\n");
  struct Gate {
    const char* name;
    double err;
    double bound;
  };
  for (const Gate& g : {Gate{"minhash k=1024 b=16", gate_err_oph,
                             sketch::oph_jaccard_error_bound(kDefaultSketchSize,
                                                             kDefaultMinhashBits)},
                        Gate{"bottomk k=1024", gate_err_bk,
                             sketch::bottomk_jaccard_error_bound(kDefaultSketchSize)}}) {
    const bool pass = g.err <= g.bound;
    ok = ok && pass;
    std::printf("  %-20s mean |err| %.5f  bound %.5f  %s\n", g.name, g.err, g.bound,
                pass ? "PASS" : "FAIL");
  }
  std::printf("\n%s\n", ok ? "sketch accuracy gate: PASS" : "sketch accuracy gate: FAIL");
  return ok ? 0 : 1;
}
