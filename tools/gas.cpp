// gas — the GenomeAtScale command-line tool.
//
// The paper ships GenomeAtScale as a tool that "maintains compatibility
// with standard bioinformatics data formats" so it can be "seamlessly
// integrated into existing analysis pipelines" (§IV, §VII). This binary
// is that tool: Mash-style subcommands over FASTA/FASTQ inputs, sample
// files, PHYLIP matrices, and Newick trees.
//
//   gas sketch   <in.fa|in.fq> ... --k 31 --min-count 1 --out-dir DIR
//                [--estimator hll|minhash|bottomk]
//       Extract canonical k-mer sets ("sorted numerical representation",
//       §IV) from sequence files, one .kmers sample file per input. With
//       --estimator, additionally persist each sample's sketch wire blob
//       (<sample>.kmers.<est>.sketch) next to it; later `gas dist`
//       sketch/hybrid runs with matching parameters load the blobs
//       instead of re-sketching.
//
//   gas dist     <a.kmers> <b.kmers> ... --ranks 8 --batches 16
//                [--phylip out.phylip] [--algorithm summa|ring|serial]
//                [--replication c] [--bits b] [--no-filter]
//                [--estimator exact|hll|minhash|bottomk|hybrid]
//       All-pairs Jaccard via the distributed SimilarityAtScale
//       pipeline; prints the distance matrix and optionally writes
//       PHYLIP for downstream tools. `hybrid` prunes the pair space with
//       minhash sketches (--sketch-size bins of --minhash-bits bits) at
//       --prune-threshold and rescores survivors exactly.
//
//   gas tree     <dist.phylip> [--out tree.nwk]
//       Neighbor-joining tree from a PHYLIP distance matrix (Fig. 1
//       steps 7/9: phylogenies and MSA guide trees).
//
//   gas simulate --samples 8 --length 20000 --rate 0.01 --out-dir DIR
//                [--reads] [--coverage 20] [--error 0.003]
//       Synthetic corpus generator (mutated relatives of one ancestor,
//       optionally as noisy sequencing reads) for testing pipelines.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/neighbor_joining.hpp"
#include "analysis/similar_pairs.hpp"
#include "analysis/upgma.hpp"
#include "core/config.hpp"
#include "core/matrix_io.hpp"
#include "genome/genome_at_scale.hpp"
#include "genome/kmer_source.hpp"
#include "genome/kmer_spectrum.hpp"
#include "genome/phylip.hpp"
#include "genome/synthetic.hpp"
#include "sketch/exchange.hpp"
#include "sketch/sketch.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace fs = std::filesystem;
using namespace sas;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gas <sketch|dist|tree|simulate> [args...]\n"
               "  gas sketch <seq files...> --k 31 [--min-count 1 | --auto-threshold]\n"
               "           [--fastq] [--out-dir .]\n"
               "           [--estimator hll|minhash|bottomk] [--sketch-size 1024]\n"
               "           [--hll-precision 12] [--minhash-bits 16] [--sketch-seed 1445]\n"
               "  gas dist <sample files...> --k 31 [--ranks 8] [--batches 16]\n"
               "           [--phylip out] [--similarity-out out.sasm] [--tsv out.tsv]\n"
               "           [--sparse-similarity-out out.sasp]\n"
               "           [--top N | --threshold J] [--algorithm summa|ring|serial]\n"
               "           [--replication 1] [--bits 64] [--no-filter]\n"
               "           [--estimator exact|hll|minhash|bottomk|hybrid]\n"
               "           [--sketch-size 1024] [--hll-precision 12]\n"
               "           [--minhash-bits 16] [--sketch-seed 1445]\n"
               "           [--prune-threshold 0.1] [--candidate-mode auto|allpairs|lsh]\n"
               "           [--checkpoint DIR] [--resume] [--watchdog-ms N]\n"
               "           [--fault-plan SPEC] [--verify-protocol]\n"
               "           [--max-retries N] [--retry-backoff-ms N]\n"
               "           [--quarantine] [--quarantine-manifest out.json]\n"
               "           [--mem-budget-mb N]\n"
               "           [--trace-out run.json] [--report-json report.json]\n"
               "  gas tree <dist.phylip> [--method nj|upgma] [--out tree.nwk]\n"
               "  gas simulate --samples 8 --length 20000 --rate 0.01 "
               "[--reads] [--coverage 20] [--error 0.003] [--seed 1] [--out-dir .]\n"
               "\n"
               "failure semantics (gas dist):\n"
               "  --checkpoint DIR   persist per-batch state; --resume skips completed\n"
               "                     batches (bitwise-identical result)\n"
               "  --watchdog-ms N    abort with a blocked-rank diagnostic if any rank\n"
               "                     waits longer than N ms in a BSP primitive\n"
               "  --fault-plan SPEC  deterministic fault injection for testing:\n"
               "                     'rank=R:op=K:throw|throw_transient|flip[=BYTE]|\n"
               "                     delay=MS[:count=N][:until=A]' (';'-joined);\n"
               "                     throw_transient fires while the batch attempt\n"
               "                     is < A (so retries heal it), count repeats\n"
               "                     the action N times per attempt\n"
               "  --max-retries N    replay a batch up to N times after a transient\n"
               "                     fault (rollback to the batch boundary, resync,\n"
               "                     re-run; replays are bitwise-identical)\n"
               "  --retry-backoff-ms N  base backoff before each replay (doubles per\n"
               "                     attempt, seeded jitter; default 10)\n"
               "  --quarantine       on retry exhaustion or a permanent fault, skip\n"
               "                     the failing batch and complete the run over the\n"
               "                     rest (exit code 9 marks the degraded result;\n"
               "                     the report names every skipped batch)\n"
               "  --quarantine-manifest F  also write the skipped-batch manifest\n"
               "                     (schema sas-quarantine-v1) to F\n"
               "  --mem-budget-mb N  per-rank memory budget: the pipeline's large\n"
               "                     allocations fail as a typed resource-exhausted\n"
               "                     error (exit code 8) instead of an OOM kill\n"
               "  --verify-protocol  arm the BSP protocol verifier: per-rank ledgers\n"
               "                     of every collective's (op, tag, elem, shape),\n"
               "                     cross-checked at barriers and run exit; a rank\n"
               "                     diverging from the collective sequence or leaving\n"
               "                     a send unreceived fails immediately with the\n"
               "                     ledger entries named (exit code 6). Also armed\n"
               "                     by the SAS_VERIFY_PROTOCOL env var (CI does);\n"
               "                     results are unchanged, checks only\n"
               "exit codes: 0 ok, 1 generic error, 2 bad config/usage,\n"
               "            3 corrupt input, 4 rank failure, 5 watchdog timeout,\n"
               "            6 protocol violation (--verify-protocol),\n"
               "            7 transient failure (retries exhausted or disabled),\n"
               "            8 resource exhausted (--mem-budget-mb / disk full),\n"
               "            9 completed DEGRADED (--quarantine skipped batches;\n"
               "              the result is valid over the surviving rows only)\n"
               "\n"
               "observability (gas dist):\n"
               "  --trace-out F      merge every rank's spans (stages, batches,\n"
               "                     collectives, checkpoint ops, LSH phases) into a\n"
               "                     Chrome trace-event JSON loadable in Perfetto;\n"
               "                     aborted runs flush a postmortem timeline\n"
               "  --report-json F    machine-readable run report: per-stage/per-batch\n"
               "                     byte+time tables, per-rank BSP counters and\n"
               "                     histograms, and per-primitive cost-model drift\n"
               "                     (alpha-beta predicted vs measured seconds)\n");
  return 2;
}

/// True when every `--flag` in `args` is one that `command` reads;
/// otherwise names each other flag (a typo such as --batchs would
/// silently run with the default) so the caller can exit via usage().
bool only_known_flags(const ArgParser& args, const char* command,
                      std::initializer_list<std::string_view> accepted) {
  const std::vector<std::string> unknown = args.unknown(accepted);
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "gas %s: unknown option --%s\n", command, name.c_str());
  }
  return unknown.empty();
}

std::string stem_of(const std::string& path) {
  return fs::path(path).stem().string();
}

/// Parse a sketch-estimator name; returns false on unknown names.
bool parse_sketch_estimator(const std::string& name, core::Estimator& out) {
  if (name == "hll") {
    out = core::Estimator::kHll;
  } else if (name == "minhash") {
    out = core::Estimator::kMinhash;
  } else if (name == "bottomk") {
    out = core::Estimator::kBottomK;
  } else {
    return false;
  }
  return true;
}

/// Shared sketch-parameter flags of `gas sketch` and `gas dist`. Bad
/// values throw error::ConfigError (exit 2) here, not inside the rank
/// threads.
void parse_sketch_params(const ArgParser& args, core::Config& core) {
  core.sketch_size = args.get_int("sketch-size", 1024);
  core.hll_precision = args.get_int32("hll-precision", 12);
  core.minhash_bits = args.get_int32("minhash-bits", 16);
  core.sketch_seed = static_cast<std::uint64_t>(args.get_int("sketch-seed", 0x5a5));
  sketch::validate_sketch_params(core);
}

int cmd_sketch(const ArgParser& args) {
  if (!only_known_flags(args, "sketch",
                        {"k", "min-count", "auto-threshold", "fastq", "out-dir",
                         "estimator", "sketch-size", "hll-precision", "minhash-bits",
                         "sketch-seed"})) {
    return usage();
  }
  if (args.positional().size() < 2) return usage();
  const int k = args.get_int32("k", 31);
  const bool fastq = args.get_bool("fastq", false);
  const bool auto_threshold = args.get_bool("auto-threshold", false);
  const fs::path out_dir = args.get_string("out-dir", ".");
  fs::create_directories(out_dir);

  // Optional sketch persistence: write each sample's wire blob next to
  // its .kmers file so matching `gas dist` runs skip re-sketching.
  core::Config sketch_cfg;
  bool persist_sketch = false;
  if (args.has("estimator")) {
    const std::string estimator = args.get_string("estimator", "minhash");
    if (!parse_sketch_estimator(estimator, sketch_cfg.estimator)) {
      std::fprintf(stderr, "gas sketch: unknown --estimator '%s'\n", estimator.c_str());
      return 2;
    }
    parse_sketch_params(args, sketch_cfg);
    persist_sketch = true;
  }

  const genome::KmerCodec codec(k);
  for (std::size_t i = 1; i < args.positional().size(); ++i) {
    const std::string& path = args.positional()[i];
    const auto records = fastq ? genome::read_fastq_file(path)
                               : genome::read_fasta_file(path);
    // Noise threshold: explicit --min-count, or the per-sample spectrum
    // valley when --auto-threshold is given (paper §V-A2 preprocessing).
    int min_count = args.get_int32("min-count", 1);
    if (auto_threshold) {
      min_count = genome::suggest_min_count(genome::build_spectrum(records, codec));
    }
    const auto sample = genome::build_sample(stem_of(path), records, codec, min_count);
    const fs::path out = out_dir / (stem_of(path) + ".kmers");
    genome::write_sample_file(out.string(), sample);
    std::printf("%s: %lld canonical %d-mers (min count %d%s) -> %s\n", path.c_str(),
                static_cast<long long>(sample.size()), k, min_count,
                auto_threshold ? ", auto" : "", out.string().c_str());
    if (persist_sketch) {
      sketch::AnySketch sk = sketch::make_sketch(sketch_cfg);
      const std::vector<std::uint64_t> blob = std::visit(
          [&](auto& s) {
            for (std::uint64_t kmer : sample.kmers) s.add(kmer);
            return s.wire();
          },
          sk);
      const std::string blob_path =
          out.string() + "." +
          sketch::estimator_wire_name(sketch_cfg.estimator) + ".sketch";
      sketch::write_wire_file(blob_path, blob);
      std::printf("  sketch blob (%zu words) -> %s\n", blob.size(), blob_path.c_str());
    }
  }
  return 0;
}

int cmd_dist(const ArgParser& args) {
  if (!only_known_flags(
          args, "dist",
          {"k", "ranks", "batches", "phylip", "similarity-out", "tsv",
           "sparse-similarity-out", "top", "threshold", "algorithm", "replication",
           "bits", "no-filter", "estimator", "sketch-size", "hll-precision",
           "minhash-bits", "sketch-seed", "prune-threshold",
           "candidate-mode", "checkpoint", "resume", "watchdog-ms", "fault-plan",
           "verify-protocol", "max-retries", "retry-backoff-ms", "quarantine",
           "quarantine-manifest", "mem-budget-mb", "trace-out", "report-json"})) {
    return usage();
  }
  if (args.positional().size() < 3) {
    std::fprintf(stderr, "gas dist: need at least two sample files\n");
    return 2;
  }
  const int k = args.get_int32("k", 31);
  genome::GenomeAtScaleOptions options;
  options.k = k;
  options.ranks = args.get_int32("ranks", 8);
  options.core.batch_count = args.get_int("batches", 16);
  options.core.bit_width = args.get_int32("bits", 64);
  options.core.replication = args.get_int32("replication", 1);
  options.core.use_zero_row_filter = !args.get_bool("no-filter", false);
  const std::string algorithm = args.get_string("algorithm", "summa");
  if (algorithm == "ring") {
    options.core.algorithm = core::Algorithm::kRing1D;
  } else if (algorithm == "serial") {
    options.core.algorithm = core::Algorithm::kSerial;
  } else if (algorithm == "summa") {
    options.core.algorithm = core::Algorithm::kSumma;
  } else {
    std::fprintf(stderr, "gas dist: unknown --algorithm '%s'\n", algorithm.c_str());
    return 2;
  }

  // Estimator selection (src/sketch/sketch.hpp documents the tradeoff):
  // exact is the paper's pipeline; the sketch estimators exchange fixed-
  // size summaries instead of k-mer panels, trading a documented error
  // bound for genome-size-independent communication; hybrid sketch-prunes
  // the pair space and rescores the survivors exactly.
  const std::string estimator = args.get_string("estimator", "exact");
  if (estimator == "exact") {
    options.core.estimator = core::Estimator::kExact;
  } else if (estimator == "hybrid") {
    options.core.estimator = core::Estimator::kHybrid;
  } else if (!parse_sketch_estimator(estimator, options.core.estimator)) {
    std::fprintf(stderr, "gas dist: unknown --estimator '%s'\n", estimator.c_str());
    return 2;
  }
  if (args.has("sparse-similarity-out") &&
      options.core.estimator != core::Estimator::kHybrid) {
    std::fprintf(stderr, "gas dist: --sparse-similarity-out needs --estimator hybrid\n");
    return 2;
  }
  parse_sketch_params(args, options.core);
  options.core.prune_threshold = args.get_double("prune-threshold", 0.1);
  if (options.core.prune_threshold < 0.0 || options.core.prune_threshold > 1.0) {
    std::fprintf(stderr, "gas dist: --prune-threshold must be in [0, 1]\n");
    return 2;
  }

  // Candidate-pass strategy of the hybrid: all-pairs sketch scoring or
  // LSH banding over the minhash registers (core/config.hpp documents
  // the auto rule and the banding S-curve tradeoff).
  const std::string candidate_mode = args.get_string("candidate-mode", "auto");
  if (candidate_mode == "auto") {
    options.core.candidate_mode = core::CandidateMode::kAuto;
  } else if (candidate_mode == "allpairs") {
    options.core.candidate_mode = core::CandidateMode::kAllPairs;
  } else if (candidate_mode == "lsh") {
    options.core.candidate_mode = core::CandidateMode::kLsh;
  } else {
    std::fprintf(stderr, "gas dist: unknown --candidate-mode '%s'\n",
                 candidate_mode.c_str());
    return 2;
  }
  if (args.get_int("top", 0) < 0) {
    std::fprintf(stderr, "gas dist: --top must be >= 0\n");
    return 2;
  }
  const double threshold = args.get_double("threshold", 0.9);
  // Fault-tolerance knobs (see "failure semantics" in the usage text).
  options.core.checkpoint_dir = args.get_string("checkpoint", "");
  options.core.resume = args.get_bool("resume", false);
  options.core.watchdog_ms = args.get_int("watchdog-ms", 0);
  options.core.fault_plan = args.get_string("fault-plan", "");
  options.core.verify_protocol = args.get_bool("verify-protocol", false);
  if (options.core.watchdog_ms < 0) {
    std::fprintf(stderr, "gas dist: --watchdog-ms must be >= 0\n");
    return 2;
  }

  // In-run recovery knobs (see "failure semantics" in the usage text).
  options.core.max_retries = args.get_int("max-retries", 0);
  options.core.retry_backoff_ms = args.get_int("retry-backoff-ms", 10);
  options.core.quarantine = args.get_bool("quarantine", false);
  options.core.quarantine_manifest = args.get_string("quarantine-manifest", "");
  options.core.mem_budget_mb = args.get_int("mem-budget-mb", 0);

  // Observability artifacts (see "observability" in the usage text); the
  // driver writes both on success AND on abort (postmortem timeline).
  options.core.trace_out = args.get_string("trace-out", "");
  options.core.report_json = args.get_string("report-json", "");

  std::vector<std::string> paths(args.positional().begin() + 1, args.positional().end());
  const genome::KmerFileSource source(k, paths);
  core::Result result = core::similarity_at_scale_threaded(options.ranks, source,
                                                           options.core);
  const auto names = source.sample_names();
  const auto n = result.n;

  if (result.degraded()) {
    // The run completed, but --quarantine skipped batches: say so up
    // front (and again via exit code 9 below) so nobody mistakes the
    // degraded similarities for the full-universe values.
    std::fprintf(stderr,
                 "gas dist: DEGRADED — %zu of %lld batches quarantined "
                 "(%lld replays ran); similarities cover the surviving "
                 "attribute rows only:\n",
                 result.quarantined.size(),
                 static_cast<long long>(options.core.batch_count),
                 static_cast<long long>(result.retries));
    for (const core::QuarantinedBatch& q : result.quarantined) {
      std::fprintf(stderr,
                   "  batch %lld (rows [%lld, %lld), %lld attempts): %s\n",
                   static_cast<long long>(q.batch),
                   static_cast<long long>(q.row_begin),
                   static_cast<long long>(q.row_end),
                   static_cast<long long>(q.attempts), q.reason.c_str());
    }
  }

  if (options.core.estimator == core::Estimator::kHybrid) {
    const core::CandidateMode mode =
        sketch::resolved_candidate_mode(options.core, n);
    std::printf("hybrid: %lld of %lld pairs survived the sketch prune "
                "(threshold %.3f, %s candidates); "
                "survivors rescored exactly\n\n",
                static_cast<long long>(result.sparse_similarity.survivor_count()),
                static_cast<long long>(n * (n - 1) / 2),
                options.core.prune_threshold,
                mode == core::CandidateMode::kLsh ? "lsh-banded" : "all-pairs");
  }

  // Dense view on demand: the full-matrix artifacts below reconstruct a
  // hybrid run's matrix once from its sparse output (explicitly quadratic
  // — the CLI's corpora are small; at scale, use --sparse-similarity-out
  // instead).
  core::SimilarityMatrix reconstructed;
  const auto dense_view = [&]() -> const core::SimilarityMatrix& {
    if (!result.sparse_output()) return result.similarity;
    if (reconstructed.empty()) reconstructed = result.sparse_similarity.to_dense();
    return reconstructed;
  };

  if (args.has("top") || args.has("threshold")) {
    // Similar-sample discovery (paper Fig. 1 step 8): only the most
    // related pairs instead of the full quadratic listing.
    std::vector<analysis::ScoredPair> pairs;
    if (args.has("top")) {
      pairs = result.sparse_output()
                  ? analysis::top_k_pairs(result.sparse_similarity,
                                          args.get_int("top", 10))
                  : analysis::top_k_pairs(result.similarity, args.get_int("top", 10));
    } else if (options.core.estimator == core::Estimator::kHybrid) {
      // The hybrid's survivor set IS the thresholded pair set — walk it
      // directly instead of re-thresholding the dense reconstruction
      // (which would also surface sketch-estimated pruned values).
      const double effective =
          options.core.prune_threshold - sketch::hybrid_prune_slack(options.core);
      if (threshold < effective) {
        std::fprintf(stderr,
                     "gas dist: warning: --threshold %.3f is below the effective "
                     "prune threshold %.3f — pairs in between were pruned by the "
                     "sketch pass and will not be listed (lower --prune-threshold "
                     "to keep them)\n",
                     threshold, effective);
      }
      pairs = analysis::candidate_pairs(result.sparse_similarity, threshold);
    } else {
      pairs = analysis::pairs_above(result.similarity, threshold);
    }
    TextTable table({"sample A", "sample B", "Jaccard", "distance"});
    for (const auto& pair : pairs) {
      table.add_row({names[static_cast<std::size_t>(pair.a)],
                     names[static_cast<std::size_t>(pair.b)],
                     fmt_fixed(pair.similarity, 6),
                     fmt_fixed(1.0 - pair.similarity, 6)});
    }
    table.print();
  } else {
    TextTable table({"sample A", "sample B", "Jaccard", "distance"});
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        const double s = result.similarity_at(i, j);
        table.add_row({names[static_cast<std::size_t>(i)],
                       names[static_cast<std::size_t>(j)], fmt_fixed(s, 6),
                       fmt_fixed(1.0 - s, 6)});
      }
    }
    table.print();
  }

  if (args.has("phylip")) {
    const std::string out = args.get_string("phylip", "distances.phylip");
    genome::write_phylip_file(out, names, dense_view().distance_matrix(), n);
    std::printf("\nPHYLIP matrix written to %s\n", out.c_str());
  }
  if (args.has("similarity-out")) {
    const std::string out = args.get_string("similarity-out", "similarity.sasm");
    core::write_similarity_binary_file(out, names, dense_view());
    std::printf("Binary similarity matrix written to %s\n", out.c_str());
  }
  if (args.has("sparse-similarity-out")) {
    const std::string out =
        args.get_string("sparse-similarity-out", "similarity.sasp");
    core::write_sparse_similarity_binary_file(out, names, result.sparse_similarity);
    std::printf("Sparse similarity (%lld survivors) written to %s\n",
                static_cast<long long>(result.sparse_similarity.survivor_count()),
                out.c_str());
  }
  if (args.has("tsv")) {
    const std::string out_path = args.get_string("tsv", "similarity.tsv");
    std::ofstream tsv(out_path);
    core::write_similarity_tsv(tsv, names, dense_view());
    std::printf("TSV similarity matrix written to %s\n", out_path.c_str());
  }
  // Exit 9 (not an error::Code — those stop at 8) tells schedulers the
  // run finished but with quarantined batches; 0 is reserved for a
  // complete result.
  return result.degraded() ? 9 : 0;
}

int cmd_tree(const ArgParser& args) {
  if (!only_known_flags(args, "tree", {"method", "out"})) return usage();
  if (args.positional().size() != 2) return usage();
  std::ifstream in(args.positional()[1]);
  if (!in) {
    std::fprintf(stderr, "gas tree: cannot open %s\n", args.positional()[1].c_str());
    return 2;
  }
  const genome::PhylipMatrix matrix = genome::read_phylip(in);
  const std::string method = args.get_string("method", "nj");
  analysis::PhyloTree tree;
  if (method == "nj") {
    tree = analysis::neighbor_joining(matrix.distances, matrix.names);
  } else if (method == "upgma") {
    tree = analysis::upgma(matrix.distances, matrix.names);
  } else {
    std::fprintf(stderr, "gas tree: unknown --method '%s' (nj|upgma)\n", method.c_str());
    return 2;
  }
  const std::string newick = tree.to_newick();
  if (args.has("out")) {
    std::ofstream out(args.get_string("out", "tree.nwk"));
    out << newick << '\n';
    std::printf("Newick tree written to %s\n", args.get_string("out", "tree.nwk").c_str());
  } else {
    std::printf("%s\n", newick.c_str());
  }
  return 0;
}

int cmd_simulate(const ArgParser& args) {
  if (!only_known_flags(args, "simulate",
                        {"samples", "length", "rate", "reads", "coverage", "error",
                         "seed", "out-dir"})) {
    return usage();
  }
  const auto n_samples = args.get_int("samples", 8);
  const auto length = args.get_int("length", 20000);
  const double rate = args.get_double("rate", 0.01);
  const bool as_reads = args.get_bool("reads", false);
  const double coverage = args.get_double("coverage", 20.0);
  const double error = args.get_double("error", 0.003);
  constexpr int kReadLength = 100;
  // Negated range tests, so that a NaN value fails them too.
  if (!(rate >= 0.0 && rate <= 1.0) || !(error >= 0.0 && error <= 1.0)) {
    std::fprintf(stderr, "gas simulate: --rate and --error must be in [0, 1]\n");
    return 2;
  }
  if (!(coverage >= 0.0)) {
    std::fprintf(stderr, "gas simulate: --coverage must be >= 0\n");
    return 2;
  }
  if (length < (as_reads ? kReadLength : 1)) {
    std::fprintf(stderr, "gas simulate: --length must be >= 1 (>= %d with --reads)\n",
                 kReadLength);
    return 2;
  }
  const fs::path out_dir = args.get_string("out-dir", ".");
  fs::create_directories(out_dir);

  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const std::string ancestor = genome::random_genome(length, rng);
  for (std::int64_t i = 0; i < n_samples; ++i) {
    const std::string individual =
        i == 0 ? ancestor : genome::mutate_point(ancestor, rate, rng);
    const std::string name = "sample" + std::to_string(i);
    std::vector<genome::SequenceRecord> records;
    if (as_reads) {
      records = genome::simulate_reads(individual, kReadLength, coverage, error, rng);
    } else {
      records = {{name, "simulated genome", individual}};
    }
    const fs::path out = out_dir / (name + ".fa");
    genome::write_fasta_file(out.string(), records);
    std::printf("%s: %zu record(s), %lld bp genome\n", out.string().c_str(),
                records.size(), static_cast<long long>(length));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional()[0];
  // Map the error taxonomy (util/error.hpp) to distinct exit codes so
  // pipelines can tell "your flags are wrong" (2) from "your data is
  // damaged" (3) from "a rank crashed" (4) from "a rank hung" (5). A
  // watchdog message carries the blocked-rank diagnostic verbatim.
  try {
    if (command == "sketch") return cmd_sketch(args);
    if (command == "dist") return cmd_dist(args);
    if (command == "tree") return cmd_tree(args);
    if (command == "simulate") return cmd_simulate(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gas: %s\n", e.what());
    return sas::error::exit_code_for(e);
  }
  return usage();
}
