// perf_ledger.cpp — the perf ledger: four fixed, file-backed workloads
// measured end to end and layer by layer, every output checked against an
// independent merge-join oracle (bench/ledger/README.md has the metric map).
//
//   perf_ledger [--seed N] [--seconds S] [--corpus-dir D] [--json OUT]
//               [--sensitivity]
//       The ledger: every workload in its own child process (this binary
//       re-executed with --workload), then kingsford-summa at p = 1 and
//       p = 2 for the scaling shape. Prints `workload metric value unit
//       (n, q1, q3)` per metric, writes OUT, exits 1 if any run failed.
//       --sensitivity also re-runs kingsford-summa with the dense path
//       forced (dense_crossover = 0.05), writes OUT's ".sensitivity.json"
//       sibling for perf_diff.py, and checks that only the multiply moved.
//   perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--corpus-dir D] [--record FILE]
//       One workload. Timed repetitions run untraced for S seconds; with
//       --trace 1 one more run carries an obs::Observer and the bench-side
//       probes run. The last stdout line is one JSON object
//       {correct, attempted, failed, metrics}: end-to-end metrics under
//       --trace 0, per-layer metrics under --trace 1. --record writes every
//       metric with its spread for the ledger.
//   perf_ledger --self-test
//       Failure accounting on a tiny corpus: a run with a permanent
//       injected fault and a run with a tampered digest must both be
//       counted as failed (error rate 1.0) without stopping the ledger.
//
// The program under test only ever sees `.kmers` files read through
// genome::KmerFileSource, as `gas dist` reads them. Corpora are generated
// from --seed in a child process, outside every timing and outside the
// measuring process's peak RSS, together with the oracle's exact Jaccard
// values (genome::jaccard_of_samples over the generated sets).
//
// This file deliberately includes no bench/ header: it stays fixed while
// the code it measures changes.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bsp/cost_model.hpp"
#include "bsp/runtime.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/packing.hpp"
#include "core/sample_source.hpp"
#include "distmat/crossover.hpp"
#include "distmat/csr.hpp"
#include "distmat/spgemm.hpp"
#include "genome/kmer.hpp"
#include "genome/kmer_source.hpp"
#include "genome/sample.hpp"
#include "genome/synthetic.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sketch/exchange.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "util/args.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace fs = std::filesystem;
using namespace sas;

namespace {

// ============================================================ workloads

/// Every run uses this many rank threads: the core count of the host the
/// ledger was calibrated on. Never more threads than cores, no kernel
/// threads, nothing else running — so wall time is not oversubscription.
constexpr int kRanks = 4;

/// The BSP machine behind every modelled time (and the observer's α-β
/// predictions): only the ratios between the constants matter.
const bsp::BspMachine kMachine{5e-6, 5e-10, 1e-9};

constexpr std::int64_t kOraclePairs = 4096;
constexpr int kSetupRepeats = 3;
const char* const kDefaultCorpusDir = "build/perf_ledger_corpus";

struct Workload {
  const char* name;
  const char* corpus;
  core::Config config;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    core::Config c;
    c.algorithm = core::Algorithm::kSumma;
    c.batch_count = 8;
    out.push_back({"kingsford-summa", "kingsford", c});
  }
  {
    core::Config c;
    c.algorithm = core::Algorithm::kRing1D;
    c.batch_count = 128;
    out.push_back({"bigsi-ring", "bigsi", c});
  }
  {
    core::Config c;
    c.algorithm = core::Algorithm::kRing1D;
    c.estimator = core::Estimator::kHybrid;
    c.prune_threshold = 0.1;
    c.candidate_mode = core::CandidateMode::kAuto;
    c.batch_count = 4;
    out.push_back({"families-hybrid", "families", c});
  }
  {
    core::Config c;
    c.algorithm = core::Algorithm::kRing1D;
    c.estimator = core::Estimator::kMinhash;
    c.batch_count = 4;
    out.push_back({"families-minhash", "families", c});
  }
  return out;
}

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> all = workloads();
  for (const Workload& w : all) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ============================================================== corpora

struct OraclePair {
  std::int64_t i = 0;
  std::int64_t j = 0;
  double jaccard = 0.0;
};

/// The k of each corpus; the attribute universe is 4^k.
int corpus_k(const std::string& corpus) {
  if (corpus == "kingsford") return 10;
  if (corpus == "bigsi") return 14;
  if (corpus == "families") return 21;
  if (corpus == "selftest") return 8;
  throw std::invalid_argument("unknown corpus " + corpus);
}

genome::KmerSample bernoulli_sample(const core::BernoulliSampleSource& source,
                                    std::int64_t column, std::int64_t index) {
  genome::KmerSample s;
  s.name = "s";
  s.name += std::to_string(index);
  for (std::int64_t v : source.values_in_range(column, {0, source.attribute_universe()})) {
    s.kmers.push_back(static_cast<std::uint64_t>(v));
  }
  return s;
}

/// A seeded permutation of [0, n).
std::vector<std::size_t> shuffled_order(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n > 0 ? n - 1 : 0; i > 0; --i) {
    std::swap(order[i], order[rng.uniform(i + 1)]);
  }
  return order;
}

/// The sets of one corpus, plus the sample pairs that are related by
/// construction (both members of a family).
struct GeneratedCorpus {
  std::vector<genome::KmerSample> samples;
  std::vector<std::pair<std::int64_t, std::int64_t>> related;
};

GeneratedCorpus generate_sets(const std::string& corpus, std::uint64_t seed) {
  const int k = corpus_k(corpus);
  const std::int64_t m = std::int64_t{1} << (2 * k);
  const std::uint64_t corpus_seed = hash_combine(seed, hash_bytes(corpus));
  GeneratedCorpus out;
  if (corpus == "kingsford") {
    // Low column-density variability, dense enough that SUMMA's
    // broadcasts and the multiply dominate.
    const core::BernoulliSampleSource source(m, 1024, 1e-2, corpus_seed);
    for (std::int64_t i = 0; i < source.sample_count(); ++i) {
      out.samples.push_back(bernoulli_sample(source, i, i));
    }
  } else if (corpus == "bigsi") {
    // Hypersparse with an 8x log-uniform spread of column densities. The
    // densities are that distribution's quantiles in seeded order, so the
    // corpus size, and every counted metric with it, barely moves between
    // seeds while the placement of dense columns does.
    constexpr std::size_t kSamples = 3072;
    Rng rng(corpus_seed);
    const std::vector<std::size_t> rank = shuffled_order(kSamples, rng);
    for (std::size_t i = 0; i < kSamples; ++i) {
      const double u = (static_cast<double>(rank[i]) + 0.5) / kSamples;
      const core::BernoulliSampleSource column(m, 1, 4e-6 * std::pow(8.0, 2.0 * u - 1.0),
                                               hash_combine(corpus_seed, i));
      out.samples.push_back(bernoulli_sample(column, 0, static_cast<std::int64_t>(i)));
    }
  } else if (corpus == "selftest") {
    const core::BernoulliSampleSource source(m, 24, 5e-2, corpus_seed);
    for (std::int64_t i = 0; i < source.sample_count(); ++i) {
      out.samples.push_back(bernoulli_sample(source, i, i));
    }
  } else {
    // families: 768 random 4 kb ancestors, one 2%-mutated copy of each
    // (J ≈ 0.49), and 768 unrelated 4 kb singletons, in seeded order.
    constexpr int kFamilies = 768;
    constexpr std::int64_t kGenomeLength = 4000;
    const genome::KmerCodec codec(k);
    Rng rng(corpus_seed);
    std::vector<std::string> genomes;
    std::vector<int> family;
    for (int f = 0; f < kFamilies; ++f) {
      genomes.push_back(genome::random_genome(kGenomeLength, rng));
      genomes.push_back(genome::mutate_point(genomes.back(), 0.02, rng));
      family.insert(family.end(), {f, f});
    }
    for (int s = 0; s < kFamilies; ++s) {
      genomes.push_back(genome::random_genome(kGenomeLength, rng));
      family.push_back(-1);
    }
    const std::vector<std::size_t> order = shuffled_order(genomes.size(), rng);
    std::vector<std::int64_t> first_of_family(kFamilies, -1);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::string name = "g" + std::to_string(pos);
      out.samples.push_back(
          genome::build_sample(name, {{name, "", genomes[order[pos]]}}, codec));
      const int f = family[order[pos]];
      if (f < 0) continue;
      const auto here = static_cast<std::int64_t>(pos);
      if (first_of_family[static_cast<std::size_t>(f)] < 0) {
        first_of_family[static_cast<std::size_t>(f)] = here;
      } else {
        out.related.emplace_back(first_of_family[static_cast<std::size_t>(f)], here);
      }
    }
  }
  return out;
}

/// Oracle pairs: every related pair plus kOraclePairs seeded random ones
/// (all pairs when the corpus has fewer), valued by the merge join.
std::vector<OraclePair> oracle_pairs(const GeneratedCorpus& sets, std::uint64_t seed) {
  const auto n = static_cast<std::int64_t>(sets.samples.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs = sets.related;
  if (n * (n - 1) / 2 <= kOraclePairs) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    }
  } else {
    Rng rng(hash_combine(seed, 0x04ac1e));
    for (std::int64_t drawn = 0; drawn < kOraclePairs;) {
      const auto i = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const auto j = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      if (i == j) continue;
      pairs.emplace_back(std::min(i, j), std::max(i, j));
      ++drawn;
    }
  }
  std::vector<OraclePair> out;
  out.reserve(pairs.size());
  for (const auto& [i, j] : pairs) {
    out.push_back({i, j,
                   genome::jaccard_of_samples(sets.samples[static_cast<std::size_t>(i)],
                                              sets.samples[static_cast<std::size_t>(j)])});
  }
  return out;
}

std::string sample_path(const fs::path& dir, std::int64_t i) {
  char name[32];
  std::snprintf(name, sizeof name, "%05lld.kmers", static_cast<long long>(i));
  return (dir / name).string();
}

fs::path corpus_path(const std::string& corpus_dir, const std::string& corpus) {
  return fs::path(corpus_dir) / corpus;
}

std::string manifest_line(const std::string& corpus, std::uint64_t seed) {
  return corpus + " seed " + std::to_string(seed);
}

/// Write one corpus (sample files, oracle, manifest last). Only one seed
/// per corpus is kept on disk: a different seed replaces it.
void write_corpus(const std::string& corpus_dir, const std::string& corpus,
                  std::uint64_t seed) {
  const fs::path dir = corpus_path(corpus_dir, corpus);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const GeneratedCorpus sets = generate_sets(corpus, seed);
  for (std::size_t i = 0; i < sets.samples.size(); ++i) {
    genome::write_sample_file(sample_path(dir, static_cast<std::int64_t>(i)),
                              sets.samples[i]);
  }
  std::ofstream oracle(dir / "oracle.txt");
  for (const OraclePair& p : oracle_pairs(sets, seed)) {
    char line[96];
    std::snprintf(line, sizeof line, "%lld %lld %a\n", static_cast<long long>(p.i),
                  static_cast<long long>(p.j), p.jaccard);
    oracle << line;
  }
  oracle.close();
  std::ofstream manifest(dir / "MANIFEST");
  manifest << manifest_line(corpus, seed) << '\n' << sets.samples.size() << '\n';
  if (!oracle || !manifest) {
    throw std::runtime_error("cannot write corpus in " + dir.string());
  }
}

struct Corpus {
  int k = 0;
  std::vector<std::string> paths;
  std::uint64_t file_bytes = 0;
  std::vector<OraclePair> oracle;
};

/// The corpus for (name, seed), or nothing when it is missing or stale.
std::optional<Corpus> load_corpus(const std::string& corpus_dir, const std::string& corpus,
                                  std::uint64_t seed) {
  const fs::path dir = corpus_path(corpus_dir, corpus);
  std::ifstream manifest(dir / "MANIFEST");
  std::string line;
  std::int64_t n = 0;
  if (!std::getline(manifest, line) || line != manifest_line(corpus, seed) ||
      !(manifest >> n)) {
    return std::nullopt;
  }
  Corpus c;
  c.k = corpus_k(corpus);
  for (std::int64_t i = 0; i < n; ++i) {
    c.paths.push_back(sample_path(dir, i));
    c.file_bytes += fs::file_size(c.paths.back());
  }
  std::ifstream oracle(dir / "oracle.txt");
  long long i = 0;
  long long j = 0;
  std::string value;
  while (oracle >> i >> j >> value) {
    c.oracle.push_back({i, j, std::strtod(value.c_str(), nullptr)});
  }
  return c;
}

// ==================================================== child processes

std::string self_exe() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve /proc/self/exe");
  return p.string();
}

/// Run this binary with `args` and wait for it; returns its exit status
/// (-1 when it died by a signal). stdout goes to /dev/null when `quiet`.
int run_self(const std::vector<std::string>& args, bool quiet) {
  std::vector<std::string> argv_store = {self_exe()};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (quiet) {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  }
  std::fflush(stdout);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error(std::string("posix_spawn failed: ") + std::strerror(rc));
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

Corpus ensure_corpus(const std::string& corpus_dir, const std::string& corpus,
                     std::uint64_t seed) {
  if (auto c = load_corpus(corpus_dir, corpus, seed)) return *c;
  const int rc = run_self({"--generate", corpus, "--seed", std::to_string(seed),
                           "--corpus-dir", corpus_dir},
                          /*quiet=*/true);
  if (rc != 0) throw std::runtime_error("corpus generation failed for " + corpus);
  if (auto c = load_corpus(corpus_dir, corpus, seed)) return *c;
  throw std::runtime_error("corpus " + corpus + " missing after generation");
}

// ============================================================ statistics

struct Stat {
  double value = 0.0;  ///< median
  double q1 = 0.0;
  double q3 = 0.0;
  std::vector<double> samples;
};

/// Median and quartiles by the "exclusive" method of Python's
/// statistics.quantiles(n=4), so perf_diff.py reads the same numbers.
Stat summarize(std::vector<double> samples) {
  Stat s;
  s.samples = samples;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<std::int64_t>(samples.size());
  if (n == 0) return s;
  if (n == 1) {
    s.value = s.q1 = s.q3 = samples[0];
    return s;
  }
  std::array<double, 3> q{};
  for (std::int64_t i = 1; i <= 3; ++i) {
    std::int64_t j = i * (n + 1) / 4;
    j = std::clamp<std::int64_t>(j, 1, n - 1);
    const std::int64_t delta = i * (n + 1) - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (samples[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  s.q1 = q[0];
  s.value = q[1];
  s.q3 = q[2];
  return s;
}

double median(std::vector<double> samples) { return summarize(std::move(samples)).value; }

// ============================================================== metrics

struct Metric {
  std::string name;
  std::string unit;
  Stat stat;
  bool counted = false;  ///< deterministic for a seed: gated exactly
  bool in_wall = false;  ///< a part of wall_s (perf_diff ranks its delta)
};

/// The end-to-end metrics (BENCHMARK.json "end_to_end"); every other
/// metric the ledger reports is a per-layer metric.
bool is_end_to_end(const std::string& name) {
  static constexpr std::array<std::string_view, 8> kNames = {
      "wall_s",      "projected_s",    "setup_s",    "peak_rss_mb",
      "bytes_total", "messages_total", "supersteps", "recall"};
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit, Stat stat,
           bool counted = false, bool in_wall = false) {
    metrics_.push_back({name, unit, std::move(stat), counted, in_wall});
  }
  void value(const std::string& name, const std::string& unit, double v,
             bool counted = false, bool in_wall = false) {
    add(name, unit, summarize({v}), counted, in_wall);
  }
  void count(const std::string& name, const std::string& unit, double v) {
    value(name, unit, v, /*counted=*/true);
  }
  [[nodiscard]] const std::vector<Metric>& all() const noexcept { return metrics_; }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
};

// ========================================================== repetitions

/// Order-dependent digest of a run's whole output.
std::uint64_t digest_values(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) h = hash_combine(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

std::uint64_t digest_of(const core::Result& r) {
  if (!r.sparse_output()) return digest_values(r.similarity.values());
  const core::SparseSimilarity& s = r.sparse_similarity;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t k : s.survivor_keys()) h = hash_combine(h, k);
  h = hash_combine(h, digest_values(s.survivor_values()));
  for (std::uint64_t k : s.estimate_keys()) h = hash_combine(h, k);
  return hash_combine(h, digest_values(s.estimate_values()));
}

/// One similarity_at_scale_threaded call and what the ledger keeps of it.
struct Rep {
  std::string error;  ///< non-empty: the call threw
  double wall_s = 0.0;
  double projected_s = 0.0;
  double batch_cv = 0.0;
  core::PipelineStats stages;
  bsp::CostSummary cost;
  std::int64_t filtered_rows = 0;
  std::int64_t word_rows = 0;
  std::int64_t packed_nnz = 0;
  std::int64_t survivors = 0;
  std::uint64_t digest = 0;
  /// Fields that repeat exactly for a seed; every rep must match rep 0's.
  [[nodiscard]] std::vector<std::uint64_t> counted() const {
    std::vector<std::uint64_t> c = {cost.total_bytes, cost.total_messages,
                                    cost.max_supersteps};
    for (const core::StageStats& s : stages.stages) {
      c.push_back(s.bytes_sent);
      c.push_back(s.messages);
    }
    c.push_back(static_cast<std::uint64_t>(survivors));
    return c;
  }
};

/// Paper convention (Fig. 2): mean batch time after one warm-up batch,
/// times the number of batches. Also sets *cv, the coefficient of
/// variation of the batch times it averaged.
double projected_seconds(const std::vector<core::BatchStats>& batches, double* cv) {
  const std::size_t skip = batches.size() > 1 ? 1 : 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t b = skip; b < batches.size(); ++b) {
    sum += batches[b].seconds;
    sum_sq += batches[b].seconds * batches[b].seconds;
  }
  const auto count = static_cast<double>(batches.size() - skip);
  const double mean = count > 0 ? sum / count : 0.0;
  const double var = count > 0 ? std::max(0.0, sum_sq / count - mean * mean) : 0.0;
  *cv = mean > 0 ? std::sqrt(var) / mean : 0.0;
  return mean * static_cast<double>(batches.size());
}

Rep run_rep(int ranks, const core::SampleSource& source, const core::Config& config,
            obs::Observer* observer, core::Result* keep) {
  Rep rep;
  try {
    std::vector<bsp::CostCounters> counters;
    Timer timer;
    core::Result result =
        core::similarity_at_scale_threaded(ranks, source, config, &counters, observer);
    rep.wall_s = timer.seconds();
    rep.cost = bsp::CostSummary::aggregate(counters);
    rep.stages = result.stages;
    rep.projected_s = projected_seconds(result.batches, &rep.batch_cv);
    for (const core::BatchStats& b : result.batches) {
      rep.filtered_rows += b.filtered_rows;
      rep.word_rows += b.word_rows;
      rep.packed_nnz += b.packed_nnz;
    }
    const std::int64_t n = result.n;
    if (result.sparse_output()) {
      rep.survivors = result.sparse_similarity.survivor_count();
    } else if (config.estimator == core::Estimator::kExact) {
      rep.survivors = n * (n - 1) / 2;
    }
    rep.digest = digest_of(result);
    if (keep != nullptr) *keep = std::move(result);
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  return rep;
}

/// Oracle verdict on one result.
struct Verification {
  std::string failure;  ///< empty when the output verified
  double mean_abs_err = 0.0;
  double recall = 1.0;
};

Verification verify(const core::Result& result, const core::Config& config,
                    const std::vector<OraclePair>& oracle) {
  Verification v;
  core::Config hybrid_view = config;
  hybrid_view.estimator = core::Estimator::kHybrid;
  const double slack = sketch::hybrid_prune_slack(hybrid_view);
  const double high = config.prune_threshold + slack;
  const double low = config.prune_threshold - slack;
  std::int64_t mismatches = 0;
  std::int64_t above = 0;
  std::int64_t kept = 0;
  double abs_err = 0.0;
  std::string first;
  for (const OraclePair& p : oracle) {
    const double got = result.similarity_at(p.i, p.j);
    abs_err += std::abs(got - p.jaccard);
    if (p.jaccard >= high) {
      ++above;
      if (got >= low) ++kept;
    }
    const bool must_be_exact =
        config.estimator == core::Estimator::kExact ||
        (config.estimator == core::Estimator::kHybrid &&
         result.sparse_similarity.is_survivor(p.i, p.j));
    if (must_be_exact && std::bit_cast<std::uint64_t>(got) !=
                             std::bit_cast<std::uint64_t>(p.jaccard)) {
      if (mismatches++ == 0) {
        char line[160];
        std::snprintf(line, sizeof line, "S(%lld,%lld) = %.17g, oracle %.17g",
                      static_cast<long long>(p.i), static_cast<long long>(p.j), got,
                      p.jaccard);
        first = line;
      }
    }
  }
  v.mean_abs_err = oracle.empty() ? 0.0 : abs_err / static_cast<double>(oracle.size());
  v.recall = above == 0 ? 1.0 : static_cast<double>(kept) / static_cast<double>(above);
  if (mismatches > 0) {
    v.failure = std::to_string(mismatches) + " of " + std::to_string(oracle.size()) +
                " oracle pairs differ bitwise, first " + first;
  } else if (config.estimator == core::Estimator::kMinhash) {
    const double bound =
        sketch::oph_jaccard_error_bound(config.sketch_size, config.minhash_bits);
    if (v.mean_abs_err > bound) {
      v.failure = "minhash mean |S - J| " + std::to_string(v.mean_abs_err) +
                  " exceeds the documented bound " + std::to_string(bound);
    }
  }
  return v;
}

/// Failure accounting over a sequence of runs: a run fails when it
/// throws, when its output digest or counted metrics differ from the
/// reference run's, or when the reference itself failed the oracle.
class Accounting {
 public:
  /// `label` names the run in failure messages.
  bool account(const std::string& label, const Rep& rep) {
    ++attempted_;
    std::string why;
    if (!rep.error.empty()) {
      why = "threw: " + rep.error;
    } else if (!reference_digest_) {
      reference_digest_ = rep.digest;
      reference_counted_ = rep.counted();
      why = reference_failure_;
    } else if (rep.digest != *reference_digest_) {
      char line[96];
      std::snprintf(line, sizeof line, "output digest %016llx != reference %016llx",
                    static_cast<unsigned long long>(rep.digest),
                    static_cast<unsigned long long>(*reference_digest_));
      why = line;
    } else if (reference_counted_ && rep.counted() != *reference_counted_) {
      why = "counted metrics differ from the reference run";
    } else if (!reference_failure_.empty()) {
      why = "repeats the reference run's failed output";
    }
    if (why.empty()) return true;
    ++failed_;
    errors_.push_back(label + ": " + why);
    return false;
  }

  /// Fix the expected digest up front (the self-test derives it from the
  /// oracle) instead of taking the first completed run's.
  void set_reference_digest(std::uint64_t digest) { reference_digest_ = digest; }
  /// The oracle's verdict on the reference run; a non-empty failure fails
  /// the reference and every run that repeats its output.
  void set_reference_failure(std::string failure) { reference_failure_ = std::move(failure); }

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }
  void note_error(std::string error) { errors_.push_back(std::move(error)); }

 private:
  std::optional<std::uint64_t> reference_digest_;
  std::optional<std::vector<std::uint64_t>> reference_counted_;
  std::string reference_failure_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// =============================================================== probes

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// distmat kernel probe: csr_popcount_ata_accumulate on batch 0's packed
/// panel (all samples, one thread), timed from outside. Returns
/// {median seconds per call, flops per call}.
std::pair<double, double> kernel_probe(const core::SampleSource& source,
                                       const core::Config& config) {
  const std::int64_t n = source.sample_count();
  distmat::CsrPanel panel;
  (void)bsp::Runtime::run(1, [&](bsp::Comm& comm) {
    const distmat::BlockRange rows =
        distmat::block_range(source.attribute_universe(),
                             static_cast<int>(config.batch_count), 0);
    core::PackedBatch packed =
        core::pack_batch(comm, core::read_batch(0, 1, source, rows), rows,
                         config.bit_width, config.use_zero_row_filter,
                         config.compress_filter);
    const distmat::SparseBlock block = distmat::SparseBlock::from_triplets(
        packed.word_rows, n, std::move(packed.triplets));
    panel = distmat::CsrPanel::from_block(block);
  });
  distmat::CsrAtaOptions options;
  options.dense_crossover = config.dense_crossover;
  distmat::DenseBlock<std::int64_t> out({0, n}, {0, n});
  std::vector<double> times;
  bsp::CostCounters counters;
  Timer total;
  while (times.empty() || total.seconds() < 0.3) {
    counters.reset();
    Timer t;
    distmat::csr_popcount_ata_accumulate(panel, panel, 0, 0, out, &counters, options);
    times.push_back(t.seconds());
  }
  return {median(times), static_cast<double>(counters.flops)};
}

/// sketch probe: k-mers per second of OnePermMinHash construction over
/// the first 256 samples, with the workload's sketch parameters.
double sketch_build_rate(const core::SampleSource& source, const core::Config& config) {
  const std::int64_t count = std::min<std::int64_t>(source.sample_count(), 256);
  std::vector<std::vector<std::uint64_t>> sets;
  std::uint64_t elements = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    const auto values = source.values_in_range(i, {0, source.attribute_universe()});
    sets.emplace_back(values.begin(), values.end());
    elements += values.size();
  }
  double seconds = 0.0;
  std::uint64_t built = 0;
  while (seconds < 0.2) {
    Timer t;
    for (const auto& set : sets) {
      const sketch::OnePermMinHash sketch(set, config.sketch_size, config.minhash_bits,
                                          config.sketch_seed);
    }
    seconds += t.seconds();
    built += elements;
  }
  return seconds > 0 ? static_cast<double>(built) / seconds : 0.0;
}

/// Per-layer numbers read from one traced run's spans, counters, drift
/// cells and histograms.
void traced_metrics(const obs::Observer& observer, double traced_wall,
                    double untraced_wall, MetricSet& out) {
  const int p = observer.nranks();
  double worst_unattributed = 0.0;
  double candidate_s = 0.0;
  double ring_s = 0.0;
  std::uint64_t candidate_bytes = 0;
  std::map<std::string, double> counters;
  std::map<std::string, std::uint64_t> prim_bytes;
  double wait_s = 0.0;
  for (int r = 0; r < p; ++r) {
    const obs::RankObserver& rank = observer.rank(r);
    std::int64_t stage_ns = 0;
    std::int64_t candidate_ns = 0;
    std::int64_t ring_ns = 0;
    std::vector<const obs::SpanEvent*> collectives;
    for (const obs::SpanEvent& ev : rank.events()) {
      const std::string category = ev.category;
      const std::string name = ev.name;
      if (category == "stage") stage_ns += ev.dur_ns;
      if (category == "lsh" || name == "allpairs-candidates") {
        candidate_ns += ev.dur_ns;
        candidate_bytes += ev.bytes_sent;
      }
      if (name == "sketch-ring/step") ring_ns += ev.dur_ns;
      if (category == "collective") collectives.push_back(&ev);
    }
    // Bytes per primitive from the OUTERMOST collective spans only: an
    // allreduce's inner reduce + broadcast must not count twice.
    std::sort(collectives.begin(), collectives.end(),
              [](const obs::SpanEvent* a, const obs::SpanEvent* b) {
                return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                  : a->dur_ns > b->dur_ns;
              });
    std::int64_t outer_end = -1;
    for (const obs::SpanEvent* ev : collectives) {
      if (ev->start_ns < outer_end) continue;
      outer_end = ev->start_ns + ev->dur_ns;
      prim_bytes[ev->name] += ev->bytes_sent;
    }
    worst_unattributed = std::max(
        worst_unattributed, 1.0 - static_cast<double>(stage_ns) * 1e-9 / traced_wall);
    candidate_s = std::max(candidate_s, static_cast<double>(candidate_ns) * 1e-9);
    ring_s = std::max(ring_s, static_cast<double>(ring_ns) * 1e-9);
    for (const auto& [name, v] : rank.counters()) counters[name] += static_cast<double>(v);
    wait_s += static_cast<double>(rank.mailbox_wait_ns.sum) * 1e-9;
  }
  out.value("core.unattributed_frac", "fraction", worst_unattributed);
  out.count("distmat.tiles_visited", "count", counters["spgemm.tiles_visited"]);
  out.count("distmat.tiles_skipped", "count", counters["spgemm.tiles_skipped"]);
  out.count("distmat.blocks_skipped", "count", counters["spgemm.blocks_skipped"]);
  out.value("sketch.candidate_s", "s", candidate_s, false, /*in_wall=*/true);
  out.count("sketch.candidate_bytes", "B", static_cast<double>(candidate_bytes));
  out.value("sketch.ring_s", "s", ring_s, false, /*in_wall=*/true);

  // The primitives the four workloads use (scatter, reduce_scatter and scan
  // never run; reduce only inside allreduce).
  const auto drift = observer.aggregate_drift();
  for (obs::Primitive prim : {obs::Primitive::kBroadcast, obs::Primitive::kAllreduce,
                              obs::Primitive::kGather, obs::Primitive::kAllgather,
                              obs::Primitive::kAlltoall, obs::Primitive::kBarrier}) {
    const obs::DriftCell& cell = drift[static_cast<std::size_t>(prim)];
    const std::string base = std::string("bsp.") + obs::primitive_name(prim);
    // Measured seconds are summed over ranks; per rank they are a part of
    // the wall time.
    out.value(base + ".measured_s", "s", cell.measured_seconds / p, false, /*in_wall=*/true);
    out.value(base + ".drift", "ratio",
              cell.predicted_seconds > 0 ? cell.measured_seconds / cell.predicted_seconds
                                         : 0.0);
    if (prim != obs::Primitive::kBarrier) {
      out.count(base + ".bytes", "B",
                static_cast<double>(prim_bytes[obs::primitive_name(prim)]));
    }
  }
  out.value("bsp.mailbox_wait_s", "s", wait_s / p, false, /*in_wall=*/true);
  out.value("bsp.mailbox_wait_frac", "fraction", wait_s / p / traced_wall);
  out.value("obs.overhead_frac", "fraction", traced_wall / untraced_wall - 1.0);
  out.count("obs.spans_dropped", "count", static_cast<double>(observer.total_dropped()));
}

// ======================================================== one workload

struct WorkloadOptions {
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  int ranks = kRanks;
  double dense_crossover = 0.0;  ///< > 0 pins the kernel crossover
  std::string corpus_dir;
};

struct WorkloadRecord {
  std::string workload;
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  MetricSet metrics;
};

/// Stage names in metric names, fixed here so the ledger's keys do not
/// follow renames of core::stage_name.
const char* stage_metric(core::Stage s) {
  switch (s) {
    case core::Stage::kIngest: return "ingest";
    case core::Stage::kPackSketch: return "pack";
    case core::Stage::kExchange: return "exchange";
    case core::Stage::kMultiply: return "multiply";
    case core::Stage::kAssemble: return "assemble";
  }
  return "?";
}

WorkloadRecord measure_workload(const Workload& w, const WorkloadOptions& opt) {
  WorkloadRecord rec;
  rec.workload = w.name;
  core::Config config = w.config;
  if (opt.dense_crossover > 0.0) config.dense_crossover = opt.dense_crossover;

  const Corpus corpus = ensure_corpus(opt.corpus_dir, w.corpus, opt.seed);

  // ---- set-up: what every `gas dist` pays before the first batch.
  std::vector<double> parse_times;
  std::unique_ptr<genome::KmerFileSource> source;
  for (int i = 0; i < kSetupRepeats; ++i) {
    source.reset();
    Timer t;
    source = std::make_unique<genome::KmerFileSource>(corpus.k, corpus.paths);
    parse_times.push_back(t.seconds());
  }
  Timer calibrate_timer;
  const double calibrated = distmat::calibrated_dense_crossover();
  const double calibrate_s = calibrate_timer.seconds();
  const double parse_s = median(parse_times);

  // ---- the reference run: untimed, because the first call in a process
  // also pays one-time allocator growth (up to ~50% on bigsi-ring). Its output
  // is checked against the oracle; every timed rep must repeat its digest
  // and counted metrics.
  Accounting accounting;
  Verification verdict;
  Rep first;
  {
    core::Result result;
    first = run_rep(opt.ranks, *source, config, nullptr, &result);
    if (first.error.empty()) {
      verdict = verify(result, config, corpus.oracle);
      accounting.set_reference_failure(verdict.failure);
    }
    accounting.account("reference run", first);
  }
  // The high-water mark of one run, as a `gas dist` process sees it; later
  // reps would only add the timing noise of in-flight messages.
  const double peak_rss = peak_rss_mib();

  // ---- timed repetitions, tracing off.
  std::vector<Rep> reps;
  Timer measuring;
  do {
    Rep rep = run_rep(opt.ranks, *source, config, nullptr, nullptr);
    const std::string label = "rep " + std::to_string(accounting.attempted());
    if (accounting.account(label, rep)) reps.push_back(std::move(rep));
  } while (measuring.seconds() < opt.seconds);

  const auto stat_of = [&](const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return summarize(v);
  };

  MetricSet& m = rec.metrics;
  m.add("wall_s", "s", stat_of([](const Rep& r) { return r.wall_s; }));
  m.add("projected_s", "s", stat_of([](const Rep& r) { return r.projected_s; }));
  {
    std::vector<double> setups;
    for (double t : parse_times) setups.push_back(t + calibrate_s);
    m.add("setup_s", "s", summarize(setups));
  }
  m.value("peak_rss_mb", "MiB", peak_rss);
  m.count("bytes_total", "B", static_cast<double>(first.cost.total_bytes));
  m.count("messages_total", "count", static_cast<double>(first.cost.total_messages));
  m.count("supersteps", "count", static_cast<double>(first.cost.max_supersteps));
  m.count("recall", "fraction", verdict.recall);

  // ---- per-layer numbers from the timed reps.
  m.add("genome.parse_s", "s", summarize(parse_times));
  m.value("genome.parse_mb_per_s", "MiB/s",
          static_cast<double>(corpus.file_bytes) / (1024.0 * 1024.0) / parse_s);
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    const auto stage = static_cast<core::Stage>(s);
    const std::string base = std::string("core.") + stage_metric(stage);
    m.add(base + "_s", "s", stat_of([s](const Rep& r) { return r.stages.stages[s].seconds; }),
          false, /*in_wall=*/true);
  }
  for (core::Stage stage :
       {core::Stage::kPackSketch, core::Stage::kExchange, core::Stage::kAssemble}) {
    const core::StageStats& st = first.stages[stage];
    const std::string base = std::string("core.") + stage_metric(stage);
    m.count(base + "_bytes", "B", static_cast<double>(st.bytes_sent));
    m.count(base + "_msgs", "count", static_cast<double>(st.messages));
  }
  m.count("core.filtered_rows", "count", static_cast<double>(first.filtered_rows));
  m.count("core.word_rows", "count", static_cast<double>(first.word_rows));
  m.count("core.packed_nnz", "count", static_cast<double>(first.packed_nnz));
  m.add("core.batch_s_cv", "fraction", stat_of([](const Rep& r) { return r.batch_cv; }));

  const double multiply_s = m.find("core.multiply_s")->stat.value;
  m.value("distmat.crossover", "fraction",
          config.dense_crossover > 0 ? config.dense_crossover : calibrated);
  m.value("distmat.calibrate_s", "s", calibrate_s);
  m.count("distmat.flops", "count", static_cast<double>(first.cost.total_flops));
  m.value("distmat.multiply_rate", "flop/s",
          multiply_s > 0 ? static_cast<double>(first.cost.total_flops) /
                               (opt.ranks * multiply_s)
                         : 0.0);

  const std::int64_t n = source->sample_count();
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  m.count("sketch.survivors", "count", static_cast<double>(first.survivors));
  m.count("sketch.survivor_frac", "fraction", static_cast<double>(first.survivors) / pairs);
  m.value("sketch.estimate_rate", "pair/s",
          config.estimator == core::Estimator::kMinhash && multiply_s > 0
              ? static_cast<double>(n) * static_cast<double>(n) / multiply_s
              : 0.0);
  m.count("bsp.modelled_s", "s", kMachine.modelled_seconds(first.cost));
  m.count("quality.mean_abs_err", "Jaccard", verdict.mean_abs_err);

  // ---- the traced run and the bench-side probes.
  if (opt.trace) {
    obs::Observer observer(opt.ranks, std::size_t{1} << 16, kMachine);
    Rep traced = run_rep(opt.ranks, *source, config, &observer, nullptr);
    accounting.account("traced run", traced);
    traced_metrics(observer, traced.error.empty() ? traced.wall_s : 1.0,
                   m.find("wall_s")->stat.value, m);
    if (observer.total_dropped() > 0) {
      accounting.note_error("traced run dropped " +
                            std::to_string(observer.total_dropped()) + " spans");
    }
    const auto [kernel_s, kernel_flops] = kernel_probe(*source, config);
    m.value("distmat.kernel_s", "s", kernel_s);
    m.value("distmat.kernel_rate", "flop/s", kernel_s > 0 ? kernel_flops / kernel_s : 0.0);
    m.value("sketch.build_rate", "kmer/s", sketch_build_rate(*source, config));
  }

  rec.attempted = accounting.attempted();
  rec.failed = accounting.failed();
  rec.errors = accounting.errors();
  rec.correct = rec.failed == 0 && rec.errors.empty() && !reps.empty();
  return rec;
}

// ============================================================== output

/// `workload metric value unit (n, q1, q3)` per metric, then the error
/// rate over every run attempted and each failure by name.
void print_record(const WorkloadRecord& rec) {
  const char* w = rec.workload.c_str();
  for (const Metric& m : rec.metrics.all()) {
    std::printf("%s %s %.6g %s (n=%zu, q1=%.6g, q3=%.6g)\n", w, m.name.c_str(),
                m.stat.value, m.unit.c_str(), m.stat.samples.size(), m.stat.q1, m.stat.q3);
  }
  const double error_rate = rec.attempted > 0 ? static_cast<double>(rec.failed) /
                                                    static_cast<double>(rec.attempted)
                                              : 1.0;
  std::printf("%s error_rate %.6g fraction (%lld of %lld runs failed)\n", w, error_rate,
              static_cast<long long>(rec.failed), static_cast<long long>(rec.attempted));
  for (const std::string& e : rec.errors) std::printf("%s FAILED %s\n", w, e.c_str());
}

void write_record(obs::JsonWriter& w, const WorkloadRecord& rec) {
  w.begin_object()
      .field("workload", rec.workload)
      .field("correct", rec.correct)
      .field("attempted", rec.attempted)
      .field("failed", rec.failed);
  w.key("errors").begin_array();
  for (const std::string& e : rec.errors) w.value(e);
  w.end_array();
  w.key("metrics").begin_object();
  for (const Metric& m : rec.metrics.all()) {
    w.key(m.name).begin_object();
    w.field("value", m.stat.value)
        .field("unit", m.unit)
        .field("n", static_cast<std::int64_t>(m.stat.samples.size()))
        .field("q1", m.stat.q1)
        .field("q3", m.stat.q3)
        .field("counted", m.counted)
        .field("in_wall", m.in_wall);
    w.key("samples").begin_array();
    for (double s : m.stat.samples) w.value(s);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

WorkloadRecord parse_record(const obs::JsonValue& v) {
  WorkloadRecord rec;
  rec.workload = v.at("workload").str();
  rec.correct = v.at("correct").boolean();
  rec.attempted = static_cast<std::int64_t>(v.at("attempted").number());
  rec.failed = static_cast<std::int64_t>(v.at("failed").number());
  for (const obs::JsonValue& e : v.at("errors").array()) rec.errors.push_back(e.str());
  for (const auto& [name, mv] : v.at("metrics").object()) {
    Stat s;
    s.value = mv.at("value").number();
    s.q1 = mv.at("q1").number();
    s.q3 = mv.at("q3").number();
    for (const obs::JsonValue& x : mv.at("samples").array()) s.samples.push_back(x.number());
    rec.metrics.add(name, mv.at("unit").str(), s, mv.at("counted").boolean(),
                    mv.at("in_wall").boolean());
  }
  return rec;
}

/// The contract line: {correct, attempted, failed, metrics} with the
/// end-to-end metrics (trace off) or the per-layer metrics (trace on).
void print_result_line(const WorkloadRecord& rec, bool trace) {
  std::ostringstream line;
  obs::JsonWriter w(line);
  w.begin_object()
      .field("correct", rec.correct)
      .field("attempted", rec.attempted)
      .field("failed", rec.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : rec.metrics.all()) {
    if (is_end_to_end(m.name) == trace) continue;
    w.key(m.name).begin_object();
    w.field("value", m.stat.value).field("unit", m.unit).end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", line.str().c_str());
}

int run_one_workload(const ArgParser& args) {
  const Workload* w = find_workload(args.get_string("workload", ""));
  if (w == nullptr) {
    std::fprintf(stderr, "perf_ledger: unknown --workload '%s'\n",
                 args.get_string("workload", "").c_str());
    return 2;
  }
  WorkloadOptions opt;
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.seconds = args.get_double("seconds", 8.0);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.ranks = static_cast<int>(args.get_int("ranks", kRanks));
  opt.dense_crossover = args.get_double("dense-crossover", 0.0);
  opt.corpus_dir = args.get_string("corpus-dir", kDefaultCorpusDir);
  if (opt.ranks < 1 || opt.ranks > kRanks) {
    std::fprintf(stderr, "perf_ledger: --ranks must be in [1, %d]\n", kRanks);
    return 2;
  }
  const WorkloadRecord rec = measure_workload(*w, opt);
  print_record(rec);
  if (args.has("record")) {
    std::ofstream out(args.get_string("record", ""));
    obs::JsonWriter jw(out);
    write_record(jw, rec);
    out << '\n';
    if (!out) throw std::runtime_error("cannot write --record file");
  }
  print_result_line(rec, opt.trace);
  return rec.correct ? 0 : 1;
}

// ============================================================== ledger

/// Measure one workload in a child process and read back its record.
WorkloadRecord child_workload(const std::string& name, const ArgParser& args,
                              const std::vector<std::string>& extra) {
  const std::string record_path =
      args.get_string("corpus-dir", kDefaultCorpusDir) + "/" + name + ".record.json";
  std::vector<std::string> child = {
      "--workload",   name,
      "--seed",       std::to_string(args.get_int("seed", 1)),
      "--seconds",    std::to_string(args.get_double("seconds", 8.0)),
      "--trace",      "1",
      "--corpus-dir", args.get_string("corpus-dir", kDefaultCorpusDir),
      "--record",     record_path};
  child.insert(child.end(), extra.begin(), extra.end());
  std::fprintf(stderr, "perf_ledger: measuring %s\n", name.c_str());
  fs::remove(record_path);
  const int rc = run_self(child, /*quiet=*/true);
  std::ifstream in(record_path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in || text.str().empty()) {
    WorkloadRecord rec;
    rec.workload = name;
    rec.attempted = 1;
    rec.failed = 1;
    rec.errors.push_back("child exited " + std::to_string(rc) + " without a record");
    return rec;
  }
  fs::remove(record_path);
  return parse_record(obs::JsonValue::parse(text.str()));
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void write_ledger(const std::string& path, const ArgParser& args,
                  const std::vector<WorkloadRecord>& records) {
  if (const fs::path parent = fs::path(path).parent_path(); !parent.empty()) {
    fs::create_directories(parent);
  }
  std::ofstream out(path);
  obs::JsonWriter w(out);
  w.begin_object()
      .field("schema", "sas-perf-ledger-v1")
      .field("seed", static_cast<std::int64_t>(args.get_int("seed", 1)))
      .field("seconds", args.get_double("seconds", 8.0))
      .field("ranks", kRanks);
  w.key("host").begin_object()
      .field("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .field("cpu", cpu_model())
      .end_object();
  w.key("workloads").begin_object();
  for (const WorkloadRecord& rec : records) {
    w.key(rec.workload);
    write_record(w, rec);
  }
  w.end_object().end_object();
  out << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

double metric_value(const WorkloadRecord& rec, const std::string& name) {
  const Metric* m = rec.metrics.find(name);
  return m == nullptr ? 0.0 : m->stat.value;
}

/// The forced-dense re-run must move the multiply and nothing counted.
bool sensitivity_holds(const WorkloadRecord& base, const WorkloadRecord& forced) {
  bool ok = forced.failed == 0 && forced.correct;
  for (const char* counted : {"bytes_total", "core.exchange_bytes", "messages_total"}) {
    if (metric_value(base, counted) != metric_value(forced, counted)) {
      std::printf("sensitivity: %s changed (%.17g -> %.17g)\n", counted,
                  metric_value(base, counted), metric_value(forced, counted));
      ok = false;
    }
  }
  std::string largest;
  double largest_delta = 0.0;
  for (core::Stage s : {core::Stage::kIngest, core::Stage::kPackSketch,
                        core::Stage::kExchange, core::Stage::kMultiply,
                        core::Stage::kAssemble}) {
    const std::string name = std::string("core.") + stage_metric(s) + "_s";
    const double delta = metric_value(forced, name) - metric_value(base, name);
    std::printf("sensitivity: %-20s %+.4f s\n", name.c_str(), delta);
    if (delta > largest_delta) {
      largest_delta = delta;
      largest = name;
    }
  }
  const double rate_change = metric_value(forced, "distmat.multiply_rate") /
                                 metric_value(base, "distmat.multiply_rate") -
                             1.0;
  std::printf("sensitivity: distmat.multiply_rate %+.1f%%\n", 100.0 * rate_change);
  if (largest != "core.multiply_s" || rate_change >= 0.0) ok = false;
  std::printf("sensitivity: %s\n", ok ? "PASS (the slowdown sits in the multiply)" : "FAIL");
  return ok;
}

int run_ledger(const ArgParser& args) {
  std::vector<WorkloadRecord> records;
  bool ok = true;
  for (const Workload& w : workloads()) {
    records.push_back(child_workload(w.name, args, {}));
    ok = ok && records.back().failed == 0 && records.back().correct;
  }

  // Scaling shape: kingsford-summa at p = 1 and p = 2, one run each
  // (counted metrics repeat exactly; one wall time each is context).
  WorkloadRecord& kingsford = records.front();
  const double modelled_p4 = metric_value(kingsford, "bsp.modelled_s");
  for (int p : {1, 2}) {
    const WorkloadRecord scaled =
        child_workload("kingsford-summa", args,
                       {"--ranks", std::to_string(p), "--seconds", "0", "--trace", "0"});
    ok = ok && scaled.failed == 0 && scaled.correct;
    const std::string base = "scaling.p" + std::to_string(p) + ".";
    MetricSet& m = kingsford.metrics;
    m.value(base + "wall_s", "s", metric_value(scaled, "wall_s"));
    for (const auto& [counted, unit] : {std::pair{"bytes_total", "B"},
                                        std::pair{"messages_total", "count"},
                                        std::pair{"supersteps", "count"},
                                        std::pair{"bsp.modelled_s", "s"}}) {
      m.count(base + counted, unit, metric_value(scaled, counted));
    }
    if (p == 1) {
      m.count("scaling.efficiency", "ratio",
              metric_value(scaled, "bsp.modelled_s") / (kRanks * modelled_p4));
    }
  }

  for (const WorkloadRecord& rec : records) print_record(rec);
  const std::string json = args.get_string("json", "");
  if (!json.empty()) write_ledger(json, args, records);

  if (args.has("sensitivity")) {
    const WorkloadRecord forced =
        child_workload("kingsford-summa", args, {"--dense-crossover", "0.05"});
    if (!json.empty()) {
      std::string path = json;
      if (path.size() > 5 && path.ends_with(".json")) path.resize(path.size() - 5);
      write_ledger(path + ".sensitivity.json", args, {forced});
    }
    ok = sensitivity_holds(kingsford, forced) && ok;
  }
  std::printf("perf_ledger: %s\n", ok ? "all workloads verified" : "FAILURES above");
  return ok ? 0 : 1;
}

// ============================================================ self-test

int run_self_test(const ArgParser& args) {
  const std::string dir = args.get_string("corpus-dir", kDefaultCorpusDir);
  const std::uint64_t seed = 1;
  write_corpus(dir, "selftest", seed);
  const Corpus corpus = load_corpus(dir, "selftest", seed).value();
  const genome::KmerFileSource source(corpus.k, corpus.paths);
  const std::int64_t n = source.sample_count();

  // The oracle covers every pair of the tiny corpus, so it fixes the
  // expected output digest outright.
  std::vector<double> expected(static_cast<std::size_t>(n * n), 1.0);
  for (const OraclePair& p : corpus.oracle) {
    expected[static_cast<std::size_t>(p.i * n + p.j)] = p.jaccard;
    expected[static_cast<std::size_t>(p.j * n + p.i)] = p.jaccard;
  }
  core::Config config;
  config.algorithm = core::Algorithm::kRing1D;
  config.batch_count = 2;

  Accounting accounting;
  accounting.set_reference_digest(digest_values(expected));

  core::Config faulty = config;
  faulty.fault_plan = "rank=1:op=2:throw";
  const bool faulty_passed =
      accounting.account("run 1 (permanent fault " + faulty.fault_plan + ")",
                         run_rep(kRanks, source, faulty, nullptr, nullptr));

  Rep tampered = run_rep(kRanks, source, config, nullptr, nullptr);
  tampered.digest ^= 1;
  const bool tampered_passed = accounting.account("run 2 (tampered digest)", tampered);

  const double error_rate =
      static_cast<double>(accounting.failed()) / static_cast<double>(accounting.attempted());
  for (const std::string& e : accounting.errors()) {
    std::printf("self-test counted: %s\n", e.c_str());
  }
  std::printf("self-test: error_rate %.2f (%lld of %lld runs failed)\n", error_rate,
              static_cast<long long>(accounting.failed()),
              static_cast<long long>(accounting.attempted()));
  bool ok = !faulty_passed && !tampered_passed && error_rate == 1.0 &&
            accounting.errors().size() == 2;

  // Control: the same clean run, untampered, must verify against the
  // oracle digest — the checker is not simply failing everything.
  Accounting control;
  control.set_reference_digest(digest_values(expected));
  core::Result result;
  const Rep clean = run_rep(kRanks, source, config, nullptr, &result);
  const Verification v = verify(result, config, corpus.oracle);
  const bool clean_passed = control.account("control run", clean) && v.failure.empty();
  std::printf("self-test: control run %s\n", clean_passed ? "verified" : "FAILED");
  ok = ok && clean_passed;
  fs::remove_all(corpus_path(dir, "selftest"));
  std::printf("self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  try {
    if (args.has("generate")) {
      write_corpus(args.get_string("corpus-dir", kDefaultCorpusDir),
                   args.get_string("generate", ""),
                   static_cast<std::uint64_t>(args.get_int("seed", 1)));
      return 0;
    }
    if (args.has("self-test")) return run_self_test(args);
    if (args.has("workload")) return run_one_workload(args);
    return run_ledger(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 2;
  }
}
