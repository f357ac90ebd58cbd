// bench_common.hpp — shared harness for the paper-reproduction benches:
// one measured run of the core driver, and the banner every bench prints
// above its tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bsp/cost_model.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sas::bench {

/// One measured configuration of the core driver.
struct RunResult {
  core::Result result;
  bsp::CostSummary cost;
  double wall_seconds = 0.0;
};

/// `observer` (optional) is bound to the rank threads for the run — the
/// drift-gate and tracing-overhead benches pass one; everything else
/// runs unobserved (null observer = one TLS load per span site).
inline RunResult run_driver(int ranks, const core::SampleSource& source,
                            const core::Config& config,
                            obs::Observer* observer = nullptr) {
  RunResult out;
  std::vector<bsp::CostCounters> counters;
  Timer timer;
  out.result =
      core::similarity_at_scale_threaded(ranks, source, config, &counters, observer);
  out.wall_seconds = timer.seconds();
  out.cost = bsp::CostSummary::aggregate(counters);
  return out;
}

/// Resident bytes of a run's rank-0 output: the dense matrix's n²
/// doubles, or the sparse view's survivor-proportional vectors.
inline std::uint64_t result_output_bytes(const core::Result& result) {
  if (result.sparse_output()) return result.sparse_similarity.resident_bytes();
  return static_cast<std::uint64_t>(result.similarity.values().size()) * sizeof(double);
}

inline void print_header(const char* experiment, const char* paper_ref,
                         const std::string& workload) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("workload:   %s\n", workload.c_str());
  std::printf("==============================================================\n\n");
}

}  // namespace sas::bench
