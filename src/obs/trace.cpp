#include "obs/trace.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace sas::obs {

const char* primitive_name(Primitive p) noexcept {
  switch (p) {
    case Primitive::kBroadcast:
      return "broadcast";
    case Primitive::kReduce:
      return "reduce";
    case Primitive::kAllreduce:
      return "allreduce";
    case Primitive::kGather:
      return "gather";
    case Primitive::kAllgather:
      return "allgather";
    case Primitive::kAlltoall:
      return "alltoall";
    case Primitive::kBarrier:
      return "barrier";
  }
  return "unknown";
}

std::array<DriftCell, kPrimitiveCount> Observer::aggregate_drift() const {
  std::array<DriftCell, kPrimitiveCount> total{};
  for (const auto& rank : ranks_) {
    for (std::size_t p = 0; p < kPrimitiveCount; ++p) {
      const DriftCell& cell = rank->drift()[p];
      total[p].samples += cell.samples;
      total[p].predicted_seconds += cell.predicted_seconds;
      total[p].measured_seconds += cell.measured_seconds;
    }
  }
  return total;
}

void Observer::write_chrome_trace(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& rank : ranks_) {
    const int pid = rank->rank();
    // Rank → "process" mapping: each BSP rank renders as its own process
    // row in Perfetto; the single rank thread is tid 0.
    w.begin_object();
    w.field("name", "process_name").field("ph", "M").field("pid", pid);
    w.field("tid", 0);
    w.key("args");
    w.begin_object();
    w.field("name", "rank " + std::to_string(pid));
    w.end_object();
    w.end_object();
    w.begin_object();
    w.field("name", "thread_name").field("ph", "M").field("pid", pid);
    w.field("tid", 0);
    w.key("args");
    w.begin_object();
    w.field("name", "bsp rank " + std::to_string(pid));
    w.end_object();
    w.end_object();
    for (const SpanEvent& ev : rank->events()) {
      w.begin_object();
      w.field("name", ev.name).field("cat", ev.category).field("ph", "X");
      w.field("pid", pid).field("tid", 0);
      // Trace-event timestamps are microseconds; fractional values keep
      // nanosecond resolution.
      w.field("ts", static_cast<double>(ev.start_ns) / 1e3);
      w.field("dur", static_cast<double>(ev.dur_ns) / 1e3);
      w.key("args");
      w.begin_object();
      w.field("bytes_sent", ev.bytes_sent);
      w.field("bytes_received", ev.bytes_received);
      w.field("messages", ev.messages);
      // Per-tier traffic under a node topology: intra = same-node subset,
      // inter = the remainder. Omitted on flat runs to keep traces small.
      if (ev.messages_intra > 0 || ev.bytes_intra > 0) {
        w.field("bytes_intra", ev.bytes_intra);
        w.field("bytes_inter", ev.bytes_sent - ev.bytes_intra);
        w.field("messages_intra", ev.messages_intra);
      }
      if (ev.batch >= 0) w.field("batch", ev.batch);
      if (ev.predicted_s >= 0.0) {
        w.field("predicted_us", ev.predicted_s * 1e6);
      }
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.key("otherData");
  w.begin_object();
  w.field("tool", "sas");
  w.field("dropped_spans", total_dropped());
  {
    const std::lock_guard<std::mutex> lock(abort_mutex_);
    w.field("aborted", aborted_);
    if (aborted_) {
      w.field("abort_message", abort_message_);
      w.field("blocked_sites", blocked_sites_);
    }
  }
  w.end_object();
  w.end_object();
  out << '\n';
}

void Observer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw error::ConfigError("cannot write trace file: " + path);
  }
  write_chrome_trace(out);
  out.flush();
  if (!out) {
    throw error::ConfigError("failed writing trace file: " + path);
  }
}

}  // namespace sas::obs
