#include "bsp/protocol.hpp"

#include <string>

#include "bsp/comm.hpp"
#include "util/error.hpp"

namespace sas::bsp {

const char* proto_op_name(ProtoOp op) noexcept {
  switch (op) {
    case ProtoOp::kBarrier: return "barrier";
    case ProtoOp::kBroadcast: return "broadcast";
    case ProtoOp::kReduce: return "reduce";
    case ProtoOp::kAllreduce: return "allreduce";
    case ProtoOp::kGather: return "gather_v";
    case ProtoOp::kAllgather: return "allgather_v";
    case ProtoOp::kAlltoall: return "alltoall_v";
    case ProtoOp::kSplit: return "split";
  }
  return "unknown";
}

std::string format_entry(const ProtocolEntry& entry) {
  // Built by append, not `"#" + to_string(...)`: GCC 12's -Wrestrict
  // false-positives on operator+(const char*, string&&) (PR 105651).
  std::string out = "#";
  out += std::to_string(entry.seq);
  out += ' ';
  out += proto_op_name(entry.op);
  out += "(tag=";
  out += std::to_string(entry.tag);
  out += ", elem=";
  out += std::to_string(entry.elem_size);
  out += ", shape=";
  out += std::to_string(entry.shape);
  out += ")";
  return out;
}

std::vector<ProtocolEntry> ProtocolLedger::recent() const {
  const std::uint64_t n = count_ < kRecent ? count_ : kRecent;
  std::vector<ProtocolEntry> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = count_ - n; i < count_; ++i) {
    out.push_back(recent_[static_cast<std::size_t>(i % kRecent)]);
  }
  return out;
}

std::string ProtocolLedger::render_recent() const {
  if (count_ == 0) return "(no collectives recorded)";
  std::string out;
  for (const ProtocolEntry& entry : recent()) {
    if (!out.empty()) out += "; ";
    out += format_entry(entry);
  }
  return out;
}

std::string describe_ledger_divergence(std::span<const ProtocolLedger> ledgers,
                                       const std::string& label,
                                       const std::string& where) {
  if (ledgers.size() < 2) return {};
  const ProtocolLedger& reference = ledgers[0];
  for (std::size_t r = 1; r < ledgers.size(); ++r) {
    const ProtocolLedger& other = ledgers[r];
    if (other.count() == reference.count() && other.hash() == reference.hash()) {
      continue;
    }
    std::string message = "bsp protocol verifier: collective sequence diverged at ";
    message += where;
    message += " on ";
    message += label;
    message += ": rank 0 issued ";
    message += std::to_string(reference.count());
    message += " collectives (ledger hash ";
    message += std::to_string(reference.hash());
    message += ") but rank ";
    message += std::to_string(r);
    message += " issued ";
    message += std::to_string(other.count());
    message += " (ledger hash ";
    message += std::to_string(other.hash());
    message += ")\n  rank 0 recent: ";
    message += reference.render_recent();
    message += "\n  rank ";
    message += std::to_string(r);
    message += " recent: ";
    message += other.render_recent();
    return message;
  }
  return {};
}

namespace {

/// Throws on ledger divergence or any unreceived message in `state`'s
/// mailboxes. Single-threaded caller (after join), so plain reads.
void sweep_state(detail::SharedState& state, const std::string& label) {
  const std::string diverged = describe_ledger_divergence(
      std::span<const ProtocolLedger>(state.ledgers), label, "run exit");
  if (!diverged.empty()) throw error::ProtocolError(diverged);

  for (int dest = 0; dest < state.size; ++dest) {
    const auto pending =
        state.mailboxes[static_cast<std::size_t>(dest)].pending();
    if (pending.empty()) continue;
    const Mailbox::Pending& first = pending.front();
    std::string message = "bsp protocol verifier: ";
    message += std::to_string(pending.size());
    message += " unreceived message(s) at run exit on ";
    message += label;
    message += "; first leak: ";
    message += std::to_string(first.count);
    message += " message(s) from rank ";
    message += std::to_string(first.source);
    message += " to rank ";
    message += std::to_string(dest);
    message += " (tag=";
    message += std::to_string(first.tag);
    message += ", ";
    message += std::to_string(first.bytes);
    message += " bytes) sent but never received";
    throw error::ProtocolError(message);
  }
}

}  // namespace

void verify_protocol_at_exit(detail::SharedState& world) {
  sweep_state(world, world.label);
  if (world.protocol_registry == nullptr) return;
  for (const auto& child : world.protocol_registry->snapshot()) {
    sweep_state(*child, child->label);
  }
}

}  // namespace sas::bsp
