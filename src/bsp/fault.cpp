#include "bsp/fault.hpp"

#include <cstddef>
#include <string>

#include "util/parse.hpp"
#include "util/rng.hpp"

namespace sas::bsp {

namespace {

[[nodiscard]] std::uint64_t parse_u64(const std::string& text, const std::string& spec) {
  if (const auto value = parse_number<std::uint64_t>(text)) return *value;
  throw error::ConfigError("fault plan: expected a non-negative integer in '" + spec +
                           "'");
}

/// "key=value" -> value, enforcing the key.
[[nodiscard]] std::string expect_field(const std::string& part, const std::string& key,
                                       const std::string& spec) {
  const std::string prefix = key + "=";
  if (part.rfind(prefix, 0) != 0) {
    throw error::ConfigError("fault plan: expected '" + key + "=...' in '" + spec +
                             "', got '" + part + "'");
  }
  return part.substr(prefix.size());
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t end = spec.find(';', begin);
    const std::string entry =
        spec.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    begin = end == std::string::npos ? spec.size() + 1 : end + 1;
    if (entry.empty()) continue;

    // entry = rank=R:op=K:<kind>[=param]
    std::vector<std::string> parts;
    std::size_t p = 0;
    while (p <= entry.size()) {
      const std::size_t colon = entry.find(':', p);
      parts.push_back(entry.substr(
          p, colon == std::string::npos ? std::string::npos : colon - p));
      p = colon == std::string::npos ? entry.size() + 1 : colon + 1;
    }
    if (parts.size() < 3) {
      throw error::ConfigError(
          "fault plan: each action needs "
          "'rank=R:op=K:throw|throw_transient|flip|delay=MS[:until=A][:count=N]', "
          "got '" +
          entry + "'");
    }

    FaultAction action;
    action.rank = static_cast<int>(parse_u64(expect_field(parts[0], "rank", entry), entry));
    action.op = parse_u64(expect_field(parts[1], "op", entry), entry);

    std::string kind = parts[2];
    std::string param;
    if (const std::size_t eq = kind.find('='); eq != std::string::npos) {
      param = kind.substr(eq + 1);
      kind = kind.substr(0, eq);
    }
    if (kind == "throw") {
      if (!param.empty()) {
        throw error::ConfigError("fault plan: 'throw' takes no parameter in '" + entry +
                                 "'");
      }
      action.kind = FaultKind::kThrow;
    } else if (kind == "throw_transient") {
      if (!param.empty()) {
        throw error::ConfigError("fault plan: 'throw_transient' takes no parameter in '" +
                                 entry + "'");
      }
      action.kind = FaultKind::kThrowTransient;
    } else if (kind == "flip") {
      action.kind = FaultKind::kFlip;
      action.param = param.empty() ? 0 : parse_u64(param, entry);
    } else if (kind == "delay") {
      if (param.empty()) {
        throw error::ConfigError("fault plan: 'delay' needs milliseconds in '" + entry +
                                 "'");
      }
      action.kind = FaultKind::kDelay;
      action.param = parse_u64(param, entry);
    } else {
      throw error::ConfigError("fault plan: unknown action '" + kind + "' in '" + entry +
                               "' (throw|throw_transient|flip|delay)");
    }

    // Trailing modifier fields, any order, each at most once.
    bool saw_until = false;
    bool saw_count = false;
    for (std::size_t f = 3; f < parts.size(); ++f) {
      const std::string& part = parts[f];
      if (part.rfind("until=", 0) == 0) {
        if (saw_until) {
          throw error::ConfigError("fault plan: duplicate 'until' in '" + entry + "'");
        }
        if (action.kind != FaultKind::kThrowTransient) {
          throw error::ConfigError(
              "fault plan: 'until' only applies to throw_transient in '" + entry + "'");
        }
        action.until_attempt = parse_u64(part.substr(6), entry);
        saw_until = true;
      } else if (part.rfind("count=", 0) == 0) {
        if (saw_count) {
          throw error::ConfigError("fault plan: duplicate 'count' in '" + entry + "'");
        }
        action.count = parse_u64(part.substr(6), entry);
        if (action.count == 0) {
          throw error::ConfigError("fault plan: 'count' must be >= 1 in '" + entry + "'");
        }
        saw_count = true;
      } else {
        throw error::ConfigError("fault plan: unknown field '" + part + "' in '" + entry +
                                 "' (until=A|count=N)");
      }
    }
    plan.actions.push_back(action);
  }
  return plan;
}

FaultPlan FaultPlan::random_throw(std::uint64_t seed, int nranks, std::uint64_t max_op) {
  Rng rng(seed);
  FaultAction action;
  action.kind = FaultKind::kThrow;
  action.rank = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(nranks)));
  action.op = rng.uniform(max_op == 0 ? 1 : max_op);
  FaultPlan plan;
  plan.actions.push_back(action);
  return plan;
}

FaultPlan FaultPlan::random_transient(std::uint64_t seed, int nranks,
                                      std::uint64_t max_op, std::uint64_t until) {
  FaultPlan plan = random_throw(seed, nranks, max_op);
  plan.actions.front().kind = FaultKind::kThrowTransient;
  plan.actions.front().until_attempt = until;
  return plan;
}

void FaultPlan::apply(FaultSlot& slot, std::vector<std::byte>* payload) const {
  if (actions.empty()) return;
  if (slot.fired.size() != actions.size()) {
    slot.fired.assign(actions.size(), 0);
    slot.fired_epoch.assign(actions.size(), 0);
  }
  const std::uint64_t op = slot.ops++;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const FaultAction& action = actions[i];
    if (action.rank != slot.world_rank || op < action.op) continue;
    if (action.kind == FaultKind::kThrowTransient) {
      // Transient firing counts are per replay attempt: a new attempt
      // re-arms the action until the plan says it heals.
      if (slot.fired_epoch[i] != slot.attempt) {
        slot.fired_epoch[i] = slot.attempt;
        slot.fired[i] = 0;
      }
      if (slot.attempt >= action.until_attempt) continue;  // healed
    }
    if (slot.fired[i] >= action.count) continue;
    switch (action.kind) {
      case FaultKind::kThrow:
        ++slot.fired[i];
        throw FaultInjected("fault injection: rank " + std::to_string(slot.world_rank) +
                            " throw at op " + std::to_string(op));
      case FaultKind::kThrowTransient:
        ++slot.fired[i];
        throw TransientFaultInjected(
            "fault injection: rank " + std::to_string(slot.world_rank) +
            " transient throw at op " + std::to_string(op) + " (attempt " +
            std::to_string(slot.attempt) + ")");
      case FaultKind::kFlip:
        // A flip needs bytes to corrupt; hold fire until an op carries a
        // payload.
        if (payload == nullptr || payload->empty()) break;
        ++slot.fired[i];
        (*payload)[static_cast<std::size_t>(action.param % payload->size())] ^=
            std::byte{0xff};
        break;
      case FaultKind::kDelay:
        ++slot.fired[i];
        std::this_thread::sleep_for(std::chrono::milliseconds(action.param));
        break;
    }
  }
}

}  // namespace sas::bsp
