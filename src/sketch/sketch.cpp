#include "sketch/sketch.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "sketch/bottomk.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "util/error.hpp"

namespace sas::sketch {

WireType wire_type(std::span<const std::uint64_t> wire) {
  if (wire.size() < kWireHeaderWords || (wire[0] >> 32) != kWireMagic) {
    throw std::invalid_argument("sketch::wire_type: not a sketch wire blob");
  }
  switch (wire[0] & 0xff) {
    case static_cast<std::uint64_t>(WireType::kOnePermMinHash):
      return WireType::kOnePermMinHash;
    case static_cast<std::uint64_t>(WireType::kBottomK):
      return WireType::kBottomK;
    default:
      throw std::invalid_argument("sketch::wire_type: unknown sketch type tag");
  }
}

double estimate_jaccard_wire(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b) {
  const WireType type = wire_type(a);
  if (type != wire_type(b)) {
    throw std::invalid_argument("estimate_jaccard_wire: mismatched sketch types");
  }
  switch (type) {
    case WireType::kOnePermMinHash:
      return oph_wire_jaccard(a, b);
    case WireType::kBottomK:
      return bottomk_wire_jaccard(a, b);
  }
  throw std::logic_error("estimate_jaccard_wire: unreachable");
}

void write_wire_file(const std::string& path, std::span<const std::uint64_t> wire) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw error::ConfigError("write_wire_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(wire.data()),
            static_cast<std::streamsize>(wire.size_bytes()));
  if (!out) throw error::ConfigError("write_wire_file: short write to " + path);
}

std::vector<std::uint64_t> read_wire_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};  // missing/unreadable: "no persisted sketch"
  // The file EXISTS from here on: any malformation is data corruption,
  // not absence, and must surface as a typed error instead of silently
  // falling back to recomputation (which would mask bit rot).
  const std::streamsize bytes = in.tellg();
  if (bytes <= 0 || bytes % static_cast<std::streamsize>(sizeof(std::uint64_t)) != 0) {
    throw error::CorruptInput("read_wire_file: " + path +
                              ": size is not a whole number of sketch words");
  }
  std::vector<std::uint64_t> wire(static_cast<std::size_t>(bytes) / sizeof(std::uint64_t));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(wire.data()), bytes);
  if (!in) {
    throw error::CorruptInput("read_wire_file: " + path + ": short read");
  }
  if (wire.size() < kWireHeaderWords || (wire[0] >> 32) != kWireMagic) {
    throw error::CorruptInput("read_wire_file: " + path + ": bad sketch wire magic");
  }
  return wire;
}

}  // namespace sas::sketch
