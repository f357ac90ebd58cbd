// test_corruption.cpp — the corruption matrix (ISSUE 6 satellite): every
// byte-level truncation and single-byte flip of each persisted artifact
// must either parse to a benign value or throw the TYPED
// sas::error::CorruptInput (sketch estimate layers may also reject with
// std::invalid_argument) — never crash, never allocate absurd memory,
// never silently index out of bounds. Run under ASan/UBSan/TSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/matrix_io.hpp"
#include "core/similarity_matrix.hpp"
#include "distmat/dist_filter.hpp"
#include "genome/kmer_source.hpp"
#include "genome/sample.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "sketch/sketch.hpp"
#include "util/error.hpp"

namespace sas {
namespace {

namespace fs = std::filesystem;

// ----------------------------------------------------------- SASM matrices

std::string serialized_dense() {
  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  const std::vector<double> values = {1.0, 0.5, 0.25, 0.5, 1.0, 0.125,
                                      0.25, 0.125, 1.0};
  std::ostringstream out(std::ios::binary);
  core::write_similarity_binary(out, names, core::SimilarityMatrix(3, values));
  return out.str();
}

TEST(CorruptionMatrix, DenseTruncationsAllThrowTyped) {
  const std::string bytes = serialized_dense();
  // A full read round-trips.
  {
    std::istringstream in(bytes, std::ios::binary);
    const auto loaded = core::read_similarity_binary(in);
    EXPECT_EQ(loaded.names.size(), 3u);
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)core::read_similarity_binary(in), error::CorruptInput)
        << "truncation to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(CorruptionMatrix, DenseFlipsAreBenignOrTyped) {
  const std::string bytes = serialized_dense();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    std::istringstream in(flipped, std::ios::binary);
    try {
      const auto loaded = core::read_similarity_binary(in);
      (void)loaded.matrix.similarity(0, 0);  // benign parse must be usable
    } catch (const error::CorruptInput&) {
      // typed rejection: fine
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip at byte " << pos << " escaped the taxonomy: "
                    << e.what();
    }
  }
}

// ------------------------------------------------------------ SASP sparse

std::string serialized_sparse() {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::vector<std::uint64_t> survivor_keys = {
      core::SparseSimilarity::pack_pair(0, 1), core::SparseSimilarity::pack_pair(1, 2)};
  std::vector<double> survivor_values = {0.5, 0.25};
  std::vector<std::uint64_t> estimate_keys = {core::SparseSimilarity::pack_pair(0, 3)};
  std::vector<double> estimate_values = {0.125};
  std::vector<std::int64_t> ahat = {10, 20, 30, 40};
  const core::SparseSimilarity sparse(4, std::move(survivor_keys),
                                      std::move(survivor_values),
                                      std::move(estimate_keys),
                                      std::move(estimate_values), std::move(ahat));
  std::ostringstream out(std::ios::binary);
  core::write_sparse_similarity_binary(out, names, sparse);
  return out.str();
}

TEST(CorruptionMatrix, SparseTruncationsAllThrowTyped) {
  const std::string bytes = serialized_sparse();
  {
    std::istringstream in(bytes, std::ios::binary);
    const auto loaded = core::read_sparse_similarity_binary(in);
    EXPECT_EQ(loaded.sparse.survivor_count(), 2);
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)core::read_sparse_similarity_binary(in), error::CorruptInput)
        << "truncation to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(CorruptionMatrix, SparseFlipsAreBenignOrTyped) {
  const std::string bytes = serialized_sparse();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    std::istringstream in(flipped, std::ios::binary);
    try {
      const auto loaded = core::read_sparse_similarity_binary(in);
      (void)loaded.sparse.similarity(0, 1);  // benign parse must be usable
    } catch (const error::CorruptInput&) {
      // typed rejection (including wrapped SparseSimilarity invariants)
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip at byte " << pos << " escaped the taxonomy: "
                    << e.what();
    }
  }
}

// ------------------------------------------------------ sketch wire files

std::vector<std::uint64_t> sample_wire() {
  std::vector<std::uint64_t> kmers;
  for (std::uint64_t v = 0; v < 400; ++v) kmers.push_back(v * 13 + 1);
  return sketch::OnePermMinHash(std::span<const std::uint64_t>(kmers), 64, 16, 7)
      .wire();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CorruptionMatrix, WireFileTruncationsAreTypedOrValidated) {
  const auto wire = sample_wire();
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_wire";
  fs::create_directories(dir);
  const fs::path path = dir / "sample.sketch";

  std::string bytes(reinterpret_cast<const char*>(wire.data()), wire.size() * 8);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, bytes.substr(0, len));
    try {
      const auto loaded = sketch::read_wire_file(path.string());
      // A whole-word truncation that keeps the magic reads back; the
      // estimate layer's wire validation must then either accept it (the
      // header is self-describing) or reject it — not crash.
      (void)sketch::estimate_jaccard_wire(std::span<const std::uint64_t>(loaded),
                                          std::span<const std::uint64_t>(loaded));
    } catch (const error::CorruptInput&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "truncation to " << len << " escaped: " << e.what();
    }
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, WireFileFlipsAreTypedOrValidated) {
  const auto wire = sample_wire();
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_wire_flip";
  fs::create_directories(dir);
  const fs::path path = dir / "sample.sketch";

  std::string bytes(reinterpret_cast<const char*>(wire.data()), wire.size() * 8);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    write_bytes(path, flipped);
    try {
      const auto loaded = sketch::read_wire_file(path.string());
      (void)sketch::estimate_jaccard_wire(std::span<const std::uint64_t>(loaded),
                                          std::span<const std::uint64_t>(loaded));
    } catch (const error::CorruptInput&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip at byte " << pos << " escaped: " << e.what();
    }
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, MissingWireFileIsStillAbsenceNotCorruption) {
  EXPECT_TRUE(sketch::read_wire_file("/nonexistent/sas/sketch.blob").empty());
}

// --------------------------------------------------------- .kmers samples

/// Load `bytes` as a one-sample k = 8 corpus through the CLI's loader. A
/// benign parse must be usable; a rejection must be typed: CorruptInput
/// for bad lines or order, ConfigError for a code outside 4^k.
void expect_kmers_benign_or_typed(const fs::path& path, const std::string& bytes,
                                  const std::string& label) {
  write_bytes(path, bytes);
  try {
    const genome::KmerFileSource source(8, {path.string()});
    (void)source.values_in_range(0, {0, source.attribute_universe()});
  } catch (const error::CorruptInput&) {
  } catch (const error::ConfigError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
}

std::string serialized_kmers(const fs::path& path) {
  genome::KmerSample sample;
  sample.name = "s";
  sample.kmers = {3, 17, 250, 4000, 65000};
  genome::write_sample_file(path.string(), sample);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CorruptionMatrix, KmersTruncationsAndFlipsAreBenignOrTyped) {
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_kmers";
  fs::create_directories(dir);
  const fs::path path = dir / "s.kmers";
  const std::string bytes = serialized_kmers(path);
  ASSERT_EQ(genome::read_sample_file(path.string()).kmers.size(), 5u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    expect_kmers_benign_or_typed(path, bytes.substr(0, len),
                                 "truncation to " + std::to_string(len));
  }
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    expect_kmers_benign_or_typed(path, flipped, "flip at byte " + std::to_string(pos));
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, KmersLinesMustBeWholeUnsignedCodes) {
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_kmers_lines";
  fs::create_directories(dir);
  const fs::path path = dir / "s.kmers";
  // Partial numbers, signs, overflow, and FASTA passed as .kmers.
  for (const std::string line : {"12abc", "-5", "+5", " 7", "18446744073709551616",
                                 ">chr1 description", "ACGT"}) {
    write_bytes(path, "# s\n1\n" + line + "\n");
    try {
      (void)genome::read_sample_file(path.string());
      ADD_FAILURE() << "'" << line << "' was accepted";
    } catch (const error::CorruptInput& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path.string()), std::string::npos) << what;
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << line << "' escaped the taxonomy: " << e.what();
    }
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, KmersCodesOutsideTheUniverseAreConfigErrors) {
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_kmers_k";
  fs::create_directories(dir);
  const fs::path path = dir / "s.kmers";
  write_bytes(path, "# s\n1\n70000\n");  // needs k >= 9
  try {
    (void)genome::KmerFileSource(8, {path.string()});
    ADD_FAILURE() << "a code outside 4^8 was accepted";
  } catch (const error::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong k escaped the taxonomy: " << e.what();
  }
  EXPECT_NO_THROW((void)genome::KmerFileSource(9, {path.string()}));
  EXPECT_THROW((void)genome::KmerFileSource(0, {path.string()}), error::ConfigError);
  EXPECT_THROW((void)genome::KmerFileSource(32, {path.string()}), error::ConfigError);
  fs::remove_all(dir);
}

// ------------------------------------------- compressed index set decode

void expect_decode_contained(const std::vector<std::uint64_t>& words,
                             std::int64_t extent, const std::string& label) {
  try {
    const auto decoded =
        distmat::decode_index_set(std::span<const std::uint64_t>(words), extent);
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_GE(decoded[i], 0) << label;
      ASSERT_LT(decoded[i], extent) << label;
    }
  } catch (const error::CorruptInput&) {
    // typed rejection: fine
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
}

TEST(CorruptionMatrix, IndexSetDamageIsBenignOrTyped) {
  // Three inputs chosen to exercise all three encodings: dense (RLE),
  // huge-gap hypersparse (delta varint), and a tiny set (raw list).
  struct Shape {
    std::vector<std::int64_t> indices;
    std::int64_t extent;
  };
  std::vector<Shape> shapes;
  Shape dense;
  dense.extent = 512;
  for (std::int64_t v = 0; v < 512; v += 2) dense.indices.push_back(v);
  shapes.push_back(dense);
  Shape hypersparse;
  hypersparse.extent = std::int64_t{1} << 45;
  for (std::int64_t v = 0; v < 200; ++v) {
    hypersparse.indices.push_back(v * 33554432);
  }
  shapes.push_back(hypersparse);
  shapes.push_back(Shape{{3, 99, 1000}, 4096});

  for (const Shape& shape : shapes) {
    const auto words = distmat::encode_index_set(
        std::span<const std::int64_t>(shape.indices), shape.extent);
    const std::string mode = "mode " + std::to_string(words.empty() ? 99 : words[0]);

    // Truncations: drop trailing words one at a time.
    for (std::size_t len = 0; len < words.size(); ++len) {
      const std::vector<std::uint64_t> cut(words.begin(),
                                           words.begin() + static_cast<long>(len));
      expect_decode_contained(cut, shape.extent,
                              mode + " truncated to " + std::to_string(len));
    }

    // Byte flips in every word.
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (int byte = 0; byte < 8; ++byte) {
        std::vector<std::uint64_t> flipped = words;
        flipped[w] ^= std::uint64_t{0xff} << (byte * 8);
        expect_decode_contained(flipped, shape.extent,
                                mode + " flip word " + std::to_string(w) + " byte " +
                                    std::to_string(byte));
      }
    }
  }
}

}  // namespace
}  // namespace sas
