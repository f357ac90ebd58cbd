// test_corruption.cpp — the corruption matrix: every byte-level
// truncation and single-byte flip of each persisted artifact and wire codec
// must either parse to a benign value or throw the TYPED
// sas::error::CorruptInput (sketch estimate layers may also reject with
// std::invalid_argument) — never crash, never allocate absurd memory,
// never silently index out of bounds. Run under ASan/UBSan/TSan in CI.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/matrix_io.hpp"
#include "core/packing.hpp"
#include "core/similarity_matrix.hpp"
#include "distmat/gather.hpp"
#include "distmat/panel_wire.hpp"
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

// ------------------------------------------------ set-bit wire decode

/// Decode a damaged panel message both ways: each must throw the typed
/// CorruptInput or yield a canonical panel inside the extents.
void expect_panel_contained(const std::vector<std::uint8_t>& bytes,
                            distmat::PanelOrder order, distmat::PanelExtents extents,
                            const std::string& label) {
  const std::int64_t rows = extents.rows.size();
  const std::int64_t cols = extents.cols.size();
  const bool row_major = order == distmat::PanelOrder::kRowMajor;
  try {
    std::vector<distmat::Triplet<std::uint64_t>> entries;
    distmat::decode_panel_append(bytes, order, extents, entries);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& t = entries[i];
      ASSERT_TRUE(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols) << label;
      if (i == 0) continue;
      const auto& prev = entries[i - 1];
      const std::int64_t major = row_major ? t.row : t.col;
      const std::int64_t minor = row_major ? t.col : t.row;
      const std::int64_t prev_major = row_major ? prev.row : prev.col;
      const std::int64_t prev_minor = row_major ? prev.col : prev.row;
      ASSERT_TRUE(major > prev_major || (major == prev_major && minor > prev_minor)) << label;
    }
    if (!row_major) return;
    const distmat::CsrPanel panel = distmat::decode_panel(bytes, extents);
    ASSERT_EQ(panel.row_ptr.size(), panel.row_ids.size() + 1) << label;
    for (std::int64_t k = 0; k < panel.occupied(); ++k) {
      ASSERT_TRUE(panel.row_id(k) >= 0 && panel.row_id(k) < rows) << label;
      if (k > 0) {
        ASSERT_GT(panel.row_id(k), panel.row_id(k - 1)) << label;
      }
      for (std::int64_t e = panel.row_begin(k); e < panel.row_end(k); ++e) {
        const std::int64_t c = panel.col_idx[static_cast<std::size_t>(e)];
        ASSERT_TRUE(c >= 0 && c < cols) << label;
        if (e > panel.row_begin(k)) {
          ASSERT_GT(c, panel.col_idx[static_cast<std::size_t>(e - 1)]) << label;
        }
      }
    }
  } catch (const error::CorruptInput&) {
    // typed rejection: fine
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
}

/// Decode a damaged index-set message: it must throw the typed
/// CorruptInput or yield a sorted set inside [0, extent).
void expect_index_set_contained(const std::vector<std::uint8_t>& bytes, std::int64_t extent,
                                const std::string& label) {
  try {
    const auto decoded = distmat::decode_index_set(bytes, extent);
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_TRUE(decoded[i] >= 0 && decoded[i] < extent) << label;
      if (i > 0) {
        ASSERT_GT(decoded[i], decoded[i - 1]) << label;
      }
    }
  } catch (const error::CorruptInput&) {
    // typed rejection: fine
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
}

/// Every truncation and every single-byte flip of a message body,
/// labelled. The transport's CRC (bsp/comm.hpp) rejects such damage in
/// flight; here it reaches the decoder, whose own checks must contain it.
template <typename Check>
void sweep_damage(const std::vector<std::uint8_t>& bytes, const std::string& label,
                  Check check) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    check(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + static_cast<long>(len)),
          label + " truncated to " + std::to_string(len));
  }
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[pos] ^= 0xff;
    check(flipped, label + " flip at byte " + std::to_string(pos));
  }
}

TEST(CorruptionMatrix, SetBitWireDamageIsContainedOrTyped) {
  // The one set-bit wire code in every form it takes. Panels: gaps in
  // both orders (a sparse row-major panel; a column-major bucket whose
  // word ids near 4^31 need 10-byte varints) and word runs (a row-major
  // panel of full masks; a column-major bucket of full masks near 4^31).
  // Index sets, as the zero-row filter ships them: a dense set whose last
  // mask word is partial (word runs), a huge-gap hypersparse one and a
  // tiny one (gaps).
  struct PanelShape {
    std::vector<distmat::Triplet<std::uint64_t>> entries;
    distmat::PanelOrder order;
    distmat::PanelExtents extents;
  };
  const std::int64_t m = std::int64_t{1} << 62;
  const std::vector<PanelShape> panels{
      {{{0, 3, 0x11}, {0, 9, 1}, {4, 0, 0x8000000000000001ULL}, {7, 9, 6}},
       distmat::PanelOrder::kRowMajor,
       {{0, 8}, {0, 10}}},
      {{{5, 2, 1}, {m - 1, 2, 1}, {0, 3, 1}, {m - 3, 3, 1}},
       distmat::PanelOrder::kColMajor,
       {{0, m}, {2, 4}}},
      {{{1, 1, ~0ULL}, {1, 2, ~0ULL}, {3, 0, ~0ULL}},
       distmat::PanelOrder::kRowMajor,
       {{0, 4}, {0, 3}}},
      {{{m - 2, 2, ~0ULL}, {m - 1, 2, ~0ULL}, {0, 3, ~0ULL}, {m - 1, 3, ~0ULL}},
       distmat::PanelOrder::kColMajor,
       {{0, m}, {2, 4}}},
  };
  std::set<std::pair<std::uint8_t, distmat::PanelOrder>> forms;
  for (const PanelShape& shape : panels) {
    const std::vector<std::uint8_t> bytes = distmat::encode_panel(shape.entries, shape.order);
    forms.insert({bytes.at(0), shape.order});
    sweep_damage(bytes, "panel mode " + std::to_string(bytes.at(0)),
                 [&](const std::vector<std::uint8_t>& damaged, const std::string& label) {
                   expect_panel_contained(damaged, shape.order, shape.extents, label);
                 });
  }
  EXPECT_EQ(forms.size(), 4u);  // word runs and gaps, each in either order

  struct IndexShape {
    std::vector<std::int64_t> indices;
    std::int64_t extent;
  };
  std::vector<IndexShape> sets;
  IndexShape dense{{}, 509};
  for (std::int64_t v = 0; v < dense.extent; v += 2) dense.indices.push_back(v);
  sets.push_back(dense);
  IndexShape hypersparse{{}, std::int64_t{1} << 45};
  for (std::int64_t v = 0; v < 200; ++v) hypersparse.indices.push_back(v * 33554432);
  sets.push_back(hypersparse);
  sets.push_back(IndexShape{{3, 99, 1000}, 4096});
  std::set<std::uint8_t> set_modes;
  for (const IndexShape& shape : sets) {
    const std::vector<std::uint8_t> bytes =
        distmat::encode_index_set(shape.indices, shape.extent);
    set_modes.insert(bytes.at(0));
    sweep_damage(bytes, "index set mode " + std::to_string(bytes.at(0)),
                 [&](const std::vector<std::uint8_t>& damaged, const std::string& label) {
                   expect_index_set_contained(damaged, shape.extent, label);
                 });
  }
  EXPECT_EQ(set_modes.size(), 2u);  // word runs and gaps
}

// ------------------------------------------------------ output gather

/// Decode a damaged block message into a 6×6 matrix framed by canary
/// cells: it must throw the typed CorruptInput or write only inside the
/// matrix.
template <typename T>
void expect_block_message_contained(const std::vector<std::uint8_t>& bytes,
                                    const std::string& label) {
  constexpr std::int64_t kN = 6;
  constexpr std::size_t kFrame = 16;
  const T canary = static_cast<T>(-77);
  std::vector<T> buffer(kFrame + kN * kN + kFrame, canary);
  try {
    distmat::decode_block_message<T>(bytes, kN, distmat::KeepValue{},
                                     std::span<T>(buffer).subspan(kFrame, kN * kN));
  } catch (const error::CorruptInput&) {
    // typed rejection: fine
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
  for (std::size_t k = 0; k < kFrame; ++k) {
    ASSERT_EQ(buffer[k], canary) << label << " wrote before the matrix";
    ASSERT_EQ(buffer[kFrame + kN * kN + k], canary) << label << " wrote past the matrix";
  }
}

TEST(CorruptionMatrix, OutputGatherDamageIsContainedOrTyped) {
  // What one rank ships to the output gather: ring shares of a 6×6 count
  // matrix (a diagonal block's triangle, zero runs, counts of one and
  // three LEB128 bytes, an empty block), a serial run's one diagonal
  // block as its 21-cell triangle, the sketch ring's doubles (−0.0 and a
  // NaN among them), and a rank with no blocks. Under every flip and
  // every truncation the decoder's range and run checks must keep every
  // write inside the matrix.
  distmat::DenseBlock<std::int64_t> counts({2, 4}, {0, 6});
  counts.at_global(2, 2) = 5;
  counts.at_global(2, 3) = 70000;
  counts.at_global(3, 2) = 9;  // below the triangle: never shipped
  counts.at_global(3, 5) = 1;
  const std::vector<distmat::GatherBlock<std::int64_t>> count_blocks{
      {counts, {2, 4}, {2, 4}}, {counts, {2, 4}, {0, 2}}, {counts, {3, 3}, {0, 6}},
      {counts, {3, 4}, {4, 6}}};
  distmat::DenseBlock<std::int64_t> serial({0, 6}, {0, 6});
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = i; j < 6; ++j) serial.at_global(i, j) = (i + j) % 3 == 0 ? 0 : 130 * j;
  }
  const std::vector<distmat::GatherBlock<std::int64_t>> triangle_blocks{
      distmat::GatherBlock<std::int64_t>(serial)};
  distmat::DenseBlock<double> estimates({0, 3}, {3, 6});
  estimates.at_global(0, 3) = -0.0;
  estimates.at_global(1, 4) = std::bit_cast<double>(0x7ff80000deadbeefULL);
  estimates.at_global(2, 5) = 0.25;
  const std::vector<distmat::GatherBlock<double>> estimate_blocks{
      distmat::GatherBlock<double>(estimates)};

  const auto sweep_counts = [&](std::span<const distmat::GatherBlock<std::int64_t>> blocks,
                                const std::string& label) {
    const std::vector<std::uint8_t> bytes = distmat::encode_block_message(blocks);
    std::vector<std::int64_t> out(36, 0);
    distmat::decode_block_message<std::int64_t>(bytes, 6, distmat::KeepValue{},
                                                std::span<std::int64_t>(out));
    sweep_damage(bytes, label,
                 [&](const std::vector<std::uint8_t>& damaged, const std::string& what) {
                   expect_block_message_contained<std::int64_t>(damaged, what);
                 });
    return out;
  };
  const std::vector<std::int64_t> decoded = sweep_counts(count_blocks, "count message");
  EXPECT_EQ(decoded[2 * 6 + 3], 70000);
  EXPECT_EQ(decoded[3 * 6 + 2], 70000);  // the triangle's cell, mirrored
  EXPECT_EQ(decoded[3 * 6 + 5], 1);
  EXPECT_EQ(decoded[5 * 6 + 3], 1);  // mirrored
  const std::vector<std::int64_t> whole = sweep_counts(triangle_blocks, "triangle message");
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      EXPECT_EQ(whole[static_cast<std::size_t>(i * 6 + j)],
                serial.at_global(std::min(i, j), std::max(i, j)));
    }
  }
  (void)sweep_counts({}, "message with no blocks");

  const std::vector<std::uint8_t> bytes = distmat::encode_block_message(
      std::span<const distmat::GatherBlock<double>>(estimate_blocks));
  sweep_damage(bytes, "estimate message",
               [&](const std::vector<std::uint8_t>& damaged, const std::string& what) {
                 expect_block_message_contained<double>(damaged, what);
               });
}

// ------------------------------------------------------ sketch word panels

/// Unpack a damaged sketch panel, given as the bytes of its words: it must
/// throw the typed CorruptInput or yield views inside the panel. The ring
/// delivers whole words, so a truncation inside a word never reaches the
/// decoder and is skipped.
void expect_word_panel_contained(const std::vector<std::uint8_t>& bytes,
                                 const std::string& label) {
  if (bytes.size() % sizeof(std::uint64_t) != 0) return;
  std::vector<std::uint64_t> words(bytes.size() / sizeof(std::uint64_t));
  if (!words.empty()) std::memcpy(words.data(), bytes.data(), bytes.size());
  try {
    const std::uint64_t* const end = words.data() + words.size();
    for (const auto& view : core::unpack_word_panel(words)) {
      ASSERT_TRUE(view.data() >= words.data() && view.data() + view.size() <= end)
          << label;
    }
  } catch (const error::CorruptInput&) {
    // typed rejection: fine
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
}

TEST(CorruptionMatrix, SketchPanelDamageIsContainedOrTyped) {
  // What the sketch ring and the LSH blob fetch ship: minhash blobs packed
  // by core::pack_word_panel behind a count and a length table.
  std::vector<std::vector<std::uint64_t>> blobs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    std::vector<std::uint64_t> kmers;
    for (std::uint64_t v = 0; v < 200; ++v) kmers.push_back(v * 13 + s);
    blobs.push_back(
        sketch::OnePermMinHash(std::span<const std::uint64_t>(kmers), 32, 16, 7).wire());
  }
  const std::vector<std::uint64_t> panel = core::pack_word_panel(blobs);
  std::vector<std::uint8_t> bytes(panel.size() * sizeof(std::uint64_t));
  std::memcpy(bytes.data(), panel.data(), bytes.size());
  sweep_damage(bytes, "sketch panel", expect_word_panel_contained);
}

}  // namespace
}  // namespace sas
