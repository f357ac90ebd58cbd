#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/hashing.hpp"

namespace fs = std::filesystem;

namespace sas::core {

namespace {

constexpr char kManifestMagic[4] = {'S', 'A', 'S', 'C'};
constexpr char kRankMagic[4] = {'S', 'A', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

/// Out-of-space family: a save failing this way is a capacity problem
/// the driver can degrade around, not a configuration bug.
[[nodiscard]] bool is_out_of_space(int err) noexcept {
  return err == ENOSPC || err == EDQUOT;
}

[[noreturn]] void throw_write_error(const std::string& path, int err) {
  const std::string message =
      "checkpoint: cannot write " + path + ": " + std::strerror(err);
  if (is_out_of_space(err)) throw error::ResourceExhausted(message);
  throw error::ConfigError(message);
}

/// Write `bytes` to `path` and fsync before returning. A short write or
/// any I/O failure unlinks the partial file and throws the typed error
/// (ResourceExhausted for the disk-full family). "Returned" therefore
/// means the file's CONTENT is durable; the caller still owns making its
/// NAME durable (rename + directory fsync).
void write_file_durable(const std::string& path, const std::vector<char>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_write_error(path, errno);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(path.c_str());
      throw_write_error(path, err);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw_write_error(path, err);
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(path.c_str());
    throw_write_error(path, err);
  }
}

/// Fsync the directory containing `path` so a completed rename survives
/// a crash. Filesystems that cannot fsync a directory (EINVAL/ENOTSUP)
/// are tolerated — they have no stronger primitive to offer.
void fsync_parent_dir(const std::string& path) {
  fs::path dir = fs::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_write_error(dir.string(), errno);
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    const int err = errno;
    ::close(fd);
    throw_write_error(dir.string(), err);
  }
  ::close(fd);
}

/// In-memory serializer: the whole file is built in a buffer so the
/// trailing CRC covers every preceding byte and the write is one atomic
/// tmp + rename.
class Writer {
 public:
  // GCC 12's -O3 inliner trips -Wstringop-overflow false positives on
  // any vector<char> grow path here (range insert and resize alike —
  // bogus constant sizes invented across the inlined realloc, GCC
  // PR 106199 family), so the diagnostic is silenced for this one
  // function instead of contorting the code further.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
  void raw(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t old_size = buffer_.size();
    buffer_.resize(old_size + size);
    std::memcpy(buffer_.data() + old_size, data, size);
  }
#pragma GCC diagnostic pop
  template <typename T>
  void value(T v) {
    raw(&v, sizeof(T));
  }
  template <typename T>
  void array(const std::vector<T>& values) {
    value<std::uint64_t>(values.size());
    if (!values.empty()) raw(values.data(), values.size() * sizeof(T));
  }

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

  void commit(const std::string& path) {
    seal();
    const std::string tmp = path + ".tmp";
    write_file_durable(tmp, buffer_);
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
      std::error_code ignored;
      fs::remove(tmp, ignored);
      throw error::ConfigError("checkpoint: cannot commit " + path + ": " +
                               ec.message());
    }
    // The rename is atomic but not durable until the directory entry is
    // flushed; without this a crash could resurrect the OLD file after
    // save_manifest already declared the new one saved.
    fsync_parent_dir(path);
  }

  /// Seal the buffer (append the trailing CRC) and move it out. The
  /// in-memory BatchSnapshot keeps the checkpoint wire format without
  /// touching disk this way.
  [[nodiscard]] std::vector<char> take() {
    seal();
    return std::move(buffer_);
  }

 private:
  void seal() {
    if (sealed_) return;
    const std::uint32_t crc = crc32(buffer_.data(), buffer_.size());
    raw(&crc, sizeof(crc));
    sealed_ = true;
  }

  std::vector<char> buffer_;
  bool sealed_ = false;
};

/// Bounds-checked cursor over a fully read, CRC-verified file.
class Reader {
 public:
  Reader(std::vector<char> buffer, std::string path)
      : buffer_(std::move(buffer)), path_(std::move(path)) {
    if (buffer_.size() < sizeof(std::uint32_t)) {
      throw error::CorruptInput("checkpoint: " + path_ + ": file too short");
    }
    const std::size_t body = buffer_.size() - sizeof(std::uint32_t);
    std::uint32_t stored = 0;
    std::memcpy(&stored, buffer_.data() + body, sizeof(stored));
    if (stored != crc32(buffer_.data(), body)) {
      throw error::CorruptInput("checkpoint: " + path_ + ": CRC mismatch");
    }
    end_ = body;
  }

  template <typename T>
  T value() {
    T v{};
    if (end_ - pos_ < sizeof(T)) {
      throw error::CorruptInput("checkpoint: " + path_ + ": truncated field");
    }
    std::memcpy(&v, buffer_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> array() {
    const auto count = value<std::uint64_t>();
    if (count > (end_ - pos_) / sizeof(T)) {
      throw error::CorruptInput("checkpoint: " + path_ + ": array length exceeds file");
    }
    std::vector<T> values(static_cast<std::size_t>(count));
    if (count > 0) {
      std::memcpy(values.data(), buffer_.data() + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    }
    return values;
  }

  void expect_end() const {
    if (pos_ != end_) {
      throw error::CorruptInput("checkpoint: " + path_ + ": trailing bytes");
    }
  }

 private:
  std::vector<char> buffer_;
  std::string path_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw error::CorruptInput("checkpoint: cannot open " + path);
  const std::streamsize size = in.tellg();
  std::vector<char> buffer(static_cast<std::size_t>(size > 0 ? size : 0));
  in.seekg(0);
  in.read(buffer.data(), size);
  if (!in) throw error::CorruptInput("checkpoint: cannot read " + path);
  return buffer;
}

void check_header(Reader& reader, const std::string& path, const char (&magic)[4],
                  std::uint64_t fingerprint) {
  char got[4] = {};
  got[0] = reader.value<char>();
  got[1] = reader.value<char>();
  got[2] = reader.value<char>();
  got[3] = reader.value<char>();
  if (std::memcmp(got, magic, 4) != 0) {
    throw error::CorruptInput("checkpoint: " + path + ": bad magic");
  }
  if (reader.value<std::uint32_t>() != kVersion) {
    throw error::CorruptInput("checkpoint: " + path + ": unknown version");
  }
  if (reader.value<std::uint64_t>() != fingerprint) {
    throw error::ConfigError(
        "checkpoint: " + path +
        ": fingerprint mismatch — the checkpoint was written by a run with a "
        "different input/config shape (delete the directory or rerun with the "
        "original flags)");
  }
}

}  // namespace

// A retired knob mixes its old default in its old position: a checkpoint
// written with that default resumes, one written with another does not.
std::uint64_t checkpoint_fingerprint(const Config& config, std::int64_t n,
                                     std::int64_t m, int nranks) {
  std::uint64_t h = hash_bytes("sas-checkpoint-v1");
  const auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  mix(static_cast<std::uint64_t>(n));
  mix(static_cast<std::uint64_t>(m));
  mix(static_cast<std::uint64_t>(nranks));
  mix(static_cast<std::uint64_t>(config.batch_count));
  mix(static_cast<std::uint64_t>(config.bit_width));
  mix(static_cast<std::uint64_t>(config.replication));
  mix(static_cast<std::uint64_t>(config.algorithm));
  mix(config.use_zero_row_filter ? 1 : 0);
  mix(static_cast<std::uint64_t>(config.estimator));
  mix(std::uint64_t{12});  // default of the retired hll_precision
  mix(static_cast<std::uint64_t>(config.sketch_size));
  mix(static_cast<std::uint64_t>(config.minhash_bits));
  mix(config.sketch_seed);
  mix(static_cast<std::uint64_t>(Estimator::kMinhash));  // retired hybrid_sketch
  mix(std::bit_cast<std::uint64_t>(config.prune_threshold));
  mix(std::bit_cast<std::uint64_t>(-1.0));  // default of the retired prune_slack
  mix(static_cast<std::uint64_t>(config.candidate_mode));
  mix(std::uint64_t{0});  // default of the retired lsh_bands
  // The ring fills only its distmat::ring_share blocks of each B panel
  // and leaves the rest zero, where rings before the symmetric schedule
  // filled whole panels: a checkpoint from either layout would resume
  // silently wrong under the other.
  if (config.algorithm == Algorithm::kRing1D) mix(hash_bytes("ring-triangle-shares"));
  // Every diagonal block of B holds only its upper triangle (the popcount
  // SYRK), and each SUMMA grid rank holds its summa_share, where earlier
  // binaries filled both triangles and whole grid blocks and read the
  // lower ones back: a checkpoint from either would resume silently wrong
  // under the other, whatever the schedule.
  mix(hash_bytes("syrk-upper-diagonal"));
  return h;
}

Checkpoint::Checkpoint(std::string dir, std::uint64_t fingerprint)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw error::ConfigError("checkpoint: cannot create directory " + dir_ + ": " +
                             ec.message());
  }
  // Sweep .tmp partials a killed run left mid-commit: they were never
  // renamed, so nothing references them, and on a disk pushed to ENOSPC
  // they are exactly the bytes standing between the next save and
  // success. Best-effort — a sweep failure is not worth failing startup.
  fs::directory_iterator it(dir_, ec);
  if (!ec) {
    for (const auto& entry : it) {
      if (entry.path().extension() == ".tmp") {
        std::error_code ignored;
        fs::remove(entry.path(), ignored);
      }
    }
  }
}

namespace {
std::string rank_state_path(const std::string& dir, int rank, std::int64_t completed) {
  return dir + "/rank" + std::to_string(rank) + ".b" + std::to_string(completed) +
         ".sasc";
}
}  // namespace

void BatchSnapshot::capture(std::int64_t completed,
                            const distmat::DenseBlock<std::int64_t>* block,
                            std::span<const std::int64_t> ahat) {
  Writer w;
  w.value<std::int64_t>(completed);
  w.value<std::uint8_t>(block != nullptr ? 1 : 0);
  if (block != nullptr) w.array(block->values);
  w.array(std::vector<std::int64_t>(ahat.begin(), ahat.end()));
  buffer_ = w.take();
}

void BatchSnapshot::restore(std::int64_t completed,
                            distmat::DenseBlock<std::int64_t>* block,
                            std::vector<std::int64_t>& ahat) const {
  const std::string where = "<in-memory batch snapshot>";
  Reader reader(buffer_, where);
  if (reader.value<std::int64_t>() != completed) {
    throw std::logic_error("BatchSnapshot: restore batch disagrees with capture");
  }
  const bool has_block = reader.value<std::uint8_t>() != 0;
  if (has_block != (block != nullptr)) {
    throw std::logic_error("BatchSnapshot: block presence changed between capture and restore");
  }
  if (block != nullptr) {
    auto values = reader.array<std::int64_t>();
    if (values.size() != block->values.size()) {
      throw std::logic_error("BatchSnapshot: block shape changed between capture and restore");
    }
    block->values = std::move(values);
  }
  auto restored = reader.array<std::int64_t>();
  if (restored.size() != ahat.size()) {
    throw std::logic_error("BatchSnapshot: â length changed between capture and restore");
  }
  ahat = std::move(restored);
  reader.expect_end();
}

void Checkpoint::save_rank(int rank, std::int64_t completed,
                           const distmat::DenseBlock<std::int64_t>* block,
                           std::span<const std::int64_t> ahat) const {
  Writer w;
  w.raw(kRankMagic, sizeof(kRankMagic));
  w.value<std::uint32_t>(kVersion);
  w.value<std::uint64_t>(fingerprint_);
  w.value<std::int32_t>(rank);
  w.value<std::int64_t>(completed);
  w.value<std::uint8_t>(block != nullptr ? 1 : 0);
  if (block != nullptr) {
    w.value<std::int64_t>(block->row_range.begin);
    w.value<std::int64_t>(block->row_range.end);
    w.value<std::int64_t>(block->col_range.begin);
    w.value<std::int64_t>(block->col_range.end);
    w.array(block->values);
  }
  w.array(std::vector<std::int64_t>(ahat.begin(), ahat.end()));
  w.commit(rank_state_path(dir_, rank, completed));
  // Checkpoint I/O volume per rank (commit() appended the trailing CRC,
  // so size() is the full file), surfaced in the run report's per-rank
  // counter table.
  if (obs::RankObserver* o = obs::current()) {
    o->add_counter("checkpoint.bytes", w.size());
  }
}

void Checkpoint::load_rank(int rank, std::int64_t completed,
                           distmat::DenseBlock<std::int64_t>* block,
                           std::vector<std::int64_t>& ahat) const {
  const std::string path = rank_state_path(dir_, rank, completed);
  Reader reader(read_file(path), path);
  check_header(reader, path, kRankMagic, fingerprint_);
  if (reader.value<std::int32_t>() != rank) {
    throw error::CorruptInput("checkpoint: " + path + ": rank mismatch");
  }
  if (reader.value<std::int64_t>() != completed) {
    throw error::CorruptInput("checkpoint: " + path +
                              ": recorded batch count disagrees with its filename");
  }
  const bool has_block = reader.value<std::uint8_t>() != 0;
  if (has_block != (block != nullptr)) {
    throw error::CorruptInput("checkpoint: " + path +
                              ": block presence disagrees with this run's layout");
  }
  if (block != nullptr) {
    const auto row_begin = reader.value<std::int64_t>();
    const auto row_end = reader.value<std::int64_t>();
    const auto col_begin = reader.value<std::int64_t>();
    const auto col_end = reader.value<std::int64_t>();
    auto values = reader.array<std::int64_t>();
    if (row_begin != block->row_range.begin || row_end != block->row_range.end ||
        col_begin != block->col_range.begin || col_end != block->col_range.end ||
        values.size() != block->values.size()) {
      throw error::CorruptInput("checkpoint: " + path +
                                ": block shape disagrees with this run's layout");
    }
    block->values = std::move(values);
  }
  auto restored = reader.array<std::int64_t>();
  if (restored.size() != ahat.size()) {
    throw error::CorruptInput("checkpoint: " + path + ": â length mismatch");
  }
  ahat = std::move(restored);
  reader.expect_end();
}

void Checkpoint::remove_rank(int rank, std::int64_t completed) const noexcept {
  if (completed <= 0) return;
  std::error_code ec;
  fs::remove(rank_state_path(dir_, rank, completed), ec);  // best-effort
}

void Checkpoint::save_manifest(const CheckpointManifest& manifest) const {
  Writer w;
  w.raw(kManifestMagic, sizeof(kManifestMagic));
  w.value<std::uint32_t>(kVersion);
  w.value<std::uint64_t>(fingerprint_);
  w.value<std::int64_t>(manifest.completed);
  w.value<std::uint64_t>(manifest.stats.size());
  for (const BatchStats& bs : manifest.stats) {
    w.value<double>(bs.seconds);
    w.value<std::int64_t>(bs.filtered_rows);
    w.value<std::int64_t>(bs.word_rows);
    w.value<std::int64_t>(bs.packed_nnz);
    // Wire format stability: byte counters stay int64-wide on disk even
    // though BatchStats holds them as uint64 in memory.
    w.value<std::int64_t>(static_cast<std::int64_t>(bs.bytes_sent));
    w.value<std::int64_t>(static_cast<std::int64_t>(bs.bytes_received));
  }
  w.commit(dir_ + "/manifest.sasc");
  if (obs::RankObserver* o = obs::current()) {
    o->add_counter("checkpoint.bytes", w.size());
  }
}

std::optional<CheckpointManifest> Checkpoint::load_manifest() const {
  const std::string path = dir_ + "/manifest.sasc";
  if (!fs::exists(path)) return std::nullopt;
  Reader reader(read_file(path), path);
  check_header(reader, path, kManifestMagic, fingerprint_);
  CheckpointManifest manifest;
  manifest.completed = reader.value<std::int64_t>();
  const auto count = reader.value<std::uint64_t>();
  if (count > (std::numeric_limits<std::uint32_t>::max)()) {
    throw error::CorruptInput("checkpoint: " + path + ": absurd stats count");
  }
  manifest.stats.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    BatchStats bs;
    bs.seconds = reader.value<double>();
    bs.filtered_rows = reader.value<std::int64_t>();
    bs.word_rows = reader.value<std::int64_t>();
    bs.packed_nnz = reader.value<std::int64_t>();
    bs.bytes_sent = static_cast<std::uint64_t>(reader.value<std::int64_t>());
    bs.bytes_received = static_cast<std::uint64_t>(reader.value<std::int64_t>());
    manifest.stats.push_back(bs);
  }
  reader.expect_end();
  return manifest;
}

}  // namespace sas::core
