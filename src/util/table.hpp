// table.hpp — aligned plain-text tables for the benchmark harness.
//
// The benches print the paper's tables and figures as rows through this
// formatter (bench_paper_figures prints Fig. 2a–f, Fig. 3 and the
// ablations), next to the paper shape each one should match.
#pragma once

#include <string>
#include <vector>

namespace sas {

/// Column-aligned table with a header row, rendered to stdout or string.
/// Cells are plain strings; numeric formatting is the caller's concern
/// (see format.hpp for helpers).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Render with single-space-padded columns and a dash underline.
  [[nodiscard]] std::string str() const;

  /// Render directly to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float -> string ("%.3f" style, no locale surprises).
[[nodiscard]] std::string fmt_fixed(double value, int digits = 3);

/// Human-readable byte size ("1.8 TB", "674 GB", ...).
[[nodiscard]] std::string fmt_bytes(double bytes);

/// Human-readable duration ("42.1 s", "24.95 h", "3.2 d").
[[nodiscard]] std::string fmt_duration(double seconds);

/// Thousands-separated integer ("446,506").
[[nodiscard]] std::string fmt_count(std::uint64_t value);

}  // namespace sas
