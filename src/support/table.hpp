// Tabular result emission for benchmarks and examples.
//
// The benchmark harness reproduces the paper's tables and figures as rows of
// numbers; Table renders them as aligned ASCII (for terminals), GitHub
// markdown (for EXPERIMENTS.md) and CSV (for plotting).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace cdpf::support {

/// A column-oriented table of strings with typed convenience appenders.
/// Rows are appended cell by cell; add_row() finalizes the current row and
/// pads missing cells with empty strings.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  std::size_t num_columns() const { return headers_.size(); }
  std::size_t num_rows() const { return rows_.size(); }

  /// Append one complete row; must have exactly num_columns() cells.
  void add_row(std::vector<std::string> cells);

  /// Format a double with the given precision and append it as the next cell
  /// of a row being built with begin_row()/end_row().
  class RowBuilder {
   public:
    RowBuilder& cell(std::string text);
    RowBuilder& cell(double value, int precision = 3);
    RowBuilder& cell(long long value);
    RowBuilder& cell(std::size_t value);

   private:
    friend class Table;
    explicit RowBuilder(Table& table) : table_(table) {}
    Table& table_;
    std::vector<std::string> cells_;
  };

  /// Start building a row; the row is committed when the builder is passed
  /// back to commit_row().
  RowBuilder row() { return RowBuilder(*this); }
  void commit_row(RowBuilder& builder);

  /// Render as an aligned ASCII table.
  std::string to_ascii() const;
  /// Render as RFC-4180-ish CSV (cells containing commas/quotes are quoted).
  std::string to_csv() const;

  /// Write CSV to a file path; throws cdpf::Error when the file cannot be
  /// opened.
  void write_csv(const std::string& path) const;

  const std::vector<std::string>& headers() const { return headers_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared by Table users).
std::string format_double(double value, int precision = 3);

}  // namespace cdpf::support
