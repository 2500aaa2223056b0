#include "support/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "support/check.hpp"

namespace cdpf::support {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CDPF_CHECK_MSG(!headers_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  CDPF_CHECK_MSG(cells.size() == headers_.size(), "row width must match header width");
  rows_.push_back(std::move(cells));
}

Table::RowBuilder& Table::RowBuilder::cell(std::string text) {
  cells_.push_back(std::move(text));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table::RowBuilder& Table::RowBuilder::cell(long long value) {
  return cell(std::to_string(value));
}

Table::RowBuilder& Table::RowBuilder::cell(std::size_t value) {
  return cell(std::to_string(value));
}

void Table::commit_row(RowBuilder& builder) {
  add_row(std::move(builder.cells_));
  builder.cells_.clear();
}

namespace {

std::vector<std::size_t> column_widths(const std::vector<std::string>& headers,
                                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    return cell;
  }
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') {
      out += '"';
    }
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_ascii() const {
  const auto widths = column_widths(headers_, rows_);
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c];
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << (c == 0 ? "" : "  ") << std::string(widths[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ",") << csv_escape(row[c]);
    }
    os << '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

void Table::write_csv(const std::string& path) const {
  std::ofstream out(path);
  CDPF_CHECK_MSG(out.is_open(), "cannot open CSV output file: " + path);
  out << to_csv();
}

}  // namespace cdpf::support
