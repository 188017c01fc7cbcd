#include "plbhec/common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "plbhec/common/contracts.hpp"

namespace plbhec {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  PLBHEC_EXPECTS(!headers_.empty());
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string cell) {
  PLBHEC_EXPECTS(!rows_.empty());
  PLBHEC_EXPECTS(rows_.back().size() < headers_.size());
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}

Table& Table::add(std::size_t value) { return add(std::to_string(value)); }
Table& Table::add(int value) { return add(std::to_string(value)); }

Table& Table::separator() {
  separators_.push_back(rows_.size());
  return *this;
}

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if ((c < '0' || c > '9') && c != '.' && c != '-' && c != '+' && c != 'e' &&
        c != 'E' && c != '%' && c != 'x')
      return false;
  }
  return true;
}

}  // namespace

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  auto rule = [&] {
    std::string s = "+";
    for (auto w : widths) s.append(w + 2, '-').append("+");
    s += "\n";
    return s;
  };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string cell = c < cells.size() ? cells[c] : "";
      const std::size_t pad = widths[c] - cell.size();
      s += ' ';
      if (looks_numeric(cell))
        s.append(pad, ' ').append(cell);
      else
        s.append(cell).append(pad, ' ');
      s += " |";
    }
    s += "\n";
    return s;
  };

  std::string out = rule() + emit_row(headers_) + rule();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += emit_row(rows_[i]);
    if (std::find(separators_.begin(), separators_.end(), i + 1) !=
        separators_.end())
      out += rule();
  }
  out += rule();
  return out;
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

}  // namespace plbhec
