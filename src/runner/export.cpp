#include "runner/export.hpp"

#include <cstddef>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace crusader::runner {

namespace {

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// The column's text in scope, otherwise its placeholder.
std::string cell_text(const Column& column, const ScenarioResult& result) {
  if (in_scope(column.scope, result.spec)) return column.text(result);
  return column.format == Format::kText ? "-" : "";
}

}  // namespace

std::string csv_header() {
  std::string out;
  for (const Column& column : columns()) {
    if (!out.empty()) out += ',';
    out += column.name;
  }
  return out;
}

void write_csv_row(std::ostream& os, const ScenarioResult& result) {
  const char* sep = "";
  for (const Column& column : columns()) {
    os << sep << csv_quote(cell_text(column, result));
    sep = ",";
  }
  os << '\n';
}

void write_csv(std::ostream& os, const SweepReport& report) {
  os << csv_header() << '\n';
  for (const auto& r : report.results) write_csv_row(os, r);
}

std::vector<std::size_t> csv_record_ends(std::string_view content) {
  std::vector<std::size_t> ends;
  bool quoted = false;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '"') {
      // Escaped quotes ("") toggle twice — net unchanged — so plain state
      // flipping handles them.
      quoted = !quoted;
    } else if (c == '\n' && !quoted) {
      ends.push_back(i + 1);
    }
  }
  return ends;
}

std::vector<std::string> parse_csv_fields(std::string_view line) {
  std::vector<std::string> out;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  out.push_back(field);
  return out;
}

void write_json(std::ostream& os, const SweepReport& report) {
  os << "[\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    os << "  {";
    const char* sep = "";
    for (const Column& column : columns()) {
      const std::string value = cell_text(column, report.results[i]);
      os << sep << json_quote(column.name) << ": ";
      if (column.format == Format::kText)
        os << json_quote(value);
      else if (value.empty())
        os << "null";
      else
        os << value;
      sep = ", ";
    }
    os << (i + 1 < report.results.size() ? "},\n" : "}\n");
  }
  os << "]\n";
}

std::string to_csv(const SweepReport& report) {
  std::ostringstream os;
  write_csv(os, report);
  return os.str();
}

}  // namespace crusader::runner
