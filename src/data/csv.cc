#include "data/csv.h"

#include <fstream>
#include <istream>
#include <unordered_map>

#include "common/string_util.h"

namespace sablock::data {

namespace {

/// RFC 4180 field splitting that resumes across physical lines: Feed()
/// parses one line into the row's fields and leaves `in_quotes` set when
/// the line ends inside a quoted field, so the caller can append the line
/// break to `current` and feed the next line with the state intact.
struct CsvRowParser {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;

  void Feed(std::string_view line);

  std::vector<std::string> Finish() {
    fields.push_back(std::move(current));
    return std::move(fields);
  }
};

void CsvRowParser::Feed(std::string_view line) {
  // Copies runs of ordinary characters whole, not one push_back per
  // character. The quote rules: a quote opens a quoted field only at the
  // field's start, a doubled quote inside one is a literal quote, and any
  // other quote ends it.
  const size_t n = line.size();
  bool quoted = in_quotes;
  size_t i = 0;
  while (i < n) {
    if (quoted) {
      const size_t q = line.find('"', i);
      if (q == std::string_view::npos) {
        current.append(line.substr(i));
        break;
      }
      current.append(line.substr(i, q - i));
      if (q + 1 < n && line[q + 1] == '"') {
        current.push_back('"');
        i = q + 2;
      } else {
        quoted = false;
        i = q + 1;
      }
    } else {
      size_t j = i;
      while (j < n && line[j] != ',' && line[j] != '"') ++j;
      current.append(line.substr(i, j - i));
      if (j == n) break;
      if (line[j] == ',') {
        fields.push_back(std::move(current));
        current.clear();
      } else if (current.empty()) {
        quoted = true;
      } else {
        current.push_back('"');
      }
      i = j + 1;
    }
  }
  in_quotes = quoted;
}

/// Drops a line's trailing CR; true when there was one.
bool StripCr(std::string& line) {
  if (line.empty() || line.back() != '\r') return false;
  line.pop_back();
  return true;
}

/// The rows of a CSV stream. A row is one physical line, plus as many
/// more as a quoted field left open at a line's end needs; the line break
/// inside the quotes is kept ("\n", or "\r\n" for a CRLF break). The
/// parse resumes where it stopped, so a row costs O(its bytes), and a row
/// without an open quote is parsed exactly as a single line.
class CsvRows {
 public:
  explicit CsvRows(std::istream& in) : in_(in) {}

  /// Reads the next row into `fields`, skipping blank lines before it when
  /// `skip_blank`. False at end of input, and on an input that ends
  /// inside a quoted field (then status() says so).
  bool Next(bool skip_blank, std::vector<std::string>* fields) {
    bool crlf = false;
    do {
      if (!std::getline(in_, line_)) return false;
      ++line_no_;
      crlf = StripCr(line_);
    } while (skip_blank && line_.empty());
    row_line_ = line_no_;
    CsvRowParser row;
    row.Feed(line_);
    while (row.in_quotes) {
      if (!std::getline(in_, line_)) {
        status_ = Status::Error("CSV row " + std::to_string(row_line_) +
                                " ends inside a quoted field");
        return false;
      }
      ++line_no_;
      row.current += crlf ? "\r\n" : "\n";
      crlf = StripCr(line_);
      row.Feed(line_);
    }
    *fields = row.Finish();
    return true;
  }

  /// The physical line (1-based) the last row started on.
  size_t row_line() const { return row_line_; }
  const Status& status() const { return status_; }

 private:
  std::istream& in_;
  std::string line_;
  size_t line_no_ = 0;
  size_t row_line_ = 0;
  Status status_ = Status::Ok();
};

}  // namespace

std::vector<std::string> ParseCsvLine(std::string_view line) {
  CsvRowParser row;
  row.Feed(line);
  return row.Finish();
}

std::string EscapeCsvField(std::string_view field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Status ReadCsv(const std::string& path, const std::string& entity_column,
               Dataset* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::Error("cannot open CSV file: " + path);
  }
  CsvRows rows(in);
  std::vector<std::string> header;
  if (!rows.Next(/*skip_blank=*/false, &header)) {
    if (!rows.status().ok()) return rows.status();
    return Status::Error("CSV file is empty: " + path);
  }

  int entity_idx = -1;
  std::vector<std::string> attr_names;
  for (size_t i = 0; i < header.size(); ++i) {
    if (!entity_column.empty() && header[i] == entity_column) {
      entity_idx = static_cast<int>(i);
    } else {
      attr_names.push_back(header[i]);
    }
  }
  if (!entity_column.empty() && entity_idx < 0) {
    return Status::Error("entity column not found: " + entity_column);
  }

  Dataset dataset{Schema(attr_names)};
  std::unordered_map<std::string, EntityId> entity_ids;
  std::vector<std::string> fields;
  while (rows.Next(/*skip_blank=*/true, &fields)) {
    if (fields.size() != header.size()) {
      return Status::Error("CSV row " + std::to_string(rows.row_line()) +
                           " has " + std::to_string(fields.size()) +
                           " fields, header has " +
                           std::to_string(header.size()));
    }
    Record rec;
    EntityId entity = kUnknownEntity;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (static_cast<int>(i) == entity_idx) {
        auto [it, inserted] = entity_ids.emplace(
            fields[i], static_cast<EntityId>(entity_ids.size()));
        entity = it->second;
      } else {
        rec.values.push_back(std::move(fields[i]));
      }
    }
    dataset.Add(std::move(rec), entity);
  }
  if (!rows.status().ok()) return rows.status();
  *out = std::move(dataset);
  return Status::Ok();
}

Status WriteCsv(const std::string& path, const Dataset& dataset,
                const std::string& entity_column) {
  std::ofstream out_file(path);
  if (!out_file.is_open()) {
    return Status::Error("cannot open CSV file for writing: " + path);
  }
  std::vector<std::string> header;
  if (!entity_column.empty()) header.push_back(entity_column);
  for (const std::string& name : dataset.schema().names()) {
    header.push_back(name);
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out_file << ',';
    out_file << EscapeCsvField(header[i]);
  }
  out_file << '\n';
  for (RecordId id = 0; id < dataset.size(); ++id) {
    bool first = true;
    if (!entity_column.empty()) {
      out_file << std::to_string(dataset.entity(id));
      first = false;
    }
    for (std::string_view v : dataset.Values(id)) {
      if (!first) out_file << ',';
      out_file << EscapeCsvField(v);
      first = false;
    }
    out_file << '\n';
  }
  if (!out_file.good()) {
    return Status::Error("error while writing CSV file: " + path);
  }
  return Status::Ok();
}

}  // namespace sablock::data
