#include "data/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>

namespace sablock::data {

namespace {

/// Splits a row into fields by ReadCsv's quote rules, in place: each
/// value is written over its field's own bytes (unescaping never
/// lengthens it), so a quote-free field is not written at all. Feed()
/// takes the row a line at a time and leaves in_quotes() set when a line
/// ends inside a quoted field; the caller then Keep()s the line break and
/// feeds the next line.
template <typename OnField>
class FieldSplitter {
 public:
  FieldSplitter(char* data, size_t start, OnField& on_field)
      : data_(data), field_(start), out_(start), on_field_(on_field) {}

  /// Splits bytes [i, end), handing each field it completes to on_field.
  void Feed(size_t i, size_t end) {
    while (i < end) {
      if (quoted_) {
        const size_t quote = Find('"', i, end);
        Keep(i, quote);
        if (quote == end) return;
        if (quote + 1 < end && data_[quote + 1] == '"') {
          data_[out_++] = '"';
          i = quote + 2;
        } else {
          quoted_ = false;
          i = quote + 1;
        }
      } else if (out_ == field_ && data_[i] == '"') {
        quoted_ = true;
        ++i;
      } else {
        const size_t comma = Find(',', i, end);
        Keep(i, comma);
        if (comma == end) return;
        Finish();
        field_ = out_ = i = comma + 1;
      }
    }
  }

  /// Appends bytes [begin, end) to the open field as they stand.
  void Keep(size_t begin, size_t end) {
    if (out_ != begin) std::memmove(data_ + out_, data_ + begin, end - begin);
    out_ += end - begin;
  }

  bool in_quotes() const { return quoted_; }

  /// Hands the open field to on_field.
  void Finish() { on_field_(std::string_view(data_ + field_, out_ - field_)); }

 private:
  size_t Find(char c, size_t begin, size_t end) const {
    const void* hit = std::memchr(data_ + begin, c, end - begin);
    return hit ? static_cast<size_t>(static_cast<const char*>(hit) - data_)
               : end;
  }

  char* data_;
  size_t field_;  // where the open field's value starts
  size_t out_;    // where its next byte goes
  bool quoted_ = false;
  OnField& on_field_;
};

/// The rows of a CSV file held in one mutable buffer, by ReadCsv's rules.
class CsvScanner {
 public:
  CsvScanner(char* data, size_t size) : data_(data), size_(size) {}

  /// Splits the next row, skipping blank lines before it when
  /// `skip_blank`, and hands each value, a view into the buffer, to
  /// on_field. False at the end, or inside an unclosed quote (status()).
  template <typename OnField>
  bool Next(bool skip_blank, OnField& on_field) {
    do {
      if (next_ == size_) return false;
      NextLine();
    } while (skip_blank && begin_ == end_);
    row_line_ = line_;
    FieldSplitter<OnField> row(data_, begin_, on_field);
    for (row.Feed(begin_, end_); row.in_quotes(); row.Feed(begin_, end_)) {
      if (next_ == size_) {
        status_ = Status::Error("CSV row " + std::to_string(row_line_) +
                                " ends inside a quoted field");
        return false;
      }
      row.Keep(end_, next_);  // the line break
      NextLine();
    }
    row.Finish();
    return true;
  }

  /// The physical line (1-based) the last row started on.
  size_t row_line() const { return row_line_; }
  /// Where the line after the last row starts.
  size_t next() const { return next_; }
  const Status& status() const { return status_; }

 private:
  /// Steps to the line at next_: [begin_, end_), less LF and one CR.
  void NextLine() {
    begin_ = next_;
    const void* lf = std::memchr(data_ + begin_, '\n', size_ - begin_);
    end_ = lf ? static_cast<size_t>(static_cast<const char*>(lf) - data_)
              : size_;
    next_ = lf ? end_ + 1 : size_;
    if (end_ > begin_ && data_[end_ - 1] == '\r') --end_;
    ++line_;
  }

  char* data_;
  size_t size_;
  size_t begin_ = 0;
  size_t end_ = 0;
  size_t next_ = 0;
  size_t line_ = 0;
  size_t row_line_ = 0;
  Status status_ = Status::Ok();
};

/// The lines of `text` that are not blank once their LF and one CR are
/// dropped: no fewer than the rows a scan of it finds, since every row
/// starts on a line of its own and blank lines are skipped.
size_t NonBlankLines(std::string_view text) {
  size_t lines = 0;
  for (size_t begin = 0; begin < text.size();) {
    const size_t lf = std::min(text.find('\n', begin), text.size());
    const size_t length = lf - begin;
    if (length > 1 || (length == 1 && text[begin] != '\r')) ++lines;
    begin = lf + 1;
  }
  return lines;
}

/// Entity labels to ids in first-appearance order: open addressing over
/// one array of id + 1 (0: empty), keyed by views into the file buffer,
/// so a label costs no allocation of its own.
class EntityIds {
 public:
  EntityId Id(std::string_view label) {
    if (2 * labels_.size() + 2 > slots_.size()) {
      slots_.assign(std::max<size_t>(1024, 2 * slots_.size()), 0);
      for (size_t id = 0; id < labels_.size(); ++id) {
        slots_[Slot(labels_[id])] = static_cast<EntityId>(id + 1);
      }
    }
    EntityId& slot = slots_[Slot(label)];
    if (slot == 0) {
      labels_.push_back(label);
      slot = static_cast<EntityId>(labels_.size());
    }
    return slot - 1;
  }

 private:
  /// The slot holding `label`, or the empty one where it goes.
  size_t Slot(std::string_view label) const {
    const size_t mask = slots_.size() - 1;
    size_t slot = std::hash<std::string_view>{}(label) & mask;
    while (slots_[slot] != 0 && labels_[slots_[slot] - 1] != label) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  std::vector<std::string_view> labels_;
  std::vector<EntityId> slots_;
};

/// Reads the file at `path` into `*bytes` with read(2) until end of file,
/// so that pipes and files whose size changes read whole too.
Status ReadFile(const std::string& path, std::string* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::Error("cannot open CSV file: " + path);
  // One byte past a regular file's size, so that its end reads without
  // growing the buffer.
  struct stat st;
  const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  bytes->resize(sized ? static_cast<size_t>(st.st_size) + 1 : size_t{1} << 16);
  size_t size = 0;
  ssize_t n = 0;
  while ((n = ::read(fd, bytes->data() + size, bytes->size() - size)) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    size += static_cast<size_t>(n);
    if (size == bytes->size()) bytes->resize(2 * size);
  }
  ::close(fd);
  if (n < 0) return Status::Error("cannot read CSV file: " + path);
  bytes->resize(size);
  return Status::Ok();
}

}  // namespace

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
  std::string bytes;
  Status status = ReadFile(path, &bytes);
  if (!status.ok()) return status;
  CsvScanner rows(bytes.data(), bytes.size());
  std::vector<std::string> header;
  auto add_name = [&](std::string_view name) { header.emplace_back(name); };
  if (!rows.Next(/*skip_blank=*/false, add_name)) {
    if (!rows.status().ok()) return rows.status();
    return Status::Error("CSV file is empty: " + path);
  }

  const size_t width = header.size();
  size_t entity_at = width;  // none
  if (!entity_column.empty()) {
    const auto named = std::count(header.begin(), header.end(), entity_column);
    if (named == 0) {
      return Status::Error("entity column not found: " + entity_column);
    }
    if (named > 1) {
      return Status::Error("CSV header repeats the entity column: " +
                           entity_column);
    }
    entity_at = std::find(header.begin(), header.end(), entity_column) -
                header.begin();
    header.erase(header.begin() + static_cast<std::ptrdiff_t>(entity_at));
  }

  // Values and labels are views into the buffer until every row has read
  // (an empty value as a null view, as Intern makes it); a field past the
  // header's width is only counted. Both are sized before the scan for
  // the most rows the rest of the file can hold: no more than its
  // non-blank lines, and, since each value but a row's last takes a
  // separator byte and every row but the last a line end, no more than
  // one per `width` of its bytes — so a wide header over many short or
  // blank lines reserves no more views than the file has bytes.
  const std::string_view rest(bytes.data() + rows.next(),
                              bytes.size() - rows.next());
  const size_t max_rows =
      std::min(NonBlankLines(rest), (rest.size() + 1) / width);
  std::vector<std::string_view> values;
  std::vector<std::string_view> labels;
  values.reserve(max_rows * (entity_at < width ? width - 1 : width));
  if (entity_at < width) labels.reserve(max_rows);
  size_t value_bytes = 0;
  size_t records = 0;
  size_t field = 0;
  auto add_value = [&](std::string_view value) {
    if (field == entity_at) {
      labels.push_back(value);
    } else if (field < width) {
      values.push_back(value.empty() ? std::string_view() : value);
      value_bytes += value.size();
    }
    ++field;
  };
  for (; rows.Next(/*skip_blank=*/true, add_value); ++records, field = 0) {
    if (field != width) {
      return Status::Error("CSV row " + std::to_string(rows.row_line()) +
                           " has " + std::to_string(field) +
                           " fields, header has " + std::to_string(width));
    }
  }
  if (!rows.status().ok()) return rows.status();

  // Labels are numbered in one loop, whose table lookups overlap.
  std::vector<EntityId> entities(records, kUnknownEntity);
  EntityIds entity_ids;
  for (size_t r = 0; r < labels.size(); ++r) {
    entities[r] = entity_ids.Id(labels[r]);
  }

  // Then each value is copied once, into one block that the dataset's
  // arena owns; the file buffer is freed on return.
  auto block = std::make_shared_for_overwrite<char[]>(value_bytes);
  char* next = block.get();
  for (std::string_view& value : values) {
    if (value.empty()) continue;
    value = {static_cast<char*>(std::memcpy(next, value.data(), value.size())),
             value.size()};
    next += value.size();
  }
  auto arena = std::make_shared<StringArena>();
  arena->Adopt(std::move(block), value_bytes);
  *out = Dataset::FromColumns(Schema(std::move(header)), std::move(arena),
                              std::move(values), std::move(entities));
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
