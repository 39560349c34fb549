// A from-definition oracle for data::ReadCsv. The reference reads a file
// the way csv.h describes it, one byte at a time over std::string lines:
// physical lines split at LF with one trailing CR dropped per line, blank
// lines skipped before data rows (not before the header), the quote
// rules, a quoted line break kept as that line's own ending (LF or CRLF),
// entity ids in first-appearance order, and the documented error texts.
// ReadCsv must agree with it on seeded random files and on byte-level
// mutations of a WriteCsv'd hostile corpus: the same ok-ness and message,
// and on success the same schema, entity ids and values.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "data/csv.h"
#include "data/record.h"

namespace sablock {

/// Global operator new calls so far: a call that allocates nothing leaves
/// it unchanged.
std::atomic<size_t> g_allocations{0};
/// The largest single operator new request since it was last zeroed.
std::atomic<size_t> g_largest_allocation{0};

namespace {

using data::Dataset;
using data::EntityId;

/// What a read of one file gives: an error message, or a dataset.
struct Expected {
  std::string error;  // empty: the read succeeds
  std::vector<std::string> names;
  std::vector<EntityId> entities;
  std::vector<std::vector<std::string>> rows;
};

/// The reference reader, from csv.h's rules.
Expected ReferenceRead(const std::string& bytes, const std::string& path,
                       const std::string& entity_column) {
  // Physical lines, each with whether a trailing CR was dropped from it.
  std::vector<std::string> lines;
  std::vector<bool> dropped_cr;
  for (size_t start = 0; start < bytes.size();) {
    const size_t lf = bytes.find('\n', start);
    const size_t end = lf == std::string::npos ? bytes.size() : lf;
    std::string line = bytes.substr(start, end - start);
    const bool cr = !line.empty() && line.back() == '\r';
    if (cr) line.pop_back();
    lines.push_back(line);
    dropped_cr.push_back(cr);
    start = end + 1;
  }

  // One row: 1 when read, 0 at the end of the lines, -1 when the lines end
  // inside a quoted field. A quote opens a quoted field only as the
  // field's first byte; inside one, a doubled quote is a literal quote and
  // any other quote ends it.
  size_t next = 0;
  size_t row_line = 0;
  auto read_row = [&](bool skip_blank, std::vector<std::string>* fields) {
    while (skip_blank && next < lines.size() && lines[next].empty()) ++next;
    if (next == lines.size()) return 0;
    row_line = next + 1;
    fields->clear();
    std::string field;
    bool field_start = true;
    bool quoted = false;
    for (;;) {
      const std::string& line = lines[next];
      for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        const bool at_start = field_start;
        field_start = false;
        if (quoted) {
          if (c != '"') {
            field.push_back(c);
          } else if (i + 1 < line.size() && line[i + 1] == '"') {
            field.push_back('"');
            ++i;
          } else {
            quoted = false;
          }
        } else if (c == '"' && at_start) {
          quoted = true;
        } else if (c == ',') {
          fields->push_back(field);
          field.clear();
          field_start = true;
        } else {
          field.push_back(c);
        }
      }
      const bool cr = dropped_cr[next];
      ++next;
      if (!quoted) break;
      if (next == lines.size()) return -1;
      field += cr ? "\r\n" : "\n";
      field_start = false;
    }
    fields->push_back(field);
    return 1;
  };

  Expected out;
  auto fail = [&](std::string message) {
    Expected error;
    error.error = std::move(message);
    return error;
  };
  auto unterminated = [&] {
    return fail("CSV row " + std::to_string(row_line) +
                " ends inside a quoted field");
  };
  std::vector<std::string> header;
  const int got_header = read_row(false, &header);
  if (got_header < 0) return unterminated();
  if (got_header == 0) return fail("CSV file is empty: " + path);
  size_t entity_at = header.size();
  for (size_t i = 0; i < header.size(); ++i) {
    if (!entity_column.empty() && header[i] == entity_column) {
      if (entity_at != header.size()) {
        return fail("CSV header repeats the entity column: " + entity_column);
      }
      entity_at = i;
    } else {
      out.names.push_back(header[i]);
    }
  }
  if (!entity_column.empty() && entity_at == header.size()) {
    return fail("entity column not found: " + entity_column);
  }
  std::map<std::string, EntityId> ids;
  std::vector<std::string> fields;
  for (;;) {
    const int got = read_row(true, &fields);
    if (got < 0) return unterminated();
    if (got == 0) break;
    if (fields.size() != header.size()) {
      return fail("CSV row " + std::to_string(row_line) + " has " +
                  std::to_string(fields.size()) + " fields, header has " +
                  std::to_string(header.size()));
    }
    EntityId entity = data::kUnknownEntity;
    std::vector<std::string> row;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i == entity_at) {
        entity = ids.emplace(fields[i], static_cast<EntityId>(ids.size()))
                     .first->second;
      } else {
        row.push_back(fields[i]);
      }
    }
    out.entities.push_back(entity);
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::string Escaped(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == 0) {
      out += "\\0";
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

/// An in-memory file that ReadCsv opens by its /proc/self/fd path, so a
/// case costs no disk I/O.
class MemoryFile {
 public:
  MemoryFile()
      : fd_(::memfd_create("csv_oracle", 0)),
        path_("/proc/self/fd/" + std::to_string(fd_)) {}
  ~MemoryFile() { ::close(fd_); }
  MemoryFile(const MemoryFile&) = delete;
  MemoryFile& operator=(const MemoryFile&) = delete;

  /// Replaces the file's bytes; false when a call fails.
  bool Write(const std::string& bytes) {
    return fd_ >= 0 && ::ftruncate(fd_, 0) == 0 &&
           ::pwrite(fd_, bytes.data(), bytes.size(), 0) ==
               static_cast<ssize_t>(bytes.size());
  }
  const std::string& path() const { return path_; }

 private:
  int fd_;
  std::string path_;
};

/// Writes `bytes` to `file`, reads it with ReadCsv and compares the result
/// with the reference's. A failed read must leave the output untouched.
/// Returns whether the read succeeded.
bool ExpectMatchesReference(MemoryFile& file, const std::string& bytes,
                            const std::string& entity_column) {
  if (!file.Write(bytes)) {
    ADD_FAILURE() << "cannot write " << file.path();
    return false;
  }
  const std::string& path = file.path();
  const Expected want = ReferenceRead(bytes, path, entity_column);
  Dataset got{data::Schema({"untouched"})};
  got.AddRow(std::vector<std::string_view>{""});
  const Status status = data::ReadCsv(path, entity_column, &got);
  const std::string where = "file \"" + Escaped(bytes) +
                            "\", entity column \"" + entity_column + "\"";
  EXPECT_EQ(status.ok(), want.error.empty())
      << where << ": " << status.message();
  if (!status.ok()) {
    EXPECT_EQ(status.message(), want.error) << where;
    EXPECT_EQ(got.size(), 1u) << where;
    EXPECT_EQ(got.schema().names(), std::vector<std::string>{"untouched"})
        << where;
    return false;
  }
  if (!want.error.empty()) return false;
  EXPECT_EQ(got.schema().names(), want.names) << where;
  EXPECT_EQ(got.entities(), want.entities) << where;
  EXPECT_EQ(got.version(), want.rows.size()) << where;
  if (got.size() != want.rows.size() ||
      got.schema().size() != want.names.size()) {
    ADD_FAILURE() << where << ": " << got.size() << " rows";
    return true;
  }
  for (data::RecordId id = 0; id < got.size(); ++id) {
    const std::vector<std::string> values(got.Values(id).begin(),
                                          got.Values(id).end());
    EXPECT_EQ(values, want.rows[id]) << where << ", row " << id;
  }
  return true;
}

/// The bytes the quote and line rules turn on, plus two letters.
constexpr char kAlphabet[] = {'a', 'b', ',', '"', '\r', '\n', ' ', '\0'};

std::string RandomBytes(Rng& rng, size_t max_length) {
  std::string out(rng.UniformIndex(max_length + 1), 'a');
  for (char& c : out) c = kAlphabet[rng.UniformIndex(sizeof(kAlphabet))];
  return out;
}

/// A file shaped like a table: a header of 1-4 names over {a, b} (repeats
/// included), rows of random values, each written raw or escaped, lines
/// ending in LF or CRLF, some blank lines, and a final line break or not.
std::string TableLikeFile(Rng& rng) {
  const size_t width = 1 + rng.UniformIndex(4);
  std::string out;
  auto line_break = [&] { out += rng.Bernoulli(0.5) ? "\n" : "\r\n"; };
  auto field = [&](const std::string& value) {
    out += rng.Bernoulli(0.5) ? data::EscapeCsvField(value) : value;
  };
  for (size_t c = 0; c < width; ++c) {
    if (c > 0) out.push_back(',');
    std::string name(rng.UniformIndex(3), 'a');
    for (char& ch : name) ch = rng.Bernoulli(0.5) ? 'a' : 'b';
    field(name);
  }
  const size_t rows = rng.UniformIndex(5);
  for (size_t r = 0; r < rows; ++r) {
    line_break();
    if (rng.Bernoulli(0.2)) line_break();
    // Mostly the header's width; sometimes one field more or less.
    size_t fields = width;
    if (rng.Bernoulli(0.1)) fields += 1;
    if (rng.Bernoulli(0.1)) fields -= 1;
    for (size_t c = 0; c < fields; ++c) {
      if (c > 0) out.push_back(',');
      field(RandomBytes(rng, 4));
    }
  }
  if (rng.Bernoulli(0.5)) line_break();
  return out;
}

/// No entity column, a name the header holds (when the reference reads
/// one), or a name it may not hold.
std::string PickEntityColumn(Rng& rng, const std::string& bytes) {
  const size_t kind = rng.UniformIndex(3);
  if (kind == 0) return "";
  const Expected plain = ReferenceRead(bytes, "", "");
  if (kind == 1 && plain.error.empty() && !plain.names.empty()) {
    return rng.Pick(plain.names);
  }
  return rng.Bernoulli(0.5) ? "a" : "b";
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/csv_oracle_" + name;
}

// The quote rules on one line: each file is a header alone, whose names
// are the fields the line splits into.
TEST(CsvOracleTest, OneLineFilesSplitByTheQuoteRules) {
  MemoryFile file;
  const char alphabet[] = {'a', 'b', ',', '"', ' ', '\r'};
  Rng rng(17);
  for (int n = 0; n < 20000; ++n) {
    std::string line(rng.UniformIndex(24), 'a');
    for (char& c : line) c = alphabet[rng.UniformIndex(sizeof(alphabet))];
    ExpectMatchesReference(file, line, "");
    if (::testing::Test::HasFailure()) FAIL() << "stopped at line " << n;
  }
}

TEST(CsvOracleTest, SeededRandomFilesMatchTheReference) {
  MemoryFile file;
  Rng rng(0xc5f0);
  size_t ok = 0;
  size_t ok_with_entity = 0;
  constexpr size_t kFiles = 120000;
  for (size_t n = 0; n < kFiles; ++n) {
    const std::string bytes =
        n % 2 == 0 ? RandomBytes(rng, 40) : TableLikeFile(rng);
    const std::string entity_column = PickEntityColumn(rng, bytes);
    if (ExpectMatchesReference(file, bytes, entity_column)) {
      ++ok;
      if (!entity_column.empty()) ++ok_with_entity;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopped at file " << n;
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(ok, kFiles / 5);
  EXPECT_LT(ok, kFiles * 4 / 5);
  EXPECT_GT(ok_with_entity, kFiles / 20);
}

/// A WriteCsv'd corpus of hostile values, with an entity column.
std::string HostileCorpus(uint64_t seed) {
  const std::vector<std::string> pieces = {
      "\"", ",", "\r", "\n", "\r\n", "\"\"", "a", " ", "x\"y", "\n\n", "b"};
  Rng rng(seed);
  Dataset d{data::Schema({"na,me", "no\"te", "plain"})};
  for (int r = 0; r < 40; ++r) {
    std::vector<std::string> values;
    for (int c = 0; c < 3; ++c) {
      std::string value;
      const size_t parts = rng.UniformIndex(5);
      for (size_t i = 0; i < parts; ++i) value += rng.Pick(pieces);
      values.push_back(value);
    }
    const std::vector<std::string_view> views(values.begin(), values.end());
    d.AddRow(views, static_cast<EntityId>(rng.UniformIndex(12)));
  }
  const std::string path = TempPath("corpus.csv");
  EXPECT_TRUE(data::WriteCsv(path, d, "entity").ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One byte-level mutation: flip, insert or delete a byte, truncate, or
/// repeat a physical line.
void Mutate(Rng& rng, std::string* bytes) {
  const size_t kind = rng.UniformIndex(5);
  if (bytes->empty() && kind != 1) return;
  const size_t at = rng.UniformIndex(bytes->size() + (kind == 1 ? 1 : 0));
  const char byte = rng.Bernoulli(0.8)
                        ? kAlphabet[rng.UniformIndex(sizeof(kAlphabet))]
                        : static_cast<char>(rng.UniformIndex(256));
  switch (kind) {
    case 0:
      (*bytes)[at] = byte;
      break;
    case 1:
      bytes->insert(bytes->begin() + static_cast<std::ptrdiff_t>(at), byte);
      break;
    case 2:
      bytes->erase(at, 1);
      break;
    case 3:
      bytes->resize(at);
      break;
    default: {
      const size_t begin = bytes->rfind('\n', at);
      const size_t start = begin == std::string::npos ? 0 : begin + 1;
      const size_t lf = bytes->find('\n', at);
      const size_t end = lf == std::string::npos ? bytes->size() : lf + 1;
      bytes->insert(end, bytes->substr(start, end - start));
    }
  }
}

TEST(CsvOracleTest, MutatedHostileCorpusMatchesTheReference) {
  MemoryFile file;
  size_t ok = 0;
  size_t mutants = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::string corpus = HostileCorpus(seed);
    // The unmutated corpus reads back.
    ASSERT_TRUE(ExpectMatchesReference(file, corpus, "entity"));
    Rng rng(0x3a7e + seed);
    for (int n = 0; n < 8000; ++n) {
      std::string bytes = corpus;
      const size_t mutations = 1 + rng.UniformIndex(3);
      for (size_t m = 0; m < mutations; ++m) Mutate(rng, &bytes);
      const std::string entity_column =
          rng.Bernoulli(0.8) ? "entity" : (rng.Bernoulli(0.5) ? "" : "plain");
      ok += ExpectMatchesReference(file, bytes, entity_column) ? 1 : 0;
      ++mutants;
      if (::testing::Test::HasFailure()) {
        FAIL() << "stopped at seed " << seed << ", mutant " << n;
      }
    }
  }
  EXPECT_GT(ok, mutants / 10);
  EXPECT_LT(ok, mutants * 9 / 10);
}

// Past the header's width a row's fields are only counted: the message
// keeps their count, and nothing is stored for them, so a read allocates
// as often for a row of 100,000 fields as for one of 1,000.
TEST(CsvOracleTest, ExtraFieldsOfARaggedRowAreOnlyCounted) {
  MemoryFile file;
  auto allocations = [&](size_t fields) {
    std::string bytes = "a,b\nx";
    for (size_t i = 1; i < fields; ++i) bytes += ",x";
    EXPECT_TRUE(file.Write(bytes + "\n"));
    Dataset d;
    const size_t before = g_allocations.load();
    const Status s = data::ReadCsv(file.path(), "", &d);
    const size_t count = g_allocations.load() - before;
    EXPECT_EQ(s.message(), "CSV row 2 has " + std::to_string(fields) +
                               " fields, header has 2");
    return count;
  };
  EXPECT_EQ(allocations(100000), allocations(1000));
}

// ReadCsv reserves its values before the scan, for no more rows than the
// file's non-blank lines and no more views than its bytes can hold. A
// 1,000-name header over 100,000 blank lines reserves almost nothing,
// and over 100,000 one-byte lines at most a view per byte: the largest
// allocation of the read stays within a small multiple of the file size,
// never the 10^8 views that lines × width would ask for.
TEST(CsvOracleTest, ValuesReserveStaysWithinTheFileSize) {
  std::string header;
  for (int i = 0; i < 1000; ++i) {
    header += (i > 0 ? ",c" : "c") + std::to_string(i);
  }
  MemoryFile file;
  auto largest = [&](const std::string& bytes) {
    EXPECT_TRUE(file.Write(bytes));
    Dataset d;
    g_largest_allocation = 0;
    data::ReadCsv(file.path(), "", &d);
    return g_largest_allocation.load();
  };
  std::string blank = header + "\n" + std::string(100000, '\n');
  EXPECT_LE(largest(blank), 2 * blank.size());
  std::string short_lines = header + "\n";
  for (int i = 0; i < 100000; ++i) short_lines += "x\n";
  EXPECT_LE(largest(short_lines), 16 * short_lines.size());
}

}  // namespace
}  // namespace sablock

// A replacement pair over malloc and free, counting the calls. GCC cannot
// see that the pair matches once it inlines the delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  sablock::g_allocations.fetch_add(1, std::memory_order_relaxed);
  size_t largest = sablock::g_largest_allocation.load();
  while (size > largest &&
         !sablock::g_largest_allocation.compare_exchange_weak(largest, size)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
