// Tests for the CSV reader/writer, including failure injection.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "data/csv.h"

namespace sablock::data {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

/// The values ReadCsv reads from `row` under a three-column header.
std::vector<std::string> ReadRow(const std::string& row) {
  const std::string path = TempPath("row.csv");
  WriteFile(path, "x,y,z\n" + row + "\n");
  Dataset d;
  const Status s = ReadCsv(path, "", &d);
  EXPECT_TRUE(s.ok()) << s.message();
  if (d.size() != 1) return {};
  return std::vector<std::string>(d.Values(0).begin(), d.Values(0).end());
}

TEST(CsvReadTest, PlainFields) {
  EXPECT_EQ(ReadRow("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvReadTest, QuotedFieldsWithCommasAndQuotes) {
  EXPECT_EQ(ReadRow(R"("hello, world","say ""hi""",plain)"),
            (std::vector<std::string>{"hello, world", "say \"hi\"", "plain"}));
}

TEST(CsvReadTest, EmptyFields) {
  EXPECT_EQ(ReadRow(",,"), (std::vector<std::string>{"", "", ""}));
}

TEST(EscapeCsvFieldTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("q\"q"), "\"q\"\"q\"");
}

TEST(CsvRoundTripTest, WritesAndReadsBack) {
  Dataset d{Schema({"name", "note"})};
  d.Add({{"alice", "likes, commas"}}, 0);
  d.Add({{"bob", "quote \" inside"}}, 0);
  d.Add({{"carol", ""}}, 1);

  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(path, d, "entity_id").ok());

  Dataset back;
  Status s = ReadCsv(path, "entity_id", &back);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.Value(0, "name"), "alice");
  EXPECT_EQ(back.Value(0, "note"), "likes, commas");
  EXPECT_EQ(back.Value(1, "note"), "quote \" inside");
  EXPECT_TRUE(back.IsMatch(0, 1));
  EXPECT_FALSE(back.IsMatch(0, 2));
}

TEST(CsvReadTest, WithoutEntityColumn) {
  std::string path = TempPath("plain.csv");
  WriteFile(path, "a,b\n1,2\n3,4\n");
  Dataset d;
  ASSERT_TRUE(ReadCsv(path, "", &d).ok());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.entity(0), kUnknownEntity);
}

TEST(CsvReadTest, SkipsBlankLinesAndCrLf) {
  std::string path = TempPath("crlf.csv");
  WriteFile(path, "a,b\r\n1,2\r\n\r\n3,4\r\n");
  Dataset d;
  ASSERT_TRUE(ReadCsv(path, "", &d).ok());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Value(1, "b"), "4");
}

TEST(CsvReadTest, MissingFileFails) {
  Dataset d;
  Status s = ReadCsv("/nonexistent/dir/file.csv", "", &d);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("cannot open"), std::string::npos);
}

TEST(CsvReadTest, EmptyFileFails) {
  std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  Dataset d;
  EXPECT_FALSE(ReadCsv(path, "", &d).ok());
}

TEST(CsvReadTest, RaggedRowFails) {
  std::string path = TempPath("ragged.csv");
  WriteFile(path, "a,b\n1,2,3\n");
  Dataset d;
  Status s = ReadCsv(path, "", &d);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row 2"), std::string::npos);
}

TEST(CsvReadTest, MissingEntityColumnFails) {
  std::string path = TempPath("noentity.csv");
  WriteFile(path, "a,b\n1,2\n");
  Dataset d;
  EXPECT_FALSE(ReadCsv(path, "entity_id", &d).ok());
}

TEST(CsvReadTest, RepeatedEntityColumnFailsNamingIt) {
  std::string path = TempPath("repeated_entity.csv");
  WriteFile(path, "entity,a,entity\n1,x,2\n");
  Dataset d;
  Status s = ReadCsv(path, "entity", &d);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "CSV header repeats the entity column: entity");
}

TEST(CsvReadTest, EntityLabelsGroupRecords) {
  std::string path = TempPath("labels.csv");
  WriteFile(path, "id,name\ne1,foo\ne2,bar\ne1,foo2\n");
  Dataset d;
  ASSERT_TRUE(ReadCsv(path, "id", &d).ok());
  ASSERT_EQ(d.size(), 3u);
  EXPECT_TRUE(d.IsMatch(0, 2));
  EXPECT_FALSE(d.IsMatch(0, 1));
  // The entity column is consumed, not part of the schema.
  EXPECT_EQ(d.schema().IndexOf("id"), -1);
}

TEST(CsvReadTest, QuotedLineBreaksContinueTheRow) {
  Dataset d{Schema({"name", "note"})};
  d.Add({{"alice", "line one\nline two"}}, 0);
  d.Add({{"bob", "plain"}}, 1);
  std::string path = TempPath("multiline.csv");
  ASSERT_TRUE(WriteCsv(path, d, "entity_id").ok());
  Dataset back;
  Status s = ReadCsv(path, "entity_id", &back);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.Value(0, "note"), "line one\nline two");
  EXPECT_EQ(back.Value(1, "name"), "bob");
}

TEST(CsvReadTest, CrLfInsideQuotesIsKeptAndStrayQuotesStayLiteral) {
  std::string path = TempPath("crlf_multiline.csv");
  WriteFile(path,
            "a,b\r\n1,\"x\r\n\r\ny\"\r\nq\"r,\"\"\r\n2,\"z\ny\"\r\n");
  Dataset d;
  Status s = ReadCsv(path, "", &d);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d.Value(0, "b"), "x\r\n\r\ny");
  // A quote inside an unquoted field is literal and opens nothing.
  EXPECT_EQ(d.Value(1, "a"), "q\"r");
  EXPECT_EQ(d.Value(1, "b"), "");
  // An LF break inside quotes stays LF in a CRLF file.
  EXPECT_EQ(d.Value(2, "b"), "z\ny");
}

TEST(CsvReadTest, UnterminatedQuoteFailsNamingTheRowsFirstLine) {
  std::string path = TempPath("unterminated.csv");
  WriteFile(path, "a,b\n1,2\n3,\"open\nstill open\n\nto the end\n");
  Dataset d;
  Status s = ReadCsv(path, "", &d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row 3"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("quoted field"), std::string::npos)
      << s.message();

  WriteFile(path, "a,\"b\n");
  s = ReadCsv(path, "", &d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row 1"), std::string::npos) << s.message();
}

TEST(CsvRoundTripTest, HostileValuesRoundTrip) {
  // Values built from the pieces CSV quoting has to survive, plus empty,
  // trailing-CR and very long ones; the header names are hostile too.
  const std::vector<std::string> pieces = {
      "\"", ",", "\r", "\n", "\r\n", "\"\"", "a", " ", "x\"y", "\n\n"};
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    auto hostile = [&] {
      std::string value;
      const size_t kind = rng.UniformIndex(8);
      if (kind == 0) return value;  // empty
      const size_t parts = kind == 1 ? 20000 : rng.UniformIndex(9);
      for (size_t i = 0; i < parts; ++i) {
        value += pieces[rng.UniformIndex(pieces.size())];
      }
      if (kind == 2) value += "\r";  // a trailing CR
      return value;
    };
    Dataset d{Schema({"na,me", "no\"te", "li\nne"})};
    for (int r = 0; r < 150; ++r) {
      Record rec;
      for (int c = 0; c < 3; ++c) rec.values.push_back(hostile());
      d.Add(std::move(rec), static_cast<EntityId>(r % 17));
    }
    std::string path = TempPath("hostile" + std::to_string(seed) + ".csv");
    ASSERT_TRUE(WriteCsv(path, d, "entity_id").ok());
    Dataset back;
    Status s = ReadCsv(path, "entity_id", &back);
    ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.message();
    ASSERT_EQ(back.schema().names(), d.schema().names());
    ASSERT_EQ(back.size(), d.size());
    for (RecordId id = 0; id < d.size(); ++id) {
      EXPECT_EQ(back.entity(id), d.entity(id)) << "seed " << seed;
      for (const std::string& name : d.schema().names()) {
        EXPECT_EQ(back.Value(id, name), d.Value(id, name))
            << "seed " << seed << " record " << id << " " << name;
      }
    }
  }
}

}  // namespace
}  // namespace sablock::data
