// Unit tests for the snapshot store layer: varint/byte primitives, the
// self-framing codec sub-blocks, and the writer/loader roundtrip over
// hand-built datasets (core sections, both encodings, zero-copy adoption
// and copy-on-write mutation after load).

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "data/record.h"
#include "features/feature_store.h"
#include "gtest/gtest.h"
#include "store/bytes.h"
#include "store/codec.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace sablock::store {
namespace {

std::string TmpPath(const char* tag) {
  return "/tmp/sablock-store-test-" + std::to_string(::getpid()) + "-" +
         tag + ".sab";
}

// ---------------------------------------------------------------- bytes

TEST(BytesTest, VarintRoundtripsEdgeValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ULL << 32) - 1,
                            1ULL << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    ByteWriter writer(&buf);
    writer.PutVarint(v);
    ByteReader reader(buf.data(), buf.size());
    uint64_t got = 0;
    ASSERT_TRUE(reader.ReadVarint(&got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(reader.remaining(), 0u) << v;
  }
}

TEST(BytesTest, VarintRejectsOverlongAndTruncated) {
  // 10 continuation bytes: the varint never terminates within 64 bits.
  std::string overlong(10, '\x80');
  ByteReader reader(overlong.data(), overlong.size());
  uint64_t out = 0;
  EXPECT_FALSE(reader.ReadVarint(&out));

  std::string truncated("\xff\xff", 2);  // continuation bit set, no end
  ByteReader reader2(truncated.data(), truncated.size());
  EXPECT_FALSE(reader2.ReadVarint(&out));
}

TEST(BytesTest, ReaderNeverReadsPastEnd) {
  std::string buf("\x01\x02\x03", 3);
  ByteReader reader(buf.data(), buf.size());
  uint32_t u32 = 0;
  EXPECT_FALSE(reader.ReadU32(&u32));  // only 3 bytes available
  EXPECT_EQ(reader.position(), 0u);    // failed read consumes nothing
  uint8_t u8 = 0;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_FALSE(reader.Skip(3));
  EXPECT_TRUE(reader.Skip(2));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BytesTest, ZigzagRoundtrips) {
  const int64_t cases[] = {0, -1, 1, -2, 2,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);  // small magnitudes stay small
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

// ---------------------------------------------------------------- codec

TEST(CodecTest, U64BlockRoundtripsBothEncodings) {
  const std::vector<uint64_t> cases[] = {
      {},
      {0},
      {0, 1, 2, 3, 100, 1000, 1000000},
      // Unsorted: deltas wrap, zigzag keeps them small either way.
      {5, 0, std::numeric_limits<uint64_t>::max(), 7},
  };
  for (const std::vector<uint64_t>& values : cases) {
    for (bool compressed : {false, true}) {
      std::string buf;
      ByteWriter writer(&buf);
      WriteU64Block(writer, values, compressed);
      ByteReader reader(buf.data(), buf.size());
      std::vector<uint64_t> got;
      Status s = ReadU64Block(reader, compressed, &got);
      ASSERT_TRUE(s.ok()) << s.message();
      EXPECT_EQ(got, values);
      EXPECT_EQ(reader.remaining(), 0u);
    }
  }
}

TEST(CodecTest, U64BlockCompressesSortedSequences) {
  std::vector<uint64_t> sorted;
  for (uint64_t i = 0; i < 1000; ++i) sorted.push_back(i * 3);
  std::string raw, compressed;
  ByteWriter raw_writer(&raw);
  WriteU64Block(raw_writer, sorted, false);
  ByteWriter comp_writer(&compressed);
  WriteU64Block(comp_writer, sorted, true);
  EXPECT_LT(compressed.size() * 4, raw.size());  // >=4x on sorted data
}

TEST(CodecTest, U64BlockRejectsHostileCount) {
  // A count far beyond the available bytes must fail before allocating.
  std::string buf;
  ByteWriter writer(&buf);
  writer.PutVarint(std::numeric_limits<uint64_t>::max());
  for (bool compressed : {false, true}) {
    ByteReader reader(buf.data(), buf.size());
    std::vector<uint64_t> out;
    EXPECT_FALSE(ReadU64Block(reader, compressed, &out).ok());
  }
}

TEST(CodecTest, StringBlockRoundtripsBothEncodings) {
  const std::vector<std::string> cases[] = {
      {},
      {""},
      {"solo"},
      // Sorted-ish with shared prefixes (front-coding's best case) plus
      // embedded separators and non-ASCII bytes.
      {"", "aaa", "aab", "aab\x1f\x1e", "ab\xc3\xa9", "b"},
  };
  for (const std::vector<std::string>& strings : cases) {
    for (bool compressed : {false, true}) {
      std::string buf;
      ByteWriter writer(&buf);
      WriteStringBlock(writer, strings, compressed);
      ByteReader reader(buf.data(), buf.size());
      std::vector<std::string> got;
      Status s = ReadStringBlock(reader, compressed, &got);
      ASSERT_TRUE(s.ok()) << s.message();
      EXPECT_EQ(got, strings);
      EXPECT_EQ(reader.remaining(), 0u);
    }
  }
}

TEST(CodecTest, StringBlockRejectsHostileInput) {
  {
    std::string buf;
    ByteWriter writer(&buf);
    writer.PutVarint(1ULL << 40);  // count with no bytes behind it
    ByteReader reader(buf.data(), buf.size());
    std::vector<std::string> out;
    EXPECT_FALSE(ReadStringBlock(reader, false, &out).ok());
  }
  {
    // Front-coded entry claiming a shared prefix longer than the
    // previous string.
    std::string buf;
    ByteWriter writer(&buf);
    writer.PutVarint(2);   // count
    writer.PutVarint(0);   // first: no shared prefix
    writer.PutString("ab");
    writer.PutVarint(10);  // second: prefix 10 of a 2-char predecessor
    writer.PutString("x");
    ByteReader reader(buf.data(), buf.size());
    std::vector<std::string> out;
    EXPECT_FALSE(ReadStringBlock(reader, true, &out).ok());
  }
}

// ------------------------------------------------------------ roundtrip

data::Dataset SmallDataset() {
  data::Dataset d(data::Schema({"name", "note"}));
  auto add = [&d](std::string_view name, std::string_view note,
                  data::EntityId entity) {
    std::vector<std::string_view> row = {name, note};
    d.AddRow(row, entity);
  };
  add("alice", "likes, commas and \"quotes\"", 0);
  add("", "", 1);  // fully empty values
  add("bob\x1f", "separator bytes survive\x1e", 0);
  add("caf\xc3\xa9", "utf-8 bytes are opaque", 2);
  return d;
}

void ExpectSameRecords(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.schema().names(), b.schema().names());
  for (data::RecordId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.entity(id), b.entity(id)) << "record " << id;
    auto va = a.Values(id);
    auto vb = b.Values(id);
    ASSERT_EQ(va.size(), vb.size());
    for (size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va[i], vb[i]) << "record " << id << " attr " << i;
    }
  }
}

TEST(SnapshotTest, CoreRoundtripsBothEncodings) {
  data::Dataset original = SmallDataset();
  for (bool compress : {false, true}) {
    const std::string path = TmpPath(compress ? "comp" : "raw");
    WriteOptions options;
    options.compress = compress;
    WriteInfo write_info;
    Status s = WriteSnapshot(path, original, options, &write_info);
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(write_info.sections, 4u);  // schema, entities, arena, offsets
    EXPECT_EQ(write_info.feature_sections, 0u);

    data::Dataset loaded;
    SnapshotInfo info;
    s = LoadSnapshot(path, {}, &loaded, &info);
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(info.records, original.size());
    EXPECT_EQ(info.attributes, original.schema().size());
    EXPECT_EQ(info.file_bytes, write_info.file_bytes);
    EXPECT_EQ(info.any_compressed, compress);
    ExpectSameRecords(original, loaded);
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, WriterIsDeterministic) {
  data::Dataset original = SmallDataset();
  const std::string p1 = TmpPath("det1");
  const std::string p2 = TmpPath("det2");
  ASSERT_TRUE(WriteSnapshot(p1, original).ok());
  ASSERT_TRUE(WriteSnapshot(p2, original).ok());
  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  std::string b1((std::istreambuf_iterator<char>(f1)),
                 std::istreambuf_iterator<char>());
  std::string b2((std::istreambuf_iterator<char>(f2)),
                 std::istreambuf_iterator<char>());
  EXPECT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(SnapshotTest, EmptyDatasetRoundtrips) {
  data::Dataset original(data::Schema({"a", "b", "c"}));
  const std::string path = TmpPath("empty");
  ASSERT_TRUE(WriteSnapshot(path, original).ok());
  data::Dataset loaded;
  Status s = LoadSnapshot(path, {}, &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.schema().names(), original.schema().names());
  std::remove(path.c_str());
}

TEST(SnapshotTest, FeatureSectionsRoundtripAndPreWarmTheCache) {
  data::Dataset original = SmallDataset();
  const std::vector<std::string> attrs = {"name", "note"};
  // Warm one column of every kind, so the writer has a full catalog.
  features::FeatureView warm = original.features();
  warm.TextsFor(attrs);
  warm.TokensFor(attrs);
  warm.ShinglesFor(attrs, 2);
  warm.SignaturesFor(attrs, 2, 16, 7);

  const std::string path = TmpPath("features");
  WriteInfo write_info;
  ASSERT_TRUE(WriteSnapshot(path, original, {}, &write_info).ok());
  EXPECT_EQ(write_info.feature_sections, 4u);

  data::Dataset loaded;
  SnapshotInfo info;
  Status s = LoadSnapshot(path, {}, &loaded, &info);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(info.feature_sections, 4u);

  // Every getter must be a cache hit (adopted, not rebuilt) and agree
  // with the parsed path's column contents.
  features::FeatureView view = loaded.features();
  features::FeatureView reference = original.features();
  auto text = view.TextsFor(attrs);
  auto ref_text = reference.TextsFor(attrs);
  auto tokens = view.TokensFor(attrs);
  auto ref_tokens = reference.TokensFor(attrs);
  auto shingles = view.ShinglesFor(attrs, 2);
  auto ref_shingles = reference.ShinglesFor(attrs, 2);
  auto sigs = view.SignaturesFor(attrs, 2, 16, 7);
  auto ref_sigs = reference.SignaturesFor(attrs, 2, 16, 7);
  ASSERT_EQ(tokens.column().token_limit(),
            ref_tokens.column().token_limit());
  for (data::RecordId id = 0; id < loaded.size(); ++id) {
    EXPECT_EQ(text.Row(id), ref_text.Row(id)) << id;
    EXPECT_TRUE(std::ranges::equal(tokens.Row(id), ref_tokens.Row(id))) << id;
    EXPECT_TRUE(std::ranges::equal(shingles.Row(id), ref_shingles.Row(id)))
        << id;
    std::span<const uint64_t> got = sigs.Row(id);
    std::span<const uint64_t> want = ref_sigs.Row(id);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << id;
  }
  // The token column travels whole: the same vocabulary in id order and
  // the same CSR arrays as the parsed path's column.
  const features::TokenColumn& column = view.store().Tokens(attrs);
  const features::TokenColumn& ref_column = reference.store().Tokens(attrs);
  EXPECT_TRUE(
      std::ranges::equal(column.vocabulary(), ref_column.vocabulary()));
  EXPECT_TRUE(std::ranges::equal(column.rows().values(),
                                 ref_column.rows().values()));
  EXPECT_TRUE(std::ranges::equal(column.rows().offsets(),
                                 ref_column.rows().offsets()));
  // Adoption counts as the build for the stats counters: reads above
  // must not have rebuilt anything.
  features::FeatureStore::Stats stats = view.store().stats();
  EXPECT_EQ(stats.text_builds, 1u);
  EXPECT_EQ(stats.token_builds, 1u);
  EXPECT_EQ(stats.shingle_builds, 1u);
  EXPECT_EQ(stats.signature_builds, 1u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MutationAfterLoadCopiesOnWrite) {
  data::Dataset original = SmallDataset();
  original.features().TokensFor({"name"});
  const std::string path = TmpPath("cow");
  ASSERT_TRUE(WriteSnapshot(path, original).ok());

  data::Dataset loaded;
  ASSERT_TRUE(LoadSnapshot(path, {}, &loaded).ok());
  features::FeatureView before = loaded.features();
  const uint64_t version_before = loaded.version();

  // Mutate: the new row interns into fresh heap chunks (the mapping is
  // read-only), the feature cache detaches, and the old view keeps
  // serving its pre-mutation snapshot.
  std::vector<std::string_view> row = {"dave", "appended after load"};
  data::RecordId id = loaded.AddRow(row, 3);
  EXPECT_EQ(id, original.size());
  EXPECT_GT(loaded.version(), version_before);
  EXPECT_EQ(loaded.Values(id)[0], "dave");
  // Pre-mutation rows still read out of the mapping.
  ExpectSameRecords(original,
                    loaded.Prefix(original.size()));
  EXPECT_EQ(before.size(), original.size());

  // A fresh view rebuilds over the grown dataset.
  features::FeatureView after = loaded.features();
  EXPECT_EQ(after.size(), loaded.size());
  EXPECT_EQ(after.TextsFor({"name"}).Row(id), "dave");
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadWithoutFeaturesSkipsFeatureSections) {
  data::Dataset original = SmallDataset();
  original.features().TokensFor({"name"});
  const std::string path = TmpPath("nofeat");
  ASSERT_TRUE(WriteSnapshot(path, original).ok());
  LoadOptions options;
  options.load_features = false;
  data::Dataset loaded;
  SnapshotInfo info;
  ASSERT_TRUE(LoadSnapshot(path, options, &loaded, &info).ok());
  ExpectSameRecords(original, loaded);
  // The cache starts cold: the first getter call builds.
  loaded.features().TokensFor({"name"});
  EXPECT_EQ(loaded.features().store().stats().token_builds, 1u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, WriteToUnwritablePathFails) {
  data::Dataset d = SmallDataset();
  Status s = WriteSnapshot("/nonexistent-dir/x.sab", d);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
}

TEST(SnapshotTest, LoadMissingFileFails) {
  data::Dataset d;
  Status s = LoadSnapshot(TmpPath("missing-never-written"), {}, &d);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
}

}  // namespace
}  // namespace sablock::store
