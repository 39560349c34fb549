// Corruption robustness: a damaged `.sab` snapshot must fail with a
// clean diagnostic Status — never crash, never silently load wrong
// data. The suite mutates a golden file every way the format doc
// promises to survive: truncation at every boundary region, randomized
// bit flips (seeded, so failures reproduce), byte-swapped endian
// marker, future format version, wrong magic, and pure garbage.
//
// The one legal outcome besides a clean error is a byte-identical
// dataset: flips that land in un-checksummed alignment padding change
// nothing the loader reads. The CI ASan leg runs this test, so any
// out-of-bounds read a mutation provokes is a hard failure even when
// it would "work" in production.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/cora_generator.h"
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
  return "/tmp/sablock-corrupt-" + std::to_string(::getpid()) + "-" + tag +
         ".sab";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The golden corpus: small Cora-like dataset with one column of every
/// feature kind warmed, so the file exercises every section decoder. Two
/// records have empty blocking attributes, so the band column marks some.
data::Dataset GoldenDataset() {
  data::CoraGeneratorConfig config;
  config.num_entities = 12;
  config.num_records = 120;
  config.seed = 42;
  data::Dataset d = data::GenerateCoraLike(config);
  const std::vector<std::string> attrs = {"authors", "title"};
  for (data::RecordId source : {3u, 70u}) {
    std::vector<std::string> values(d.Values(source).begin(),
                                    d.Values(source).end());
    for (const std::string& attr : attrs) {
      values[static_cast<size_t>(d.schema().IndexOf(attr))].clear();
    }
    const std::vector<std::string_view> views(values.begin(), values.end());
    d.AddRow(views);
  }
  features::FeatureView warm = d.features();
  warm.TextsFor(attrs);
  warm.TokensFor(attrs);
  warm.ShinglesFor(attrs, 3);
  warm.SignaturesFor(attrs, 3, 16, 7);
  warm.BandsFor(attrs, 3, 2, 8, 7);
  return d;
}

bool SameRecords(const data::Dataset& a, const data::Dataset& b) {
  if (a.size() != b.size()) return false;
  if (a.schema().names() != b.schema().names()) return false;
  for (data::RecordId id = 0; id < a.size(); ++id) {
    if (a.entity(id) != b.entity(id)) return false;
    auto va = a.Values(id);
    auto vb = b.Values(id);
    for (size_t i = 0; i < va.size(); ++i) {
      if (va[i] != vb[i]) return false;
    }
  }
  return true;
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = GoldenDataset();
    path_ = TmpPath("golden");
    ASSERT_TRUE(WriteSnapshot(path_, original_).ok());
    golden_ = ReadFile(path_);
    ASSERT_GE(golden_.size(), kHeaderBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads `bytes` (written to the temp path) and demands the contract:
  /// a clean non-empty error, or a dataset byte-identical to the
  /// original. Returns true when the load errored.
  bool ExpectCleanOutcome(const std::string& bytes, const char* what) {
    WriteFile(path_, bytes);
    data::Dataset loaded;
    Status s = LoadSnapshot(path_, {}, &loaded);
    if (s.ok()) {
      EXPECT_TRUE(SameRecords(original_, loaded))
          << what << ": loaded OK but with different data";
      return false;
    }
    EXPECT_FALSE(s.message().empty()) << what;
    return true;
  }

  data::Dataset original_;
  std::string path_;
  std::string golden_;
};

TEST_F(SnapshotCorruptionTest, GoldenFileLoads) {
  data::Dataset loaded;
  Status s = LoadSnapshot(path_, {}, &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(SameRecords(original_, loaded));
}

TEST_F(SnapshotCorruptionTest, TruncationAlwaysFailsCleanly) {
  // Every prefix length through the header, then ~64 cut points across
  // the body: a truncated file can never satisfy the recorded
  // file_bytes, so every one of these must error.
  std::vector<size_t> cuts;
  for (size_t n = 0; n <= kHeaderBytes; ++n) cuts.push_back(n);
  const size_t step = std::max<size_t>(1, golden_.size() / 64);
  for (size_t n = kHeaderBytes + 1; n < golden_.size(); n += step) {
    cuts.push_back(n);
  }
  for (size_t n : cuts) {
    EXPECT_TRUE(
        ExpectCleanOutcome(golden_.substr(0, n), "truncation"))
        << "truncated to " << n << " bytes unexpectedly loaded";
  }
}

TEST_F(SnapshotCorruptionTest, RandomBitFlipsNeverCrashOrCorrupt) {
  // Seeded, so a failing (byte, bit) pair reproduces exactly.
  std::mt19937_64 rng(20260807);
  std::uniform_int_distribution<size_t> byte_dist(0, golden_.size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);
  int errors = 0;
  constexpr int kFlips = 400;
  for (int i = 0; i < kFlips; ++i) {
    const size_t byte = byte_dist(rng);
    const int bit = bit_dist(rng);
    std::string mutated = golden_;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
    if (ExpectCleanOutcome(mutated, "bit flip")) ++errors;
  }
  // Nearly every byte is covered by a checksum; only alignment padding
  // flips may load. If most flips "succeed", checksumming is broken.
  EXPECT_GT(errors, kFlips / 2);
}

TEST_F(SnapshotCorruptionTest, EveryHeaderFieldIsValidated) {
  // Flip the low byte of each fixed header field in turn.
  const size_t offsets[] = {0,  // magic
                            8,  // endian marker
                            12, // format version
                            16, // record count
                            24, // attr count
                            28, // section count
                            32, // file bytes
                            40};  // table checksum
  for (size_t off : offsets) {
    std::string mutated = golden_;
    mutated[off] = static_cast<char>(mutated[off] ^ 0xff);
    WriteFile(path_, mutated);
    data::Dataset loaded;
    Status s = LoadSnapshot(path_, {}, &loaded);
    EXPECT_FALSE(s.ok()) << "header offset " << off;
  }
}

TEST_F(SnapshotCorruptionTest, ForeignEndianIsRefusedWithDiagnostic) {
  // Byte-swap the endian marker: the file of a machine with the other
  // byte order. The loader must name the problem, not flail on
  // swapped counts.
  std::string mutated = golden_;
  std::swap(mutated[8], mutated[11]);
  std::swap(mutated[9], mutated[10]);
  WriteFile(path_, mutated);
  data::Dataset loaded;
  Status s = LoadSnapshot(path_, {}, &loaded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("byte-order"), std::string::npos)
      << s.message();
}

TEST_F(SnapshotCorruptionTest, FutureVersionIsRefusedWithDiagnostic) {
  std::string mutated = golden_;
  const uint32_t future = kFormatVersion + 1;
  std::memcpy(&mutated[12], &future, sizeof future);
  WriteFile(path_, mutated);
  data::Dataset loaded;
  Status s = LoadSnapshot(path_, {}, &loaded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.message();
}

TEST_F(SnapshotCorruptionTest, WrongMagicIsRefused) {
  std::string mutated = golden_;
  mutated.replace(0, 8, "NOTASNAP");
  EXPECT_TRUE(ExpectCleanOutcome(mutated, "magic"));
}

TEST_F(SnapshotCorruptionTest, GarbageFilesAreRefused) {
  std::mt19937_64 rng(7);
  for (size_t size : {0ul, 1ul, 47ul, 48ul, 4096ul}) {
    std::string garbage(size, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    EXPECT_TRUE(ExpectCleanOutcome(garbage, "garbage"))
        << size << "-byte garbage file unexpectedly loaded";
  }
}

TEST_F(SnapshotCorruptionTest, ChecksumVerificationIsTheDefaultGate) {
  // Flip one byte deep inside the arena payload. Every load verifies
  // every section checksum, so the load must fail; this pins that the
  // verification is actually doing the work.
  std::string mutated = golden_;
  mutated[golden_.size() - 9] =
      static_cast<char>(mutated[golden_.size() - 9] ^ 0x40);
  EXPECT_TRUE(ExpectCleanOutcome(mutated, "payload flip"));
}

/// Writes `d` with one more section table entry, a copy of the last
/// (its last feature column's), and expects the load to refuse the
/// repeated column while a core-only load still succeeds.
void ExpectRepeatedLastSectionRefused(const data::Dataset& d) {
  const std::string path = TmpPath("duplicate");
  ASSERT_TRUE(WriteSnapshot(path, d).ok());
  const std::string file = ReadFile(path);

  // Every payload moves one entry further, and the header and table
  // checksum follow (store/format.h's layout).
  uint32_t sections = 0;
  std::memcpy(&sections, &file[28], sizeof sections);
  std::string table = file.substr(kHeaderBytes, sections * kSectionEntryBytes);
  table += table.substr(table.size() - kSectionEntryBytes);
  ++sections;
  for (size_t i = 0; i < sections; ++i) {
    uint64_t offset = 0;
    std::memcpy(&offset, &table[i * kSectionEntryBytes + 8], sizeof offset);
    offset += kSectionEntryBytes;
    std::memcpy(&table[i * kSectionEntryBytes + 8], &offset, sizeof offset);
  }
  std::string patched = file.substr(0, kHeaderBytes) + table +
                        file.substr(table.size() - kSectionEntryBytes +
                                    kHeaderBytes);
  const uint64_t bytes = patched.size();
  const uint64_t checksum = Checksum64(table.data(), table.size());
  std::memcpy(&patched[28], &sections, sizeof sections);
  std::memcpy(&patched[32], &bytes, sizeof bytes);
  std::memcpy(&patched[40], &checksum, sizeof checksum);
  WriteFile(path, patched);

  data::Dataset loaded;
  EXPECT_EQ(LoadSnapshot(path, {}, &loaded).message(),
            "snapshot: duplicate feature column section");
  LoadOptions core_only;
  core_only.load_features = false;
  Status s = LoadSnapshot(path, core_only, &loaded);
  EXPECT_TRUE(s.ok()) << s.message();
  std::remove(path.c_str());
}

data::Dataset TwoNames() {
  data::Dataset d{data::Schema({"name"})};
  d.Add({{"ada lovelace"}}, 0);
  d.Add({{"ada byron"}}, 0);
  return d;
}

TEST(DuplicateSectionTest, RepeatedFeatureSectionIsRefused) {
  data::Dataset d = TwoNames();
  d.features().TextsFor({"name"});
  ExpectRepeatedLastSectionRefused(d);
}

TEST(DuplicateSectionTest, RepeatedBandSectionIsRefused) {
  data::Dataset d = TwoNames();
  d.features().BandsFor({"name"}, 2, 2, 4, 7);  // written after the text
  ExpectRepeatedLastSectionRefused(d);
}

// A section whose checksums are valid but whose content is not its
// column: the test patches a raw snapshot in place, reseals the section
// and table checksums (store/format.h's layout) and loads it. Each such
// file must fail at load, naming the column, instead of loading as a
// silently different dataset.
class ResealedSectionTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `d` raw (fixed-width values, patchable in place) and returns
  /// a reader over the payload of its section `id`.
  ByteReader WriteAndFind(const data::Dataset& d, SectionId id,
                          const char* tag) {
    path_ = TmpPath(tag);
    WriteOptions options;
    options.compress = false;
    EXPECT_TRUE(WriteSnapshot(path_, d, options).ok());
    file_ = ReadFile(path_);
    uint32_t sections = 0;
    std::memcpy(&sections, &file_[28], sizeof sections);
    for (size_t i = 0; i < sections; ++i) {
      uint32_t section = 0;
      std::memcpy(&section, &file_[Entry(i)], sizeof section);
      if (section == static_cast<uint32_t>(id)) section_ = i;
    }
    EXPECT_NE(section_, SIZE_MAX);
    uint64_t offset = 0;
    uint64_t stored = 0;
    if (section_ != SIZE_MAX) {
      std::memcpy(&offset, &file_[Entry(section_) + 8], sizeof offset);
      std::memcpy(&stored, &file_[Entry(section_) + 16], sizeof stored);
    }
    return ByteReader(file_.data() + offset, stored);
  }

  static size_t Entry(size_t i) {
    return kHeaderBytes + i * kSectionEntryBytes;
  }

  /// File offset of the u64 at `r`'s cursor.
  size_t At(const ByteReader& r) const {
    return static_cast<size_t>(r.cursor() - file_.data());
  }

  /// Swaps the u64 values at file offsets `a` and `b`.
  void SwapU64(size_t a, size_t b) {
    std::swap_ranges(file_.begin() + static_cast<std::ptrdiff_t>(a),
                     file_.begin() + static_cast<std::ptrdiff_t>(a + 8),
                     file_.begin() + static_cast<std::ptrdiff_t>(b));
  }

  /// Rewrites the section's payload checksum and the table checksum,
  /// then loads `file_`.
  Status Load() {
    uint64_t offset = 0;
    uint64_t stored = 0;
    std::memcpy(&offset, &file_[Entry(section_) + 8], sizeof offset);
    std::memcpy(&stored, &file_[Entry(section_) + 16], sizeof stored);
    const uint64_t payload = Checksum64(file_.data() + offset, stored);
    std::memcpy(&file_[Entry(section_) + 32], &payload, sizeof payload);
    uint32_t sections = 0;
    std::memcpy(&sections, &file_[28], sizeof sections);
    const uint64_t table =
        Checksum64(file_.data() + kHeaderBytes, sections * kSectionEntryBytes);
    std::memcpy(&file_[40], &table, sizeof table);
    WriteFile(path_, file_);
    data::Dataset loaded;
    return LoadSnapshot(path_, {}, &loaded);
  }

  std::string path_;
  std::string file_;
  size_t section_ = SIZE_MAX;
};

// A repeated vocabulary string, or a record's ids out of order.
class TokenSectionTest : public ResealedSectionTest {
 protected:
  void SetUp() override {
    data::Dataset d{data::Schema({"name"})};
    d.Add({{"ada lovelace"}}, 0);
    d.Add({{"ada byron"}}, 0);
    d.Add({{"bob"}}, 1);
    d.features().TokensFor({"name"});
    ByteReader r = WriteAndFind(d, SectionId::kTokenColumn, "tokens");

    // Walk the raw payload: attributes, vocabulary, counts, ids.
    std::vector<std::string> attrs;
    ASSERT_TRUE(ReadStringBlock(r, /*compressed=*/false, &attrs).ok());
    uint64_t count = 0;
    ASSERT_TRUE(r.ReadVarint(&count));
    for (uint64_t i = 0; i < count; ++i) {
      std::string_view token;
      ASSERT_TRUE(r.ReadStringView(&token));
      vocabulary_.push_back(
          {static_cast<size_t>(token.data() - file_.data()), token.size()});
    }
    std::vector<uint64_t> counts;
    ASSERT_TRUE(ReadU64Block(r, /*compressed=*/false, &counts).ok());
    ASSERT_TRUE(r.ReadVarint(&count));
    ids_at_ = At(r);
    ASSERT_GE(counts.at(0), 2u);  // record 0 holds two ids to swap
  }

  static void ExpectTokenColumnError(const Status& s) {
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message().rfind("snapshot: token column", 0), 0u)
        << s.message();
  }

  std::vector<std::pair<size_t, size_t>> vocabulary_;  // (file offset, size)
  size_t ids_at_ = 0;  // file offset of the first u64 id
};

TEST_F(TokenSectionTest, ResealedSectionLoads) {
  Status s = Load();
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST_F(TokenSectionTest, RepeatedVocabularyStringIsRefused) {
  // "ada" and "bob" share a length: make the later one a second "ada".
  const auto& first = vocabulary_.front();
  const auto& last = vocabulary_.back();
  ASSERT_EQ(first.second, last.second);
  file_.replace(last.first, last.second, file_.substr(first.first,
                                                      first.second));
  Status s = Load();
  ExpectTokenColumnError(s);
  EXPECT_NE(s.message().find("repeats vocabulary string"), std::string::npos)
      << s.message();
}

TEST_F(TokenSectionTest, RecordIdsOutOfOrderAreRefused) {
  SwapU64(ids_at_, ids_at_ + 8);
  Status s = Load();
  ExpectTokenColumnError(s);
  EXPECT_NE(s.message().find("not strictly ascending"), std::string::npos)
      << s.message();
}

// A record's shingle hashes out of order, or one repeated: harra's set
// union and the tuning Jaccard read these rows as sorted sets.
class ShingleSectionTest : public ResealedSectionTest {
 protected:
  void SetUp() override {
    data::Dataset d{data::Schema({"name"})};
    d.Add({{"ada lovelace"}}, 0);
    d.Add({{"ada lovelac"}}, 0);
    d.features().ShinglesFor({"name"}, 2);
    ByteReader r = WriteAndFind(d, SectionId::kShingleColumn, "shingles");

    // Walk the raw payload: attributes, q, counts, hashes.
    std::vector<std::string> attrs;
    ASSERT_TRUE(ReadStringBlock(r, /*compressed=*/false, &attrs).ok());
    uint64_t q = 0;
    ASSERT_TRUE(r.ReadVarint(&q));
    std::vector<uint64_t> counts;
    ASSERT_TRUE(ReadU64Block(r, /*compressed=*/false, &counts).ok());
    uint64_t count = 0;
    ASSERT_TRUE(r.ReadVarint(&count));
    hashes_at_ = At(r);
    ASSERT_GE(counts.at(0), 2u);  // record 0 holds two hashes to patch
  }

  static void ExpectUnsortedRow(const Status& s) {
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message(),
              "snapshot: shingle column row 0 hashes are not strictly "
              "ascending");
  }

  size_t hashes_at_ = 0;  // file offset of the first u64 hash
};

TEST_F(ShingleSectionTest, ResealedSectionLoads) {
  Status s = Load();
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST_F(ShingleSectionTest, RecordHashesOutOfOrderAreRefused) {
  SwapU64(hashes_at_, hashes_at_ + 8);
  ExpectUnsortedRow(Load());
}

TEST_F(ShingleSectionTest, RepeatedRecordHashIsRefused) {
  file_.replace(hashes_at_ + 8, 8, file_.substr(hashes_at_, 8));
  ExpectUnsortedRow(Load());
}

// A band section whose parameters or empty-record marks disagree with
// its keys: the loader checks them against each other, because the
// marks, not a key value, say which records enter no table.
class BandSectionTest : public ResealedSectionTest {
 protected:
  void SetUp() override {
    data::Dataset d{data::Schema({"name"})};
    d.Add({{"ada lovelace"}}, 0);
    d.Add({{""}}, 1);  // an empty text: marked
    d.Add({{"ada lovelac"}}, 0);
    // k·l = 60,000 rows, near the 65,536 bound, in two-byte varints.
    d.features().BandsFor({"name"}, 2, 200, 300, 7);
    ByteReader r = WriteAndFind(d, SectionId::kBandColumn, "bands");

    // Walk the raw payload: attributes, q, k, l, seed, count, pad, keys,
    // marks.
    std::vector<std::string> attrs;
    ASSERT_TRUE(ReadStringBlock(r, /*compressed=*/false, &attrs).ok());
    uint64_t value = 0;
    ASSERT_TRUE(r.ReadVarint(&value));  // q
    ASSERT_TRUE(r.ReadVarint(&value));  // k
    l_at_ = At(r);
    ASSERT_TRUE(r.ReadVarint(&value));
    ASSERT_EQ(value, 300u);
    ASSERT_EQ(At(r), l_at_ + 2);
    ASSERT_TRUE(r.ReadVarint(&value));  // seed
    ASSERT_TRUE(r.ReadVarint(&value));  // count
    ASSERT_EQ(value, 3u * 300u + 1u);
    uint8_t pad = 0;
    ASSERT_TRUE(r.ReadU8(&pad));
    ASSERT_TRUE(r.Skip(pad));
    marks_at_ = At(r) + 3 * 300 * sizeof(uint64_t);
    uint64_t marks = 0;
    std::memcpy(&marks, &file_[marks_at_], sizeof marks);
    ASSERT_EQ(marks, uint64_t{1} << 1);
  }

  void SetMarks(uint64_t marks) {
    std::memcpy(&file_[marks_at_], &marks, sizeof marks);
  }

  size_t l_at_ = 0;      // file offset of l's two-byte varint
  size_t marks_at_ = 0;  // file offset of the one mark word
};

TEST_F(BandSectionTest, ResealedSectionLoads) {
  Status s = Load();
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST_F(BandSectionTest, TooManyRowsAreRefused) {
  file_[l_at_] = static_cast<char>(0xff);  // l = 16,383: k·l > 65,536
  file_[l_at_ + 1] = 0x7f;
  EXPECT_EQ(Load().message(), "snapshot: band column has corrupt parameters");
}

TEST_F(BandSectionTest, ZeroTablesAreRefused) {
  file_[l_at_] = static_cast<char>(0x80);  // l = 0, still two bytes
  file_[l_at_ + 1] = 0;
  EXPECT_EQ(Load().message(), "snapshot: band column has corrupt parameters");
}

TEST_F(BandSectionTest, AMarkPastTheLastRecordIsRefused) {
  SetMarks((uint64_t{1} << 1) | (uint64_t{1} << 3));
  EXPECT_EQ(Load().message(),
            "snapshot: band column marks a record past the last");
}

TEST_F(BandSectionTest, AMarkedRecordWithKeysIsRefused) {
  SetMarks((uint64_t{1} << 0) | (uint64_t{1} << 1));
  EXPECT_EQ(Load().message(),
            "snapshot: band column record 0 is marked empty but has keys");
}

TEST_F(BandSectionTest, AnUnmarkedRecordWithoutKeysIsRefused) {
  SetMarks(0);
  EXPECT_EQ(Load().message(),
            "snapshot: band column record 1 has no keys but is not marked "
            "empty");
}

}  // namespace
}  // namespace sablock::store
