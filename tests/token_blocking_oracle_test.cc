// A from-definition oracle for token blocking and its incremental index.
// The reference works from the technique's definition with strings and a
// std::map, and no FeatureStore: for each distinct token of
// SplitWords(DefinedText(d, id, attrs)), the ascending ids of the
// records that hold it, kept when at least 2 records share it, sorted by
// content. Whole block sequences are compared against `token-blocking` on
// a parsed and on a snapshot-loaded dataset, and against the `token`
// index after LoadDataset and after seeded removals; the index's Query is
// compared with the reference's union of postings.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.h"
#include "collect_blocks.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "data/csv.h"
#include "data/record.h"
#include "gtest/gtest.h"
#include "index/incremental_index.h"
#include "index/index_registry.h"
#include "reference_text.h"
#include "store/snapshot.h"
#include "store/snapshot_writer.h"

namespace sablock {
namespace {

const std::vector<std::string> kAttrs = {"authors", "title"};
constexpr char kTechnique[] = "token-blocking:attrs=authors+title";
constexpr char kIndex[] = "token:attrs=authors+title";

std::string TmpPath(const char* tag) {
  return "/tmp/sablock-token-oracle-" + std::to_string(::getpid()) + "-" +
         tag;
}

/// ASCII uppercase copy.
std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

data::Dataset Records() {
  data::CoraGeneratorConfig config;
  config.num_entities = 30;
  config.num_records = 300;
  config.seed = 23;
  return data::GenerateCoraLike(config);
}

/// The distinct tokens of one record of `d`.
std::set<std::string> RecordTokens(const data::Dataset& d, data::RecordId id) {
  const std::vector<std::string> words =
      SplitWords(DefinedText(d, id, kAttrs));
  return {words.begin(), words.end()};
}

/// Token postings of the records of `d` with live[id] set.
std::map<std::string, std::vector<data::RecordId>> Postings(
    const data::Dataset& d, const std::vector<bool>& live) {
  std::map<std::string, std::vector<data::RecordId>> postings;
  for (data::RecordId id = 0; id < d.size(); ++id) {
    if (!live[id]) continue;
    for (const std::string& token : RecordTokens(d, id)) {
      postings[token].push_back(id);
    }
  }
  return postings;
}

std::vector<Ids> OracleBlocks(const data::Dataset& d,
                              const std::vector<bool>& live) {
  std::vector<Ids> blocks;
  for (auto& [token, ids] : Postings(d, live)) {
    if (ids.size() >= 2) blocks.push_back(ids);
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

std::vector<Ids> RunTechnique(const data::Dataset& d) {
  std::unique_ptr<core::BlockingTechnique> technique;
  Status s = api::BlockerRegistry::Global().Create(kTechnique, &technique);
  EXPECT_TRUE(s.ok()) << s.message();
  core::BlockCollection blocks;
  technique->Run(d, blocks);
  return AsVectors(blocks);
}

std::unique_ptr<index::IncrementalIndex> MakeIndex() {
  std::unique_ptr<index::IncrementalIndex> idx;
  Status s = index::IndexRegistry::Global().Create(kIndex, &idx);
  EXPECT_TRUE(s.ok()) << s.message();
  return idx;
}

TEST(TokenBlockingOracleTest, TechniqueOnAParsedDataset) {
  const data::Dataset generated = Records();
  const std::string path = TmpPath("parsed.csv");
  ASSERT_TRUE(data::WriteCsv(path, generated, "entity").ok());
  data::Dataset parsed;
  Status s = data::ReadCsv(path, "entity", &parsed);
  std::remove(path.c_str());
  ASSERT_TRUE(s.ok()) << s.message();
  const std::vector<Ids> oracle =
      OracleBlocks(parsed, std::vector<bool>(parsed.size(), true));
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(RunTechnique(parsed), oracle);
}

TEST(TokenBlockingOracleTest, TechniqueOnASnapshotLoadedDataset) {
  for (bool compress : {true, false}) {
    const data::Dataset original = Records();
    RunTechnique(original);  // warms the token column the snapshot keeps
    const std::string path = TmpPath("loaded.sab");
    store::WriteOptions options;
    options.compress = compress;
    ASSERT_TRUE(store::WriteSnapshot(path, original, options).ok());
    data::Dataset loaded;
    store::SnapshotInfo info;
    Status s = store::LoadSnapshot(path, {}, &loaded, &info);
    std::remove(path.c_str());
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(info.feature_sections, 2u);  // text and token columns
    EXPECT_EQ(RunTechnique(loaded),
              OracleBlocks(loaded, std::vector<bool>(loaded.size(), true)))
        << "compress=" << compress;
  }
}

TEST(TokenBlockingOracleTest, IndexAfterLoadAndSeededRemovals) {
  const data::Dataset d = Records();
  std::unique_ptr<index::IncrementalIndex> idx = MakeIndex();
  index::LoadDataset(*idx, d);
  std::vector<bool> live(d.size(), true);
  EXPECT_EQ(AsVectors(index::CollectBlocks(*idx)), OracleBlocks(d, live));

  Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      const auto id = static_cast<data::RecordId>(rng.UniformIndex(d.size()));
      EXPECT_EQ(idx->Remove(id), live[id]) << id;
      live[id] = false;
    }
    EXPECT_EQ(idx->size(),
              static_cast<size_t>(std::count(live.begin(), live.end(), true)));
    EXPECT_EQ(AsVectors(index::CollectBlocks(*idx)), OracleBlocks(d, live))
        << "round " << round;
  }
}

TEST(TokenBlockingOracleTest, QueryIsTheUnionOfTheProbesPostings) {
  const data::Dataset d = Records();
  std::unique_ptr<index::IncrementalIndex> idx = MakeIndex();
  index::LoadDataset(*idx, d);
  std::vector<bool> live(d.size(), true);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const auto id = static_cast<data::RecordId>(rng.UniformIndex(d.size()));
    idx->Remove(id);
    live[id] = false;
  }
  const std::map<std::string, std::vector<data::RecordId>> postings =
      Postings(d, live);

  // Probes built from records: mixed case, repeated and unknown tokens,
  // punctuation, an empty attribute, and probes with no known token.
  data::Dataset probes(d.schema());
  for (int i = 0; i < 80; ++i) {
    const auto source =
        static_cast<data::RecordId>(rng.UniformIndex(d.size()));
    std::vector<std::string> values(d.Values(source).begin(),
                                    d.Values(source).end());
    std::string& authors = values[static_cast<size_t>(
        d.schema().IndexOf("authors"))];
    std::string& title =
        values[static_cast<size_t>(d.schema().IndexOf("title"))];
    switch (i % 4) {
      case 0:
        authors = ToUpper(authors);
        break;
      case 1:
        title += " " + title + "; zzqx" + std::to_string(i) + " ZZQX" +
                 std::to_string(i);
        break;
      case 2:
        authors.clear();
        title = "Unheard-of, " + ToLower(title);
        break;
      default:
        authors = "qqq" + std::to_string(i);
        title = "!!! xyzzy XYZZY";
        break;
    }
    const std::vector<std::string_view> views(values.begin(), values.end());
    const data::RecordId probe = probes.AddRow(views);

    std::set<data::RecordId> expected;
    for (const std::string& token : RecordTokens(probes, probe)) {
      auto it = postings.find(token);
      if (it == postings.end()) continue;
      expected.insert(it->second.begin(), it->second.end());
    }
    EXPECT_EQ(idx->Query(views),
              std::vector<data::RecordId>(expected.begin(), expected.end()))
        << "probe " << i;
  }
}

}  // namespace
}  // namespace sablock
