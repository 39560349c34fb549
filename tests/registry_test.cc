// Tests for the blocker registry: spec parsing, the round trip from every
// registered name to a constructed technique, and error reporting for
// malformed specs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/blocker_spec.h"
#include "api/registry.h"
#include "index/index_registry.h"
#include "pipeline/stage_registry.h"

namespace sablock::api {
namespace {

using core::BlockingTechnique;

std::unique_ptr<BlockingTechnique> CreateOk(const std::string& spec) {
  std::unique_ptr<BlockingTechnique> technique;
  Status status = BlockerRegistry::Global().Create(spec, &technique);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return technique;
}

Status CreateErr(const std::string& spec) {
  std::unique_ptr<BlockingTechnique> technique;
  Status status = BlockerRegistry::Global().Create(spec, &technique);
  EXPECT_FALSE(status.ok()) << spec << " unexpectedly succeeded";
  EXPECT_EQ(technique, nullptr);
  return status;
}

TEST(BlockerSpecTest, ParsesNameAndParams) {
  BlockerSpec spec;
  ASSERT_TRUE(
      BlockerSpec::Parse("sa-lsh:k=4,l=63,w=2,mode=or", &spec).ok());
  EXPECT_EQ(spec.name, "sa-lsh");
  EXPECT_TRUE(spec.params.Has("k"));
  EXPECT_EQ(spec.params.GetInt("k", 0), 4);
  EXPECT_EQ(spec.params.GetInt("l", 0), 63);
}

TEST(BlockerSpecTest, NameOnlyAndWhitespaceTolerance) {
  BlockerSpec spec;
  ASSERT_TRUE(BlockerSpec::Parse("tblo", &spec).ok());
  EXPECT_EQ(spec.name, "tblo");

  ASSERT_TRUE(BlockerSpec::Parse("  LSH : k = 4 , l = 2 ", &spec).ok());
  EXPECT_EQ(spec.name, "lsh");  // names are lowercased
  EXPECT_EQ(spec.params.GetInt("k", 0), 4);
  EXPECT_EQ(spec.params.GetInt("l", 0), 2);
}

TEST(ParamMapTest, RejectsDuplicateKeysWithClearError) {
  // Silent last-write-wins would make "k=4,k=9" run with k=9 and no
  // warning; the parse must fail and name the offending key instead.
  ParamMap params;
  Status status = ParamMap::Parse("k=4,l=2,k=9", &params);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'k'"), std::string::npos);
  EXPECT_NE(status.message().find("more than once"), std::string::npos);
  // Same key with the same value is still a duplicate.
  EXPECT_FALSE(ParamMap::Parse("k=4,k=4", &params).ok());
  // Whitespace around the key does not disguise the duplicate.
  EXPECT_FALSE(ParamMap::Parse("k=4, k =9", &params).ok());
}

TEST(BlockerSpecTest, RejectsMalformedSpecs) {
  BlockerSpec spec;
  EXPECT_FALSE(BlockerSpec::Parse("", &spec).ok());
  EXPECT_FALSE(BlockerSpec::Parse(":k=1", &spec).ok());
  EXPECT_FALSE(BlockerSpec::Parse("lsh:k", &spec).ok());
  EXPECT_FALSE(BlockerSpec::Parse("lsh:=4", &spec).ok());
  EXPECT_FALSE(BlockerSpec::Parse("lsh:k=1,k=2", &spec).ok());
}

TEST(RegistryTest, EveryRegisteredNameRoundTrips) {
  const BlockerRegistry& registry = BlockerRegistry::Global();
  std::vector<BlockerInfo> infos = registry.List();
  ASSERT_GE(infos.size(), 18u);
  for (const BlockerInfo& info : infos) {
    // Constructing from the bare name (all defaults; sor-mp needs at least
    // one attribute) must succeed...
    std::string spec = info.name;
    if (info.name == "sor-mp") spec += ":attrs=a+b";
    std::unique_ptr<BlockingTechnique> technique = CreateOk(spec);
    ASSERT_NE(technique, nullptr) << info.name;
    // ...with a non-empty, stable display name.
    std::string display = technique->name();
    EXPECT_FALSE(display.empty()) << info.name;
    EXPECT_EQ(CreateOk(spec)->name(), display) << info.name;
    // Aliases resolve to the same factory.
    for (const std::string& alias : info.aliases) {
      EXPECT_TRUE(registry.Contains(alias)) << alias;
      std::string alias_spec = alias;
      if (info.name == "sor-mp") alias_spec += ":attrs=a+b";
      EXPECT_EQ(CreateOk(alias_spec)->name(), display) << alias;
    }
  }
}

TEST(RegistryTest, NamesAreCaseInsensitive) {
  EXPECT_EQ(CreateOk("TBLO")->name(), CreateOk("tblo")->name());
  EXPECT_TRUE(BlockerRegistry::Global().Contains("SA-LSH"));

  // A programmatically built spec (bypassing Parse's lowercasing) must
  // resolve too.
  BlockerSpec spec;
  spec.name = "SA-LSH";
  std::unique_ptr<BlockingTechnique> technique;
  EXPECT_TRUE(
      BlockerRegistry::Global().Create(std::move(spec), &technique).ok());
  ASSERT_NE(technique, nullptr);
}

TEST(RegistryTest, UnknownTechniqueListsKnownNames) {
  Status status = CreateErr("definitely-not-a-blocker");
  EXPECT_NE(status.message().find("unknown technique"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("sa-lsh"), std::string::npos)
      << "error should list the known names: " << status.message();
}

TEST(RegistryTest, TypeErrorsNameTheParamAndValue) {
  Status status = CreateErr("sa-lsh:k=banana");
  EXPECT_NE(status.message().find("'k'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("banana"), std::string::npos)
      << status.message();

  status = CreateErr("cath:loose=warm");
  EXPECT_NE(status.message().find("'loose'"), std::string::npos)
      << status.message();
}

TEST(RegistryTest, UnknownKeysAreReported) {
  Status status = CreateErr("lsh:k=4,bogus=1");
  EXPECT_NE(status.message().find("bogus"), std::string::npos)
      << status.message();
}

TEST(RegistryTest, IntParamsRejectOutOfRangeValues) {
  Status status = CreateErr("lsh:l=4294967297");  // 2^32 + 1
  EXPECT_NE(status.message().find("'l'"), std::string::npos)
      << status.message();
}

TEST(RegistryTest, EnumParamsRejectBadSpellings) {
  Status status = CreateErr("sa-lsh:mode=xor");
  EXPECT_NE(status.message().find("'mode'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("or|and"), std::string::npos)
      << status.message();
  CreateErr("cath:sim=cosine");
  CreateErr("asor:sim=nope");
}

TEST(RegistryTest, RangeErrorsAreDescriptive) {
  EXPECT_NE(CreateErr("sor-a:window=1").message().find("window"),
            std::string::npos);
  EXPECT_NE(CreateErr("qgram:threshold=1.5").message().find("threshold"),
            std::string::npos);
  EXPECT_NE(CreateErr("cann:n1=2,n2=5").message().find("n2"),
            std::string::npos);
  EXPECT_NE(CreateErr("harra:iterations=0").message().find("iterations"),
            std::string::npos);
}

TEST(RegistryTest, NonFiniteNumbersAreTypeErrors) {
  // NaN slips past every range check of the form `x <= 0 || x > 1`; each
  // of these specs used to reach a constructor CHECK or run degenerate.
  const std::pair<const char*, const char*> cases[] = {
      {"qgram:threshold=nan", "threshold"},
      {"stmt:threshold=nan", "threshold"},
      {"harra:merge-threshold=nan", "merge-threshold"},
      {"cath:loose=nan", "loose"},
      {"cath:tight=nan", "tight"},
      {"asor:threshold=nan", "threshold"}};
  for (const auto& [spec, key] : cases) {
    Status status = CreateErr(spec);
    EXPECT_NE(status.message().find(std::string("'") + key + "'"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("expected number"), std::string::npos)
        << status.message();
  }
  std::unique_ptr<pipeline::PipelineStage> stage;
  Status status =
      pipeline::StageRegistry::Global().Create("filter:top_frac=nan", &stage);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(stage, nullptr);
  EXPECT_NE(status.message().find("'top_frac'"), std::string::npos)
      << status.message();
}

TEST(RegistryTest, LshRowCountOverflowIsARangeError) {
  // k·l is the count of minhash rows per record; every LSH-family entry
  // on both registries reads it through one checked reader.
  for (const char* spec :
       {"lsh:l=2000000000", "sa-lsh:k=2147483647", "mp-lsh:k=2147483647",
        "forest:k=65536,l=65536", "harra:l=2147483647"}) {
    EXPECT_NE(CreateErr(spec).message().find("'k*l'"), std::string::npos)
        << spec;
  }
  for (const char* spec : {"lsh:l=2000000000", "sa-lsh:k=2147483647"}) {
    std::unique_ptr<index::IncrementalIndex> index;
    Status status = index::IndexRegistry::Global().Create(spec, &index);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_EQ(index, nullptr);
    EXPECT_NE(status.message().find("'k*l'"), std::string::npos)
        << status.message();
  }
}

TEST(RegistryTest, MinhashRowsPerRecordAreBounded) {
  // In int range, yet 2^31 minhash rows per record: refused at Create on
  // both registries, before any product (an index's MinHasher included)
  // is built. Only Create runs here; no spec below is run.
  EXPECT_EQ(CreateErr("lsh:k=1,l=2147483647").message(),
            "lsh: param 'k*l': must be <= 65536");
  std::unique_ptr<index::IncrementalIndex> index;
  Status status =
      index::IndexRegistry::Global().Create("lsh:k=1,l=2147483647", &index);
  EXPECT_EQ(status.message(), "lsh: param 'k*l': must be <= 65536");
  EXPECT_EQ(index, nullptr);
  // The forest minhashes depth·l rows, whatever its k.
  EXPECT_EQ(CreateErr("forest:depth=1073741824,l=2").message(),
            "forest: param 'depth*l': must be <= 65536");
  // The bound itself is accepted.
  EXPECT_EQ(CreateOk("lsh:k=1,l=65536")->name(), "LSH(k=1,l=65536)");
  EXPECT_NE(CreateOk("forest:k=1,depth=16,l=4096"), nullptr);
}

TEST(RegistryTest, EveryIndexSharesItsTechniqueGrammar) {
  // One spec string describes a batch technique and its incremental
  // index: same name, aliases and documented parameters on both sides.
  const BlockerRegistry& techniques = BlockerRegistry::Global();
  std::vector<BlockerInfo> indexes = index::IndexRegistry::Global().List();
  ASSERT_EQ(indexes.size(), 4u);
  for (const BlockerInfo& index_info : indexes) {
    bool found = false;
    for (const BlockerInfo& info : techniques.List()) {
      if (info.name != index_info.name) continue;
      found = true;
      EXPECT_EQ(info.aliases, index_info.aliases) << info.name;
      EXPECT_EQ(info.params, index_info.params) << info.name;
      EXPECT_NE(info.summary, index_info.summary) << info.name;
    }
    EXPECT_TRUE(found) << index_info.name << " has no batch technique";
  }
}

TEST(RegistryTest, SpecParamsDriveTheTechnique) {
  EXPECT_EQ(CreateOk("lsh:k=9,l=15")->name(), "LSH(k=9,l=15)");
  EXPECT_EQ(CreateOk("sor-a:window=7")->name(), "SorA(w=7)");
  EXPECT_EQ(CreateOk("sa-lsh:k=4,l=63,w=2,mode=and")->name(),
            "SA-LSH(k=4,l=63,w=2,AND)");
}

TEST(RegistryTest, SaLshDefaultsAttrsFromDomain) {
  // The paper's blocking attributes come with the domain; an sa-lsh spec
  // without attrs= must still construct and run.
  std::unique_ptr<BlockingTechnique> technique =
      CreateOk("sa-lsh:domain=voter,w=12");
  ASSERT_NE(technique, nullptr);
  EXPECT_NE(technique->name().find("SA-LSH"), std::string::npos);
}

}  // namespace
}  // namespace sablock::api
