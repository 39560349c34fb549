// No emitted block costs a heap allocation. Each producer below runs on
// a seeded corpus, emitting at least 10,000 blocks into a sink that
// allocates nothing and reads a counter of global operator new calls at
// its first and its last Consume: between the two, the run may allocate
// at most once per 100 blocks — the amortized growth of scratch buffers
// reused across tables or phases, never a buffer per block.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>

#include "api/registry.h"
#include "common/random.h"
#include "core/block_sink.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "engine/sharded_executor.h"
#include "pipeline/pipeline.h"

namespace sablock {

/// Global operator new calls so far: a call that allocates nothing leaves
/// it unchanged.
std::atomic<size_t> g_allocations{0};

namespace {

/// Terminal sink that counts blocks and the allocations made between its
/// first and its last Consume, allocating nothing itself.
class CountingSink : public core::BlockSink {
 public:
  void Consume(core::Block) override {
    const size_t now = g_allocations.load(std::memory_order_relaxed);
    if (blocks_ == 0) first_ = now;
    last_ = now;
    ++blocks_;
  }

  size_t blocks() const { return blocks_; }
  size_t allocations() const { return last_ - first_; }

 private:
  size_t blocks_ = 0;
  size_t first_ = 0;
  size_t last_ = 0;
};

const data::Dataset& Corpus() {
  static const data::Dataset* corpus = [] {
    data::CoraGeneratorConfig config;
    config.num_records = 12000;
    config.num_entities = 1200;
    config.seed = 7;
    return new data::Dataset(data::GenerateCoraLike(config));
  }();
  return *corpus;
}

/// Generated names draw from fixed pools, so token blocking gets its own
/// corpus: 30,000 records of three tokens out of 20,000, most of which
/// post two records or more.
const data::Dataset& TokenCorpus() {
  static const data::Dataset* corpus = [] {
    auto* d = new data::Dataset(data::Schema({"text"}));
    Rng rng(11);
    for (data::EntityId e = 0; e < 30000; ++e) {
      std::string text;
      for (int t = 0; t < 3; ++t) {
        text += " t" + std::to_string(rng.UniformIndex(20000));
      }
      const std::string_view value = text;
      d->AddRow({&value, 1}, e);
    }
    return d;
  }();
  return *corpus;
}

void ExpectUnderOnePerHundredBlocks(const CountingSink& sink) {
  EXPECT_GE(sink.blocks(), 10000u);
  EXPECT_LE(sink.allocations() * 100, sink.blocks())
      << sink.allocations() << " allocations for " << sink.blocks()
      << " blocks";
}

/// Runs `spec` (a technique, or a pipeline of one) on a cold copy of
/// `corpus`, so the feature build happens before the first block.
CountingSink RunSpec(const std::string& spec, const data::Dataset& corpus) {
  std::unique_ptr<pipeline::PipelinedBlocker> blocker;
  const Status status = pipeline::Build(spec, &blocker);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  CountingSink sink;
  if (status.ok()) blocker->Run(corpus.ColdCopy(), sink);
  return sink;
}

TEST(BlockAllocationTest, Generators) {
  for (const char* spec :
       {"lsh:k=2,l=20,q=3,seed=7,attrs=authors+title",
        "sa-lsh:k=2,l=20,q=3,seed=7,w=5,mode=or,domain=bib,"
        "attrs=authors+title",
        "sor-a:window=3,attrs=authors+title"}) {
    SCOPED_TRACE(spec);
    ExpectUnderOnePerHundredBlocks(RunSpec(spec, Corpus()));
  }
  ExpectUnderOnePerHundredBlocks(
      RunSpec("token-blocking:attrs=text", TokenCorpus()));
}

TEST(BlockAllocationTest, MetaAndProgressiveStages) {
  for (const char* tail : {"meta:weight=cbs,prune=wnp",
                           "progressive:sched=ew-cbs,pairs=50000"}) {
    const std::string spec =
        std::string("token-blocking:attrs=authors+title | "
                    "purge:max_size=100 | ") +
        tail;
    SCOPED_TRACE(spec);
    ExpectUnderOnePerHundredBlocks(RunSpec(spec, Corpus()));
  }
}

TEST(BlockAllocationTest, ShardedEngineMerge) {
  std::unique_ptr<core::BlockingTechnique> technique;
  ASSERT_TRUE(api::BlockerRegistry::Global()
                  .Create("lsh:k=2,l=20,q=3,seed=7,attrs=authors+title",
                          &technique)
                  .ok());
  CountingSink sink;
  engine::ShardedExecutor({.threads = 4, .shards = 4})
      .Execute(*technique, Corpus().ColdCopy(), sink);
  ExpectUnderOnePerHundredBlocks(sink);
}

}  // namespace
}  // namespace sablock

// A replacement pair over malloc and free, counting the calls. GCC cannot
// see that the pair matches once it inlines the delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  sablock::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// std::stable_sort's temporary buffer comes from the nothrow form.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  sablock::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
