// Sweeps every spec-string entry point with hostile parameter values:
// every registered technique, stage and index, each documented parameter,
// and a fixed list of edge values (non-finite, negative, zero, int and
// uint64 overflow, denormal, empty, non-numeric). Construction must return
// a Status or a product and never abort. The Budget::Parse terms and
// ExecutionSpec::Parse take the same values.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/registry.h"
#include "core/budget.h"
#include "engine/execution_spec.h"
#include "engine/sharded_executor.h"
#include "engine/thread_pool.h"
#include "index/index_registry.h"
#include "pipeline/stage_registry.h"

namespace sablock {
namespace {

const char* const kValues[] = {
    "nan",        "inf",        "-inf",       "-1", "0", "1e309", "1e-320",
    "2147483647", "2147483648", "4294967297", "18446744073709551616", "",
    "abc"};

/// Builds `name:param=value` for every documented parameter and value;
/// returns how many specs were tried.
template <typename Product>
int Sweep(const api::Registry<Product>& registry) {
  int tried = 0;
  for (const api::BlockerInfo& info : registry.List()) {
    for (const api::ParamDoc& param : info.params) {
      for (const char* value : kValues) {
        const std::string spec = info.name + ":" + param.name + "=" + value;
        std::unique_ptr<Product> product;
        Status status = registry.Create(spec, &product);
        EXPECT_EQ(status.ok(), product != nullptr) << spec;
        if (!status.ok()) {
          // The diagnostic names the entry it came from.
          EXPECT_EQ(status.message().rfind(info.name + ": ", 0), 0u)
              << spec << " -> " << status.message();
        }
        ++tried;
      }
    }
  }
  return tried;
}

TEST(SpecSweepTest, EveryTechniqueParameterAndValue) {
  EXPECT_GT(Sweep(api::BlockerRegistry::Global()), 1000);
}

TEST(SpecSweepTest, EveryStageParameterAndValue) {
  EXPECT_GT(Sweep(pipeline::StageRegistry::Global()), 100);
}

TEST(SpecSweepTest, EveryIndexParameterAndValue) {
  EXPECT_GT(Sweep(index::IndexRegistry::Global()), 200);
}

TEST(SpecSweepTest, BudgetTerms) {
  for (const char* term : {"pairs", "seconds", "recall-target"}) {
    for (const char* value : kValues) {
      const std::string spec = std::string(term) + "=" + value;
      core::Budget budget;
      Status status = core::Budget::Parse(spec, &budget);
      if (!status.ok()) {
        EXPECT_NE(status.message().find(term), std::string::npos)
            << spec << " -> " << status.message();
        continue;
      }
      // An accepted budget round-trips, and a fresh meter over it has not
      // tripped before the first pair (sub-second deadlines aside).
      core::Budget again;
      EXPECT_TRUE(core::Budget::Parse(budget.ToString(), &again).ok())
          << spec << " -> " << budget.ToString();
      core::BudgetMeter meter(budget);
      if (budget.seconds == 0.0 || budget.seconds >= 1.0) {
        EXPECT_FALSE(meter.Exhausted()) << spec;
        EXPECT_TRUE(meter.Spend(1)) << spec;
      }
    }
  }
}

TEST(SpecSweepTest, ExecutionSpecTerms) {
  for (const char* key : {"threads", "shards", "merge"}) {
    for (const char* value : kValues) {
      const std::string text = std::string(key) + "=" + value;
      engine::ExecutionSpec spec;
      Status status = engine::ExecutionSpec::Parse(text, &spec);
      if (!status.ok()) {
        EXPECT_NE(status.message().find(key), std::string::npos)
            << text << " -> " << status.message();
        continue;
      }
      // Whatever parses is a valid executor configuration, with no more
      // threads than a pool may hold.
      EXPECT_LE(spec.threads, engine::ThreadPool::kMaxThreads) << text;
      engine::ShardedExecutor executor(spec);
      EXPECT_GE(executor.spec().ResolvedShards(), 1) << text;
    }
  }
}

}  // namespace
}  // namespace sablock
