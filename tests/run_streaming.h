#ifndef SABLOCK_TESTS_RUN_STREAMING_H_
#define SABLOCK_TESTS_RUN_STREAMING_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/blocking.h"
#include "data/record.h"
#include "pipeline/pipeline.h"

namespace sablock {

/// Runs a technique through its streaming Run(dataset, sink) and
/// materializes the emitted blocks.
inline core::BlockCollection RunStreaming(
    const core::BlockingTechnique& technique, const data::Dataset& dataset) {
  core::BlockCollection blocks;
  technique.Run(dataset, blocks);
  return blocks;
}

/// Builds a pipeline spec ("blocker | stage | ...") and collects its
/// blocks. A spec that fails to build is a test failure and yields none.
inline core::BlockCollection RunSpec(const std::string& spec,
                                     const data::Dataset& dataset) {
  std::unique_ptr<pipeline::PipelinedBlocker> built;
  Status status = pipeline::Build(spec, &built);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  if (!status.ok()) return {};
  return RunStreaming(*built, dataset);
}

}  // namespace sablock

#endif  // SABLOCK_TESTS_RUN_STREAMING_H_
