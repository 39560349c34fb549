// Tests for the connected-components closure over a block collection.

#include <gtest/gtest.h>

#include "collect_blocks.h"
#include "core/block_utils.h"

namespace sablock::core {
namespace {

TEST(ConnectedComponentsTest, MergesOverlappingBlocks) {
  BlockCollection c;
  c.Add({0, 1});
  c.Add({1, 2});
  c.Add({4, 5});
  BlockCollection components = ConnectedComponents(c, 6);
  EXPECT_EQ(components.NumBlocks(), 2u);
  EXPECT_TRUE(components.InSameBlock(0, 2));  // transitive closure
  EXPECT_TRUE(components.InSameBlock(4, 5));
  EXPECT_FALSE(components.InSameBlock(0, 4));
}

TEST(ConnectedComponentsTest, DropsSingletonsAndUnblockedRecords) {
  BlockCollection c;
  c.Add({3});
  c.Add({0, 1});
  BlockCollection components = ConnectedComponents(c, 10);
  EXPECT_EQ(components.NumBlocks(), 1u);
  EXPECT_EQ(AsVectors(components)[0], (Ids{0, 1}));
}

TEST(ConnectedComponentsTest, EmptyInput) {
  EXPECT_EQ(ConnectedComponents(BlockCollection{}, 5).NumBlocks(), 0u);
}

}  // namespace
}  // namespace sablock::core
