#include "core/block_utils.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace sablock::core {

namespace {

// Union-find with path halving.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

BlockCollection ConnectedComponents(const BlockCollection& blocks,
                                    size_t num_records) {
  DisjointSets sets(num_records);
  for (const Block& b : blocks.blocks()) {
    for (size_t i = 1; i < b.size(); ++i) {
      SABLOCK_DCHECK(b[i] < num_records);
      sets.Union(b[0], b[i]);
    }
  }
  std::unordered_map<uint32_t, std::vector<data::RecordId>> components;
  // Only records that appear in some block belong to a component.
  for (const Block& b : blocks.blocks()) {
    for (data::RecordId id : b) {
      std::vector<data::RecordId>& component = components[sets.Find(id)];
      if (component.empty() || component.back() != id) {
        component.push_back(id);
      }
    }
  }
  BlockCollection out;
  for (auto& [root, component] : components) {
    std::sort(component.begin(), component.end());
    component.erase(std::unique(component.begin(), component.end()),
                    component.end());
    if (component.size() >= 2) out.Add(component);
  }
  return out;
}

}  // namespace sablock::core
