#ifndef SABLOCK_PIPELINE_STAGES_H_
#define SABLOCK_PIPELINE_STAGES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/param_map.h"
#include "core/blocking.h"
#include "pipeline/meta_graph.h"
#include "pipeline/stage.h"

namespace sablock::pipeline {

/// `purge:max_size=` — block purging (streaming): drops every block with
/// more than `max_size` records. The standard first step after token
/// blocking, keeping the downstream blocking graph tractable.
class PurgeStage : public PipelineStage {
 public:
  explicit PurgeStage(uint64_t max_size) : max_size_(max_size) {}

  std::string spec_name() const override { return "purge"; }
  std::string name() const override;
  std::unique_ptr<PipelineStage> Clone() const override {
    return std::make_unique<PurgeStage>(max_size_);
  }

  void Consume(core::Block block) override {
    if (block.size() > max_size_) {
      ++purged_blocks_;
      return;
    }
    next_->Consume(std::move(block));
  }

  /// Blocks dropped so far.
  uint64_t purged_blocks() const { return purged_blocks_; }

 private:
  uint64_t max_size_;
  uint64_t purged_blocks_ = 0;
};

/// `filter:min_size=,top_frac=` — block filtering. `min_size` streams:
/// blocks with fewer records are dropped as they pass. `top_frac` < 1
/// turns the stage into a barrier implementing the survey's block
/// filtering: buffer everything, keep the ⌊top_frac·n⌋ blocks with the
/// fewest comparisons (smallest blocks carry the highest pair precision),
/// and emit the survivors in arrival order on Flush().
class FilterStage : public PipelineStage {
 public:
  FilterStage(uint64_t min_size, double top_frac)
      : min_size_(min_size), top_frac_(top_frac) {}

  std::string spec_name() const override { return "filter"; }
  std::string name() const override;
  std::unique_ptr<PipelineStage> Clone() const override {
    return std::make_unique<FilterStage>(min_size_, top_frac_);
  }

  void Consume(core::Block block) override;
  bool Done() const override;
  void Flush() override;

 private:
  uint64_t min_size_;
  double top_frac_;
  std::vector<core::Block> buffered_;  // barrier mode only
};

/// `cap:budget=` — comparison budget (streaming): a core::BudgetedSink
/// over a `pairs=budget` meter as a pipeline stage. Forwards blocks until
/// `budget` redundancy-counting comparisons Σ|b|(|b|-1)/2 have passed,
/// then reports Done so the producing technique stops early; the block
/// crossing the budget is still forwarded. The BudgetedSink over the
/// downstream sink is created on first use, since the downstream sink is
/// only known after Attach.
class CapStage : public PipelineStage {
 public:
  explicit CapStage(uint64_t budget) : budget_(budget) {}

  std::string spec_name() const override { return "cap"; }
  std::string name() const override;
  std::unique_ptr<PipelineStage> Clone() const override {
    return std::make_unique<CapStage>(budget_);
  }

  void Consume(core::Block block) override {
    if (!capped_) {
      capped_.emplace(*next_, std::make_shared<core::BudgetMeter>(
                                  core::Budget{.pairs = budget_}));
    }
    capped_->Consume(std::move(block));
  }

  bool Done() const override {
    return (capped_ && capped_->Done()) || next_->Done();
  }

  /// Comparisons forwarded so far.
  uint64_t comparisons() const {
    return capped_ ? capped_->meter()->Spent() : 0;
  }
  /// Blocks received after the budget was exhausted.
  uint64_t dropped_blocks() const {
    return capped_ ? capped_->dropped_blocks() : 0;
  }

 private:
  uint64_t budget_;
  std::optional<core::BudgetedSink> capped_;
};

/// Reads a meta-blocking weighting (arcs|cbs|ecbs|js|ejs, default cbs)
/// or pruning (wep|cep|wnp|cnp, default wep) spec parameter. The `meta`
/// stage reads them as weight=/prune=, the `meta` technique as
/// weighting=/pruning=.
MetaWeighting GetMetaWeighting(api::ParamMap& p, const std::string& key);
MetaPruning GetMetaPruning(api::ParamMap& p, const std::string& key);

/// `meta:weight=,prune=` — meta-blocking's graph phase as a barrier
/// stage: buffers the whole input block collection, and on Flush() builds
/// the blocking graph, weights its edges, prunes, and streams the
/// retained comparisons downstream as 2-record blocks. Composable with
/// any generator — the classic recipe is `token-blocking | purge | meta`,
/// but every registered technique slots in.
///
/// The flush sorts the buffered blocks into canonical content order
/// before pruning, so the output depends only on the *set* of input
/// blocks — not on arrival order. Floating-point edge-weight
/// accumulation is order sensitive, and without the sort a different
/// arrival order (a sharded run's, say) could flip a threshold-straddling
/// edge by an ULP.
class MetaStage : public PipelineStage {
 public:
  MetaStage(MetaWeighting weighting, MetaPruning pruning)
      : weighting_(weighting), pruning_(pruning) {}

  std::string spec_name() const override { return "meta"; }
  std::string name() const override;
  std::unique_ptr<PipelineStage> Clone() const override {
    return std::make_unique<MetaStage>(weighting_, pruning_);
  }

  void Consume(core::Block block) override {
    buffered_.push_back(std::move(block));
  }

  /// Never signals Done upstream: the graph needs the full input even
  /// when downstream has already stopped accepting (the flush's MetaPrune
  /// honours downstream backpressure instead).
  bool Done() const override { return false; }

  void Flush() override;

 private:
  MetaWeighting weighting_;
  MetaPruning pruning_;
  std::vector<core::Block> buffered_;
};

}  // namespace sablock::pipeline

#endif  // SABLOCK_PIPELINE_STAGES_H_
