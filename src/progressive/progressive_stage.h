#ifndef SABLOCK_PROGRESSIVE_PROGRESSIVE_STAGE_H_
#define SABLOCK_PROGRESSIVE_PROGRESSIVE_STAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/block_sink.h"
#include "core/budget.h"
#include "pipeline/stage.h"
#include "progressive/scheduler.h"

namespace sablock::progressive {

/// `progressive:sched=,pairs=,seconds=,recall-target=,seed=` — the
/// pay-as-you-go barrier stage: buffers the upstream block stream, ranks
/// every distinct candidate pair best-first with a PairScheduler, and
/// emits the ranked pairs as 2-record blocks downstream until the Budget
/// is exhausted. With an unlimited budget the output is exactly the
/// input's distinct-pair set (progressive_golden_test pins this against
/// the batch pipeline for every registry technique); with a budget it is
/// the highest-value prefix of that set.
///
/// Like MetaStage, the flush sorts the buffered blocks into canonical
/// content order first, so the emitted order depends only on the *set*
/// of input blocks — never on the engine's scheduling — and progressive
/// output is identical at any thread count.
///
/// The budget countdown is a BudgetMeter armed at the stage's first
/// Consume() (or at Flush() when no block arrives), so a `seconds=`
/// deadline covers buffering, scheduling and emission — the whole wait.
/// The pair limit also reaches the scheduler, which then ranks only the
/// best `pairs` candidates instead of the whole universe. recall-target
/// budgets arm themselves from the dataset's ground truth at flush time
/// (datasets without ground truth never trip that limit).
class ProgressiveStage : public pipeline::PipelineStage {
 public:
  ProgressiveStage(std::shared_ptr<const PairScheduler> scheduler,
                   core::Budget budget, uint64_t seed)
      : scheduler_(std::move(scheduler)), budget_(budget), seed_(seed) {}

  std::string spec_name() const override { return "progressive"; }
  std::string name() const override;
  std::unique_ptr<PipelineStage> Clone() const override {
    return std::make_unique<ProgressiveStage>(scheduler_, budget_, seed_);
  }

  void Consume(core::Block block) override {
    if (meter_ == nullptr) Arm();
    buffered_.push_back(std::move(block));
  }

  /// Never signals Done upstream: ranking needs the full input stream
  /// even when downstream has already stopped accepting.
  bool Done() const override { return false; }

  void Flush() override;

  /// The run's meter; null before the first Consume() or Flush().
  const std::shared_ptr<core::BudgetMeter>& meter() const { return meter_; }

  const core::Budget& budget() const { return budget_; }
  const PairScheduler& scheduler() const { return *scheduler_; }

  /// Pairs emitted downstream by the last flush.
  uint64_t pairs_emitted() const { return pairs_emitted_; }

 private:
  void Arm() { meter_ = std::make_shared<core::BudgetMeter>(budget_); }

  std::shared_ptr<const PairScheduler> scheduler_;
  core::Budget budget_;
  uint64_t seed_;
  std::shared_ptr<core::BudgetMeter> meter_;
  uint64_t pairs_emitted_ = 0;
  std::vector<core::Block> buffered_;
};

}  // namespace sablock::progressive

#endif  // SABLOCK_PROGRESSIVE_PROGRESSIVE_STAGE_H_
