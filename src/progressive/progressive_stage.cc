#include "progressive/progressive_stage.h"

#include <utility>

#include "obs/metrics.h"

namespace sablock::progressive {

std::string ProgressiveStage::name() const {
  std::string label = "progressive(sched=" + scheduler_->name();
  std::string budget = budget_.ToString();
  if (!budget.empty()) label += "," + budget;
  return label + ")";
}

void ProgressiveStage::Flush() {
  if (meter_ == nullptr) Arm();  // no block arrived
  // Canonical content order, for the same reason as MetaStage: the
  // schedulers' tie-breaks are deterministic given a block order, and
  // sorting erases the engine's scheduling-dependent arrival order.
  buffered_.SortBlocks();
  std::vector<core::CandidatePair> ranked =
      scheduler_->Schedule(dataset_->size(), buffered_, budget_.pairs);
  buffered_ = {};

  const bool track_recall = meter_->budget().recall_target > 0.0;
  if (track_recall) {
    meter_->ConfigureRecall(dataset_->CountTrueMatchPairs());
  }

  pairs_emitted_ = 0;
  for (const core::CandidatePair& pair : ranked) {
    if (next_->Done() || !meter_->Spend(1)) break;
    const data::RecordId ids[] = {pair.a, pair.b};
    next_->Consume(ids);
    ++pairs_emitted_;
    if (track_recall && dataset_->IsMatch(pair.a, pair.b)) {
      meter_->NoteMatch();
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry
      .GetCounter("progressive_pairs_emitted",
                  "candidate pairs emitted by progressive stages", "sched",
                  scheduler_->name())
      ->Add(pairs_emitted_);
  if (meter_->Exhausted()) {
    registry
        .GetCounter("progressive_budget_exhausted",
                    "progressive runs that hit a budget limit", "reason",
                    meter_->ExhaustedReason())
        ->Add(1);
  }

  next_->Flush();
}

}  // namespace sablock::progressive
