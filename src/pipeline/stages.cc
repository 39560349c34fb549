#include "pipeline/stages.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/budget.h"
#include "pipeline/stage_registry.h"
#include "progressive/progressive_stage.h"
#include "progressive/scheduler.h"

namespace sablock::pipeline {

std::string PurgeStage::name() const {
  return "purge(max_size=" + std::to_string(max_size_) + ")";
}

std::string FilterStage::name() const {
  std::string out = "filter(min_size=" + std::to_string(min_size_);
  if (top_frac_ < 1.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",top_frac=%g", top_frac_);
    out += buf;
  }
  return out + ")";
}

std::string CapStage::name() const {
  return "cap(budget=" + std::to_string(budget_) + ")";
}

std::string MetaStage::name() const {
  return std::string("meta(") + MetaPruningName(pruning_) + "+" +
         MetaWeightingName(weighting_) + ")";
}

MetaWeighting GetMetaWeighting(api::ParamMap& p, const std::string& key) {
  return p.GetEnum<MetaWeighting>(key, MetaWeighting::kCbs,
                                  {{"arcs", MetaWeighting::kArcs},
                                   {"cbs", MetaWeighting::kCbs},
                                   {"ecbs", MetaWeighting::kEcbs},
                                   {"js", MetaWeighting::kJs},
                                   {"ejs", MetaWeighting::kEjs}});
}

MetaPruning GetMetaPruning(api::ParamMap& p, const std::string& key) {
  return p.GetEnum<MetaPruning>(key, MetaPruning::kWep,
                                {{"wep", MetaPruning::kWep},
                                 {"cep", MetaPruning::kCep},
                                 {"wnp", MetaPruning::kWnp},
                                 {"cnp", MetaPruning::kCnp}});
}

void FilterStage::Consume(core::Block block) {
  if (block.size() < min_size_) return;
  if (top_frac_ < 1.0) {
    buffered_.Add(block);
    return;
  }
  next_->Consume(block);
}

bool FilterStage::Done() const {
  // Barrier mode must see the whole stream before ranking blocks.
  return top_frac_ < 1.0 ? false : next_->Done();
}

void FilterStage::Flush() {
  if (top_frac_ < 1.0 && buffered_.NumBlocks() > 0) {
    // Keep the ⌊top_frac·n⌋ smallest blocks. The size threshold comes
    // from a selection over the sorted sizes; survivors are emitted in
    // arrival order, with ties at the threshold resolved first-come, so
    // the output is deterministic for a given input order. The epsilon
    // absorbs binary-float rounding (0.29 * 100 = 28.999...), which
    // would otherwise truncate one block below the documented floor.
    const size_t keep = static_cast<size_t>(
        top_frac_ * static_cast<double>(buffered_.NumBlocks()) + 1e-9);
    std::vector<uint64_t> sizes;
    sizes.reserve(buffered_.NumBlocks());
    for (core::Block b : buffered_.blocks()) sizes.push_back(b.size());
    if (keep > 0) {
      std::nth_element(sizes.begin(), sizes.begin() + (keep - 1),
                       sizes.end());
      const uint64_t threshold = sizes[keep - 1];
      size_t under = 0;
      for (uint64_t s : sizes) under += (s < threshold) ? 1 : 0;
      size_t at_threshold_quota = keep - under;
      for (core::Block b : buffered_.blocks()) {
        if (next_->Done()) break;
        const uint64_t n = b.size();
        if (n > threshold) continue;
        if (n == threshold) {
          if (at_threshold_quota == 0) continue;
          --at_threshold_quota;
        }
        next_->Consume(b);
      }
    }
    buffered_ = {};
  }
  next_->Flush();
}

void MetaStage::Flush() {
  // Canonical content order (see class comment). On the classic
  // single-producer path the generator already emits sorted blocks and
  // this is a no-op pass; a sharded run's merge is sorted only within
  // each shard.
  buffered_.SortBlocks();
  MetaPrune(dataset_->size(), buffered_, weighting_, pruning_, *next_);
  buffered_ = {};
  next_->Flush();
}

namespace {

void RegisterBuiltinStages(StageRegistry& r) {
  r.Register(
      {"purge",
       "block purging: drop blocks with more than max_size records",
       {"block-purging"},
       {{"max_size", "500", "largest block forwarded (>= 2)"}}},
      [](api::ParamMap& p, std::unique_ptr<PipelineStage>* out) {
        uint64_t max_size = p.GetUint64("max_size", 500);
        if (max_size < 2) {
          return Status::Error("param 'max_size': must be >= 2");
        }
        *out = std::make_unique<PurgeStage>(max_size);
        return Status::Ok();
      });

  r.Register(
      {"filter",
       "block filtering: drop blocks under min_size; top_frac < 1 keeps "
       "only that fraction of blocks, smallest first (barrier)",
       {"block-filtering"},
       {{"min_size", "2", "smallest block forwarded"},
        {"top_frac", "1.0", "fraction of blocks kept, in (0, 1]"}}},
      [](api::ParamMap& p, std::unique_ptr<PipelineStage>* out) {
        uint64_t min_size = p.GetUint64("min_size", 2);
        double top_frac = p.GetDouble("top_frac", 1.0);
        if (top_frac <= 0.0 || top_frac > 1.0) {
          return Status::Error("param 'top_frac': must be in (0, 1]");
        }
        *out = std::make_unique<FilterStage>(min_size, top_frac);
        return Status::Ok();
      });

  r.Register(
      {"cap",
       "comparison budget: forward blocks until budget comparisons have "
       "passed, then stop the producer",
       {"budget"},
       {{"budget", "1000000",
         "redundancy-counting comparison budget (>= 1)"}}},
      [](api::ParamMap& p, std::unique_ptr<PipelineStage>* out) {
        uint64_t budget = p.GetUint64("budget", 1000000);
        if (budget < 1) {
          return Status::Error("param 'budget': must be >= 1");
        }
        *out = std::make_unique<CapStage>(budget);
        return Status::Ok();
      });

  r.Register(
      {"meta",
       "meta-blocking graph phase (barrier): weight the blocking graph's "
       "edges, prune, emit retained comparisons as pair blocks",
       {"meta-blocking"},
       {{"weight", "cbs", "edge weights (arcs|cbs|ecbs|js|ejs)"},
        {"prune", "wep", "pruning algorithm (wep|cep|wnp|cnp)"}}},
      [](api::ParamMap& p, std::unique_ptr<PipelineStage>* out) {
        MetaWeighting weighting = GetMetaWeighting(p, "weight");
        MetaPruning pruning = GetMetaPruning(p, "prune");
        *out = std::make_unique<MetaStage>(weighting, pruning);
        return Status::Ok();
      });

  r.Register(
      {"progressive",
       "progressive emission (barrier): rank every distinct candidate "
       "pair best-first and emit pair blocks under a Budget",
       {},
       {{"sched", "ew-cbs",
         "scheduler (bsa|ew-arcs|ew-cbs|ew-ecbs|ew-js|ew-ejs|rr|random)"},
        {"pairs", "unlimited", "pair budget (>= 1, or inf/unlimited)"},
        {"seconds", "unlimited", "wall-clock budget in seconds (> 0)"},
        {"recall-target", "",
         "stop at this recall in (0, 1]; needs ground truth"},
        {"seed", "42", "shuffle seed for sched=random"}}},
      [](api::ParamMap& p, std::unique_ptr<PipelineStage>* out) {
        std::string sched = p.GetString("sched", "ew-cbs");
        uint64_t seed = p.GetUint64("seed", 42);
        // The budget terms go through the one budget grammar, so the stage
        // accepts and rejects exactly what --budget does.
        std::string terms;
        for (const char* key : {"pairs", "seconds", "recall-target"}) {
          if (!p.Has(key)) continue;
          if (!terms.empty()) terms += ',';
          terms += std::string(key) + "=" + p.GetString(key, "");
        }
        core::Budget budget;
        Status status = core::Budget::Parse(terms, &budget);
        if (!status.ok()) return status;
        std::unique_ptr<progressive::PairScheduler> scheduler;
        status = progressive::MakeScheduler(sched, seed, &scheduler);
        if (!status.ok()) return status;
        *out = std::make_unique<progressive::ProgressiveStage>(
            std::shared_ptr<const progressive::PairScheduler>(
                std::move(scheduler)),
            budget, seed);
        return Status::Ok();
      });
}

}  // namespace

}  // namespace sablock::pipeline

namespace sablock::api {

template <>
pipeline::StageRegistry& pipeline::StageRegistry::Global() {
  static pipeline::StageRegistry* registry = [] {
    auto* r = new pipeline::StageRegistry("stage");
    pipeline::RegisterBuiltinStages(*r);
    return r;
  }();
  return *registry;
}

}  // namespace sablock::api
