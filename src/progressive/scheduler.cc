#include "progressive/scheduler.h"

#include <algorithm>
#include <numeric>
#include <random>

#include "common/pair_set.h"
#include "core/budget.h"
#include "pipeline/meta_graph.h"

namespace sablock::progressive {

namespace {

core::CandidatePair Unpack(uint64_t key, double score) {
  return {static_cast<uint32_t>(key >> 32),
          static_cast<uint32_t>(key & 0xffffffffULL), score};
}

/// Dedup set sized for at most `limit` distinct pairs out of `input`.
PairSet SeenSet(const core::BlockCollection& input, uint64_t limit) {
  return PairSet(
      std::min<uint64_t>(std::min(input.TotalComparisons(), limit) + 1,
                         1ULL << 22));
}

/// Walks `input`'s blocks in a caller-chosen block order, enumerating
/// each block's pairs lexicographically and emitting every pair the
/// first time it is seen, up to `limit` pairs. Shared by the block-driven
/// schedulers.
template <typename ScoreFn>
std::vector<core::CandidatePair> EmitFirstSeen(
    const core::BlockCollection& input, const std::vector<size_t>& order,
    uint64_t limit, ScoreFn&& score_of) {
  PairSet seen = SeenSet(input, limit);
  std::vector<core::CandidatePair> out;
  for (size_t index : order) {
    const core::Block b = input.blocks()[index];
    for (size_t i = 0; i < b.size(); ++i) {
      for (size_t j = i + 1; j < b.size(); ++j) {
        if (out.size() >= limit) return out;
        if (b[i] == b[j]) continue;
        if (!seen.Insert(b[i], b[j])) continue;
        out.push_back(Unpack(PairSet::Key(b[i], b[j]), score_of(b)));
      }
    }
  }
  return out;
}

std::vector<size_t> IdentityOrder(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  return order;
}

/// `bsa` — block-size-ascending: the classic progressive heuristic.
/// Small blocks are the most selective (few records agreeing on a rare
/// key), so their pairs are the likeliest matches; all pairs of size-2
/// blocks come first, then size-3, and so on. Ties (equal size) keep the
/// input's canonical block order.
class BlockSizeAscendingScheduler : public PairScheduler {
 public:
  std::string name() const override { return "bsa"; }

  std::vector<core::CandidatePair> Schedule(
      size_t /*num_records*/, const core::BlockCollection& input,
      uint64_t limit) const override {
    std::vector<size_t> order = IdentityOrder(input.NumBlocks());
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return input.blocks()[x].size() < input.blocks()[y].size();
    });
    return EmitFirstSeen(input, order, limit, [](const core::Block& b) {
      return 1.0 / static_cast<double>(b.size() - 1);
    });
  }
};

/// `ew-*` — meta-blocking edge weight: rank every distinct pair by its
/// blocking-graph weight, highest first (pipeline::TopWeightedPairs, so
/// a limit selects the best `limit` edges without sorting the rest).
/// This is the hierarchy of Galhotra et al.'s progressive recipe: the
/// same evidence MetaPrune thresholds on, spent best-first instead.
class EdgeWeightScheduler : public PairScheduler {
 public:
  explicit EdgeWeightScheduler(pipeline::MetaWeighting weighting)
      : weighting_(weighting) {}

  std::string name() const override {
    switch (weighting_) {
      case pipeline::MetaWeighting::kArcs: return "ew-arcs";
      case pipeline::MetaWeighting::kCbs: return "ew-cbs";
      case pipeline::MetaWeighting::kEcbs: return "ew-ecbs";
      case pipeline::MetaWeighting::kJs: return "ew-js";
      case pipeline::MetaWeighting::kEjs: return "ew-ejs";
    }
    return "ew-?";
  }

  std::vector<core::CandidatePair> Schedule(
      size_t num_records, const core::BlockCollection& input,
      uint64_t limit) const override {
    std::vector<pipeline::WeightedPair> weighted =
        pipeline::TopWeightedPairs(num_records, input, weighting_, limit);
    std::vector<core::CandidatePair> out;
    out.reserve(weighted.size());
    for (const pipeline::WeightedPair& e : weighted) {
      out.push_back(Unpack(e.key, e.weight));
    }
    return out;
  }

 private:
  pipeline::MetaWeighting weighting_;
};

/// `rr` — round-robin over blocks: round r emits each block's r-th
/// not-yet-seen pair, cycling through blocks in canonical order. Spreads
/// the early budget across every block instead of draining one block at
/// a time — fair coverage when block quality is unknown.
class RoundRobinScheduler : public PairScheduler {
 public:
  std::string name() const override { return "rr"; }

  std::vector<core::CandidatePair> Schedule(
      size_t /*num_records*/, const core::BlockCollection& input,
      uint64_t limit) const override {
    // Per-block lexicographic pair cursors; one pass per round.
    struct Cursor {
      size_t i = 0;
      size_t j = 1;
    };
    const auto blocks = input.blocks();
    std::vector<Cursor> cursors(blocks.size());
    PairSet seen = SeenSet(input, limit);
    std::vector<core::CandidatePair> out;
    bool emitted = true;
    for (uint64_t round = 0; emitted; ++round) {
      emitted = false;
      double score = 1.0 / static_cast<double>(round + 1);
      for (size_t idx = 0; idx < blocks.size(); ++idx) {
        if (out.size() >= limit) return out;
        const core::Block b = blocks[idx];
        Cursor& c = cursors[idx];
        // Advance to this block's next unseen pair, if any.
        while (c.i + 1 < b.size()) {
          if (c.j >= b.size()) {
            ++c.i;
            c.j = c.i + 1;
            continue;
          }
          uint32_t a = b[c.i];
          uint32_t z = b[c.j];
          ++c.j;
          if (a == z || !seen.Insert(a, z)) continue;
          out.push_back(Unpack(PairSet::Key(a, z), score));
          emitted = true;
          break;  // one pair per block per round
        }
      }
    }
    return out;
  }
};

/// `random` — seeded uniform shuffle of the distinct pairs. Deliberately
/// ignorant: the floor every informed scheduler must dominate in the
/// progressive_recall gate.
class RandomScheduler : public PairScheduler {
 public:
  explicit RandomScheduler(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "random"; }

  std::vector<core::CandidatePair> Schedule(
      size_t /*num_records*/, const core::BlockCollection& input,
      uint64_t limit) const override {
    // The shuffle needs the whole universe; a limit only truncates.
    std::vector<core::CandidatePair> pairs = EmitFirstSeen(
        input, IdentityOrder(input.NumBlocks()), core::Budget::kUnlimitedPairs,
        [](const core::Block&) { return 0.0; });
    std::mt19937_64 rng(seed_);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    if (pairs.size() > limit) pairs.resize(limit);
    return pairs;
  }

 private:
  uint64_t seed_;
};

}  // namespace

Status MakeScheduler(const std::string& sched, uint64_t seed,
                     std::unique_ptr<PairScheduler>* out) {
  out->reset();
  if (sched == "bsa") {
    *out = std::make_unique<BlockSizeAscendingScheduler>();
  } else if (sched == "ew-arcs") {
    *out = std::make_unique<EdgeWeightScheduler>(
        pipeline::MetaWeighting::kArcs);
  } else if (sched == "ew-cbs") {
    *out =
        std::make_unique<EdgeWeightScheduler>(pipeline::MetaWeighting::kCbs);
  } else if (sched == "ew-ecbs") {
    *out = std::make_unique<EdgeWeightScheduler>(
        pipeline::MetaWeighting::kEcbs);
  } else if (sched == "ew-js") {
    *out =
        std::make_unique<EdgeWeightScheduler>(pipeline::MetaWeighting::kJs);
  } else if (sched == "ew-ejs") {
    *out =
        std::make_unique<EdgeWeightScheduler>(pipeline::MetaWeighting::kEjs);
  } else if (sched == "rr") {
    *out = std::make_unique<RoundRobinScheduler>();
  } else if (sched == "random") {
    *out = std::make_unique<RandomScheduler>(seed);
  } else {
    std::string known;
    for (const std::string& name : SchedulerNames()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::Error("unknown scheduler '" + sched +
                         "' (known: " + known + ")");
  }
  return Status::Ok();
}

std::vector<std::string> SchedulerNames() {
  return {"bsa", "ew-arcs", "ew-cbs", "ew-ecbs",
          "ew-js", "ew-ejs", "rr",     "random"};
}

}  // namespace sablock::progressive
