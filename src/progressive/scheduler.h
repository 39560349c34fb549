#ifndef SABLOCK_PROGRESSIVE_SCHEDULER_H_
#define SABLOCK_PROGRESSIVE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/blocking.h"

namespace sablock::progressive {

/// Orders the distinct candidate pairs of a block collection best-first —
/// the prioritization heart of progressive blocking (Galhotra et al.):
/// spend the comparison budget on the pairs most likely to match. A
/// scheduler ranks and, given a pair limit, stops early; the remaining
/// budget terms (seconds, recall) are enforced by the emitting stage.
///
/// Determinism contract: for a given (num_records, input block order) the
/// returned order is fully reproducible — schedulers break every tie
/// canonically (ascending packed pair key), so progressive output is
/// independent of thread count once the input stream is canonicalized.
///
/// Prefix contract: Schedule(n, input, k) is exactly the first k entries
/// (pairs and scores) of Schedule(n, input, Budget::kUnlimitedPairs).
///
/// Cost contract: a limited schedule never materializes or sorts the
/// pairs past its limit. `ew-*` runs one O(comparisons) dense sweep of
/// the blocking graph feeding a bounded top-K selection — O(K log K) to
/// order the survivors, O(records + K) memory besides an index the size
/// of the input (pipeline::TopWeightedPairs); `bsa` and `rr` stop after
/// `limit` emitted pairs. `random` must shuffle the whole universe and
/// only truncates.
class PairScheduler {
 public:
  virtual ~PairScheduler() = default;

  /// Scheduler spec name, e.g. "ew-cbs".
  virtual std::string name() const = 0;

  /// Returns the best `limit` distinct candidate pairs of `input` (record
  /// ids in [0, num_records)) — every one when `limit` is
  /// Budget::kUnlimitedPairs — ordered best-first with scores
  /// non-increasing in meaning (higher score = compare sooner).
  virtual std::vector<core::CandidatePair> Schedule(
      size_t num_records, const core::BlockCollection& input,
      uint64_t limit) const = 0;
};

/// Builds a scheduler from its spec name:
///
///   bsa        block-size-ascending: pairs of small blocks first
///              (smallest blocks carry the highest pair precision)
///   ew-arcs    meta-blocking edge weight, ARCS weighting
///   ew-cbs     ... CBS (common blocks)
///   ew-ecbs    ... ECBS
///   ew-js      ... JS (Jaccard of block sets)
///   ew-ejs     ... EJS
///   rr         round-robin over blocks: one pair per block per round
///   random     seeded uniform shuffle of the distinct pairs — the
///              baseline a real scheduler must dominate
///
/// `seed` is only consumed by `random`. Unknown names return an error
/// listing the known schedulers.
Status MakeScheduler(const std::string& sched, uint64_t seed,
                     std::unique_ptr<PairScheduler>* out);

/// The registered scheduler names, in documentation order.
std::vector<std::string> SchedulerNames();

}  // namespace sablock::progressive

#endif  // SABLOCK_PROGRESSIVE_SCHEDULER_H_
