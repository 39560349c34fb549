#ifndef SABLOCK_EVAL_METRICS_H_
#define SABLOCK_EVAL_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "data/record.h"

namespace sablock::eval {

/// The blocking-quality measures of Section 6 ("Evaluation measures").
/// With Γ the distinct candidate pairs, Γ_tp the distinct true matches in
/// Γ, Γ_m the redundancy-counting comparisons, Ω all record pairs and
/// Ω_tp all true-match pairs:
///   PC  = |Γ_tp| / |Ω_tp|         (pair completeness)
///   PQ  = |Γ_tp| / |Γ|            (pair quality)
///   RR  = 1 - |Γ| / |Ω|           (reduction ratio)
///   FM  = 2·PC·PQ / (PC + PQ)     (harmonic mean)
///   PQ* = |Γ_tp| / |Γ_m|          (meta-blocking papers' PQ, Fig. 12)
///   FM* = 2·PC·PQ* / (PC + PQ*)
struct Metrics {
  double pc = 0.0;
  double pq = 0.0;
  double rr = 0.0;
  double fm = 0.0;
  double pq_star = 0.0;
  double fm_star = 0.0;

  uint64_t distinct_pairs = 0;      ///< |Γ|
  uint64_t true_pairs = 0;          ///< |Γ_tp|
  uint64_t total_comparisons = 0;   ///< |Γ_m|
  uint64_t ground_truth_pairs = 0;  ///< |Ω_tp|
  uint64_t all_pairs = 0;           ///< |Ω|
  uint64_t num_blocks = 0;
  uint64_t max_block_size = 0;
};

/// Evaluates a block collection against the dataset's ground truth.
Metrics Evaluate(const data::Dataset& dataset,
                 const core::BlockCollection& blocks);

/// Harmonic mean helper (0 when either input is 0).
double HarmonicMean(double a, double b);

/// One sample of a recall@budget curve: after spending `fraction` of the
/// pair budget (comparing the first ⌈fraction·budget⌉ pairs of the
/// emitted order), `recall` of the ground-truth matches were found.
struct RecallPoint {
  double fraction = 0.0;
  double recall = 0.0;
};

/// The recall@budget curve of one progressive emission order — the
/// pay-as-you-go quality profile progressive blocking is judged on. A
/// better scheduler reaches every recall level with fewer comparisons,
/// i.e. its curve dominates (lies above) a worse scheduler's at every
/// fraction.
struct RecallCurve {
  uint64_t budget_pairs = 0;        ///< pairs covered by fraction=1.0
  double auc = 0.0;                 ///< mean recall across the samples
  std::vector<RecallPoint> points;  ///< ascending fraction
};

/// The default budget-fraction ladder sampled by RecallAtBudget.
std::vector<double> DefaultRecallFractions();

/// Walks `ordered` (a scheduler's best-first emission) and samples recall
/// against `dataset`'s ground truth at each fraction of `budget_pairs`
/// (capped at ordered.size()). Fractions must be ascending in (0, 1].
RecallCurve RecallAtBudget(const data::Dataset& dataset,
                           const std::vector<core::CandidatePair>& ordered,
                           uint64_t budget_pairs,
                           const std::vector<double>& fractions);

/// One-line human-readable rendering: "PC=0.97 PQ=0.42 RR=0.99 FM=0.59".
std::string Summary(const Metrics& m);

}  // namespace sablock::eval

#endif  // SABLOCK_EVAL_METRICS_H_
