#ifndef SABLOCK_CORE_TUNING_H_
#define SABLOCK_CORE_TUNING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/record.h"

namespace sablock::core {

/// Empirical distribution of textual similarity values of true matches,
/// learned from a (training) dataset — the probability density fs(x) of
/// Section 5.3, shown in the upper row of Fig. 6.
class SimilarityDistribution {
 public:
  explicit SimilarityDistribution(int num_bins = 20);

  /// Adds one observed similarity value in [0, 1].
  void Add(double similarity);

  /// Number of observations.
  uint64_t count() const { return count_; }
  int num_bins() const { return static_cast<int>(bins_.size()); }

  /// Fraction of observations in bin i (the percentage rows of Fig. 6).
  double BinFraction(int i) const;

  /// Lower edge of bin i.
  double BinLowerEdge(int i) const;

  /// Smallest similarity threshold s_h such that ∫_0^{s_h} fs = epsilon
  /// (Section 5.3 step (i)): records below s_h are the lost true matches.
  /// Quantized to bin edges (conservative upper edge).
  double ThresholdForErrorRatio(double epsilon) const;

 private:
  std::vector<uint64_t> bins_;
  uint64_t count_ = 0;
};

/// Options for measuring the similarity distribution of a dataset's true
/// matches. `q = 0` means exact-value similarity (whole-string equality),
/// otherwise Jaccard over q-gram sets — the four series of Fig. 6.
struct DistributionOptions {
  std::vector<std::string> attributes;
  int q = 3;
  /// Cap on sampled true-match pairs (0 = all pairs).
  uint64_t max_pairs = 0;
  uint64_t seed = 13;
};

/// Measures the textual-similarity distribution of all ground-truth match
/// pairs of `dataset`.
SimilarityDistribution MeasureTrueMatchSimilarity(
    const data::Dataset& dataset, const DistributionOptions& options);

/// The solved LSH parameters of Section 5.3 step (ii).
struct LshTuning {
  int k = 0;
  int l = 0;
  bool feasible = false;
};

/// Chooses the smallest k (and its minimal l) such that
///   P[collide | s = sh] >= ph   and   P[collide | s = sl] <= pl,
/// with P = 1 - (1 - s^k)^l. Mirrors the paper's worked example:
/// sh=0.3, ph=0.4, sl=0.2, pl=0.1 yields k=4, l=63.
LshTuning TuneKL(double sh, double ph, double sl, double pl, int max_k = 24,
                 int max_l = 100000);

}  // namespace sablock::core

#endif  // SABLOCK_CORE_TUNING_H_
