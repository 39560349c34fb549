#include "core/tuning.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "common/random.h"
#include "core/collision.h"
#include "features/feature_store.h"
#include "text/qgram.h"
#include "text/similarity.h"

namespace sablock::core {

SimilarityDistribution::SimilarityDistribution(int num_bins) {
  SABLOCK_CHECK(num_bins > 0);
  bins_.assign(static_cast<size_t>(num_bins), 0);
}

void SimilarityDistribution::Add(double similarity) {
  SABLOCK_DCHECK(similarity >= 0.0 && similarity <= 1.0);
  int bin = static_cast<int>(similarity * static_cast<double>(bins_.size()));
  if (bin >= static_cast<int>(bins_.size())) {
    bin = static_cast<int>(bins_.size()) - 1;
  }
  ++bins_[bin];
  raw_.push_back(similarity);
  ++count_;
}

double SimilarityDistribution::BinFraction(int i) const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(bins_[i]) / static_cast<double>(count_);
}

double SimilarityDistribution::BinLowerEdge(int i) const {
  return static_cast<double>(i) / static_cast<double>(bins_.size());
}

double SimilarityDistribution::Cdf(double x) const {
  if (count_ == 0) return 0.0;
  uint64_t below = 0;
  for (double v : raw_) {
    if (v <= x) ++below;
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

double SimilarityDistribution::ThresholdForErrorRatio(double epsilon) const {
  SABLOCK_CHECK(epsilon >= 0.0 && epsilon <= 1.0);
  if (count_ == 0) return 0.0;
  uint64_t budget =
      static_cast<uint64_t>(epsilon * static_cast<double>(count_));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bins_.size(); ++i) {
    if (cumulative + bins_[i] > budget) {
      return BinLowerEdge(static_cast<int>(i));
    }
    cumulative += bins_[i];
  }
  return 1.0;
}

SimilarityDistribution MeasureTrueMatchSimilarity(
    const data::Dataset& dataset, const DistributionOptions& options) {
  // Group records by entity so only true-match pairs are enumerated.
  std::unordered_map<data::EntityId, std::vector<data::RecordId>> clusters;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    data::EntityId e = dataset.entity(id);
    if (e != data::kUnknownEntity) clusters[e].push_back(id);
  }

  // Per-record representations from the shared feature cache. This
  // builds the (attributes, q) columns for the whole dataset — more than
  // the labeled-cluster subset the measurement itself reads — because the
  // blocker tuned from this measurement runs over the same attributes
  // and q on all records next: the build is prepaid, not discarded.
  features::FeatureView features = dataset.features();
  const auto texts = features.TextsFor(options.attributes);
  std::optional<features::FeatureView::Handle<features::ShingleColumn>> grams;
  if (options.q > 0) {
    grams = features.ShinglesFor(options.attributes, options.q);
  }

  struct PairRef {
    data::RecordId a;
    data::RecordId b;
  };
  std::vector<PairRef> pairs;
  for (auto& [entity, ids] : clusters) {
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        pairs.push_back({ids[i], ids[j]});
      }
    }
  }
  if (options.max_pairs > 0 && pairs.size() > options.max_pairs) {
    Rng rng(options.seed);
    rng.Shuffle(&pairs);
    pairs.resize(options.max_pairs);
  }

  SimilarityDistribution dist;
  for (const PairRef& p : pairs) {
    double sim;
    if (grams) {
      sim = text::JaccardSortedHashes(grams->Row(p.a), grams->Row(p.b));
    } else {
      sim = text::ExactSimilarity(texts.Row(p.a), texts.Row(p.b));
    }
    dist.Add(sim);
  }
  return dist;
}

LshTuning TuneKL(double sh, double ph, double sl, double pl, int max_k,
                 int max_l) {
  SABLOCK_CHECK(sh > sl);
  LshTuning tuning;
  for (int k = 1; k <= max_k; ++k) {
    int l = MinTablesFor(sh, k, ph);
    if (l < 1 || l > max_l) continue;
    // The low-similarity constraint: P[collide | sl] <= pl.
    if (LshCollisionProbability(sl, k, l) <= pl) {
      tuning.k = k;
      tuning.l = l;
      tuning.feasible = true;
      return tuning;
    }
  }
  return tuning;
}

}  // namespace sablock::core
