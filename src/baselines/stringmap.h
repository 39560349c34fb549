#ifndef SABLOCK_BASELINES_STRINGMAP_H_
#define SABLOCK_BASELINES_STRINGMAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/blocking.h"

namespace sablock::baselines {

/// FastMap-style StringMap embedding (Jin, Li & Mehrotra): maps strings
/// into a d-dimensional Euclidean space so that edit distance is roughly
/// preserved. Each axis is defined by a pivot pair chosen with the
/// farthest-pair heuristic; the coordinate of string s on axis (p1, p2) is
///   x = (d(s,p1)² + d(p1,p2)² - d(s,p2)²) / (2·d(p1,p2)),
/// with residual distances used for subsequent axes (the standard FastMap
/// recurrence, here approximated by reusing the raw edit distance, as the
/// original StringMap implementation does for strings).
class StringMapEmbedding {
 public:
  StringMapEmbedding(int dimensions, uint64_t seed);

  /// Chooses pivots from `strings` and embeds them all. Returns one
  /// d-dimensional point per input string.
  std::vector<std::vector<double>> Embed(
      const std::vector<std::string>& strings);

  int dimensions() const { return dimensions_; }

 private:
  int dimensions_;
  uint64_t seed_;
};

/// Threshold-based StringMap blocking ("StMT"): embeds all BKVs, overlays a
/// grid (cell edge derived from `threshold`, `grid_size` cells per axis
/// over the data range) on the first two embedding dimensions, and emits a
/// block per pair of records whose full embedded distance is within the
/// threshold radius (verified inside each cell neighbourhood). The
/// dimensionality/grid parameters mirror Christen's survey grid
/// (dim {15,20}, grid {100,1000}).
class StringMapThreshold : public core::BlockingTechnique {
 public:
  StringMapThreshold(std::vector<std::string> attributes, double threshold,
                     int grid_size, int dimensions, uint64_t seed = 73);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  std::vector<std::string> attributes_;
  double threshold_;
  int grid_size_;
  int dimensions_;
  uint64_t seed_;
};

/// Nearest-neighbour StringMap blocking ("StMNN", Adly's double-embedding
/// variant simplified to one embedding): for each record, a block is formed
/// with its `num_neighbours` nearest records in the embedded space,
/// searched over an expanding grid neighbourhood.
class StringMapNearestNeighbour : public core::BlockingTechnique {
 public:
  StringMapNearestNeighbour(std::vector<std::string> attributes,
                            int num_neighbours, int grid_size, int dimensions,
                            uint64_t seed = 73);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  std::vector<std::string> attributes_;
  int num_neighbours_;
  int grid_size_;
  int dimensions_;
  uint64_t seed_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_STRINGMAP_H_
