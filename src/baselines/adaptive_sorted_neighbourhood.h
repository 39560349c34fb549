#ifndef SABLOCK_BASELINES_ADAPTIVE_SORTED_NEIGHBOURHOOD_H_
#define SABLOCK_BASELINES_ADAPTIVE_SORTED_NEIGHBOURHOOD_H_

#include <string>
#include <vector>

#include "core/blocking.h"
#include "text/similarity.h"

namespace sablock::baselines {

/// Adaptive sorted neighbourhood ("ASor", Yan et al.): instead of a fixed
/// window, the sorted key sequence is split into variable-size blocks at
/// positions where adjacent keys' string similarity drops below a
/// threshold (the "incrementally-adaptive" variant). Records whose keys
/// fall inside one run form a block.
class AdaptiveSortedNeighbourhood : public core::BlockingTechnique {
 public:
  /// `similarity_name` is one of the SimilarityByName comparators
  /// ("jaro_winkler", "bigram", "edit", "lcs"); `threshold` the boundary
  /// similarity; `max_block_size` caps run length (0 = unlimited).
  AdaptiveSortedNeighbourhood(std::vector<std::string> attributes,
                              std::string similarity_name, double threshold,
                              size_t max_block_size = 0);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  std::vector<std::string> attributes_;
  std::string similarity_name_;
  text::StringSimilarityFn similarity_;
  double threshold_;
  size_t max_block_size_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_ADAPTIVE_SORTED_NEIGHBOURHOOD_H_
