#ifndef SABLOCK_BASELINES_STANDARD_BLOCKING_H_
#define SABLOCK_BASELINES_STANDARD_BLOCKING_H_

#include <string>
#include <vector>

#include "core/blocking.h"

namespace sablock::baselines {

/// Traditional blocking ("TBlo", Fellegi & Sunter): records sharing the
/// exact blocking-key value form a block. The classic limitation the paper
/// motivates against — "Qing Wang" vs "Wang Qing" never share a block.
class StandardBlocking : public core::BlockingTechnique {
 public:
  explicit StandardBlocking(std::vector<std::string> attributes)
      : attributes_(std::move(attributes)) {}

  std::string name() const override { return "TBlo"; }
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  std::vector<std::string> attributes_;
};

/// Token blocking: the canonical schema-agnostic input of meta-blocking.
/// Every distinct token of the key attributes becomes a block; blocks
/// are emitted in canonical content order (registered as
/// "token-blocking"). Purging oversized blocks is not this technique's
/// job — compose with the `purge` pipeline stage.
class TokenBlockingTechnique : public core::BlockingTechnique {
 public:
  explicit TokenBlockingTechnique(std::vector<std::string> attributes);

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override;

 private:
  std::vector<std::string> attributes_;
};

}  // namespace sablock::baselines

#endif  // SABLOCK_BASELINES_STANDARD_BLOCKING_H_
