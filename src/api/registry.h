#ifndef SABLOCK_API_REGISTRY_H_
#define SABLOCK_API_REGISTRY_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/blocker_spec.h"
#include "common/check.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/blocking.h"

namespace sablock::api {

/// Documentation of one spec parameter, surfaced by `sablock_cli --list`
/// and the README technique table.
struct ParamDoc {
  std::string name;
  std::string default_value;
  std::string help;

  bool operator==(const ParamDoc&) const = default;
};

/// Registry entry metadata: one technique, pipeline stage or index.
struct BlockerInfo {
  std::string name;     ///< canonical spec name, e.g. "sa-lsh"
  std::string summary;  ///< one-line description
  std::vector<std::string> aliases;
  std::vector<ParamDoc> params;
};

/// Maps spec names to factories of one product kind. Blocking techniques
/// (BlockerRegistry), pipeline stages (pipeline::StageRegistry) and
/// incremental indexes (index::IndexRegistry) are all instances, so the
/// CLI, harness, benches, server and examples build every component from
/// a spec string ("sa-lsh:k=4,l=63,w=5") instead of including concrete
/// headers. The `noun` names the product kind in error messages.
template <typename Product>
class Registry {
 public:
  /// A factory reads its parameters from the ParamMap (consuming the keys
  /// it understands) and produces the product. Parameter type errors are
  /// accumulated inside the ParamMap; the registry turns them — and any
  /// unconsumed key — into the returned Status.
  using Factory =
      std::function<Status(ParamMap& params, std::unique_ptr<Product>* out)>;

  explicit Registry(std::string noun) : noun_(std::move(noun)) {}

  /// The process-wide registry with every built-in entry registered;
  /// specialized beside each product's registrations.
  static Registry& Global();

  /// Registers an entry. Name and alias collisions abort (programming
  /// error).
  void Register(BlockerInfo info, Factory factory) {
    SABLOCK_CHECK_MSG(!info.name.empty(), noun_.c_str());
    const size_t slot = entries_.size();
    auto claim = [&](const std::string& name) {
      bool inserted = index_.emplace(ToLower(name), slot).second;
      SABLOCK_CHECK_MSG(inserted, name.c_str());
    };
    claim(info.name);
    for (const std::string& alias : info.aliases) claim(alias);
    entries_.emplace_back(std::move(info), std::move(factory));
  }

  /// Parses `spec_string` ("name[:key=val,...]") and builds the product.
  /// Every malformed spec (unknown name, bad parameter type or range,
  /// unknown or duplicate parameter) comes back as a diagnostic Status
  /// with no product — construction never CHECK-fails on user input.
  Status Create(const std::string& spec_string,
                std::unique_ptr<Product>* out) const {
    out->reset();
    BlockerSpec spec;
    Status status = BlockerSpec::Parse(spec_string, &spec);
    if (!status.ok()) return status;
    return Create(std::move(spec), out);
  }

  /// Builds the product described by a parsed spec. The spec is taken by
  /// value because the factory consumes its parameter map.
  Status Create(BlockerSpec spec, std::unique_ptr<Product>* out) const {
    out->reset();
    auto it = index_.find(ToLower(spec.name));
    if (it == index_.end()) {
      std::string known;
      for (const BlockerInfo& info : List()) {
        if (!known.empty()) known += ", ";
        known += info.name;
      }
      return Status::Error("unknown " + noun_ + " '" + spec.name +
                           "' (known: " + known + ")");
    }
    const auto& [info, factory] = entries_[it->second];
    Status status = factory(spec.params, out);
    if (status.ok()) status = spec.params.Finish();
    if (!status.ok()) {
      out->reset();
      return Status::Error(info.name + ": " + status.message());
    }
    SABLOCK_CHECK(*out != nullptr);
    return Status::Ok();
  }

  /// True if `name` (canonical or alias, any case) is registered.
  bool Contains(const std::string& name) const {
    return index_.count(ToLower(name)) > 0;
  }

  /// Canonical entries, sorted by name.
  std::vector<BlockerInfo> List() const {
    std::vector<BlockerInfo> infos;
    infos.reserve(entries_.size());
    for (const auto& [info, factory] : entries_) infos.push_back(info);
    std::sort(infos.begin(), infos.end(),
              [](const BlockerInfo& a, const BlockerInfo& b) {
                return a.name < b.name;
              });
    return infos;
  }

 private:
  std::string noun_;
  std::vector<std::pair<BlockerInfo, Factory>> entries_;
  std::map<std::string, size_t> index_;  // name or alias -> entries_ index
};

/// Every blocking technique in the library (see builtin_blockers.cc).
using BlockerRegistry = Registry<core::BlockingTechnique>;
template <>
BlockerRegistry& BlockerRegistry::Global();

}  // namespace sablock::api

#endif  // SABLOCK_API_REGISTRY_H_
