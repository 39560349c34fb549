#ifndef SABLOCK_INDEX_INDEX_REGISTRY_H_
#define SABLOCK_INDEX_INDEX_REGISTRY_H_

#include "api/registry.h"
#include "index/incremental_index.h"

namespace sablock::index {

/// Maps spec strings to IncrementalIndex factories. Every index reuses
/// its batch technique's spec grammar verbatim ("sa-lsh:k=4,l=12,
/// domain=bib") — both are registered from one parameter reader in
/// api/builtin_blockers.cc — so one spec string describes the batch
/// technique and its incremental index, and the index/batch parity
/// goldens build both sides from the same string.
using IndexRegistry = api::Registry<IncrementalIndex>;

}  // namespace sablock::index

namespace sablock::api {
template <>
index::IndexRegistry& index::IndexRegistry::Global();
}  // namespace sablock::api

#endif  // SABLOCK_INDEX_INDEX_REGISTRY_H_
