#include "engine/execution_spec.h"

#include <string>

#include "api/param_map.h"
#include "engine/thread_pool.h"

namespace sablock::engine {

Status ExecutionSpec::Parse(const std::string& text, ExecutionSpec* out) {
  api::ParamMap params;
  Status status = api::ParamMap::Parse(text, &params);
  if (!status.ok()) return status;

  ExecutionSpec spec;
  spec.threads = params.GetInt("threads", spec.threads);
  spec.shards = params.GetInt("shards", spec.shards);
  // The shard-order merge is the only one; "merge=collect" names it.
  params.GetEnum("merge", 0, {{"collect", 0}});
  status = params.Finish();
  if (!status.ok()) return status;
  if (spec.threads < 1 || spec.threads > ThreadPool::kMaxThreads) {
    return Status::Error("param 'threads': must be in [1, " +
                         std::to_string(ThreadPool::kMaxThreads) + "]");
  }
  if (spec.shards < 0) {
    return Status::Error("param 'shards': must be >= 0 (0 = threads)");
  }
  *out = spec;
  return Status::Ok();
}

}  // namespace sablock::engine
