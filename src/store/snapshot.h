#ifndef SABLOCK_STORE_SNAPSHOT_H_
#define SABLOCK_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/record.h"

namespace sablock::store {

struct LoadOptions {
  /// Deserialize precomputed FeatureStore sections and attach them to
  /// the dataset as a pre-warmed cache (signature matrices and band
  /// columns alias the mapping zero-copy). Off = dataset core only;
  /// features rebuild lazily on first use.
  bool load_features = true;
};

struct SnapshotInfo {
  uint64_t file_bytes = 0;
  uint64_t records = 0;
  uint32_t attributes = 0;
  uint32_t sections = 0;
  uint32_t feature_sections = 0;
  bool any_compressed = false;
};

/// Loads a `.sab` snapshot written by WriteSnapshot. The file is mapped
/// read-only and the dataset's string arena adopts the mapping, so
/// record bytes (and raw signature and band matrices) are served
/// zero-copy from the page cache; the mapping lives until the last
/// dataset / feature handle sharing the arena is gone. Mutating the
/// loaded dataset copies-on-write: new bytes intern into fresh heap
/// chunks and the stale-feature version CHECK fires exactly as for a
/// parsed dataset.
///
/// Corrupt, truncated, foreign-endian or wrong-version files return a
/// descriptive error Status — never a crash, never a silently wrong
/// dataset. The header and section table are validated and every
/// section payload's Checksum64 is verified before anything is decoded.
/// Feature sections then decode into the columns' row layout with no
/// allocation per record: a text section straight into its two arrays,
/// and token and shingle sections through one counts/values reader that
/// refuses counts not covering the values and a record whose ids or
/// hashes are not strictly ascending. A band section is aliased after
/// its parameters, shape and empty-record marks are checked against its
/// keys.
Status LoadSnapshot(const std::string& path, const LoadOptions& options,
                    data::Dataset* out, SnapshotInfo* info = nullptr);

}  // namespace sablock::store

#endif  // SABLOCK_STORE_SNAPSHOT_H_
