#ifndef SABLOCK_DATA_ARENA_H_
#define SABLOCK_DATA_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace sablock::data {

/// Bump allocator for immutable strings. Interned bytes live in
/// fixed-capacity chunks that are never reallocated or freed while the
/// arena lives, so every returned string_view stays valid for the arena's
/// lifetime — including across further Intern calls. Datasets share one
/// arena through a shared_ptr, which is what makes Slice/Prefix zero-copy:
/// a slice copies only (pointer, length) spans, never record bytes.
///
/// The first chunk holds just the first value, and each later chunk
/// doubles the one before, up to 256 KiB (a longer value gets a chunk of
/// its own size). So a small dataset allocates little and stays under
/// malloc's mmap threshold, and a large one still grows in 256 KiB steps.
///
/// Not internally synchronized: Intern() must not race with itself.
/// Concurrent *reads* of previously interned spans are safe (interning
/// never mutates published bytes), which is all the feature-extraction
/// layer and the sharded engine need from a fully built dataset.
class StringArena {
 public:
  StringArena() = default;
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// Copies `s` into the arena and returns a stable view of the copy.
  /// Empty input returns an empty view without touching the arena.
  std::string_view Intern(std::string_view s) {
    if (s.empty()) return {};
    if (s.size() > capacity_ - used_) Grow(s.size());
    char* dst = chunks_.back().get() + used_;
    std::memcpy(dst, s.data(), s.size());
    used_ += s.size();
    bytes_ += s.size();
    return {dst, s.size()};
  }

  /// Takes shared ownership of an externally allocated immutable byte
  /// region — typically a read-only snapshot file mapping — so views into
  /// it stay valid for the arena's lifetime, exactly like interned spans.
  /// The arena never writes to adopted regions; later Intern calls append
  /// to fresh chunks, which is what gives a loaded snapshot its natural
  /// copy-on-write mutation path (the mapping stays pristine, new record
  /// bytes land in ordinary heap chunks).
  void Adopt(std::shared_ptr<const void> region, size_t region_bytes) {
    adopted_.push_back(std::move(region));
    bytes_ += region_bytes;
  }

  /// Total interned + adopted bytes (excludes chunk slack).
  size_t bytes() const { return bytes_; }

 private:
  static constexpr size_t kMaxChunkBytes = 1 << 18;  // 256 KiB

  void Grow(size_t at_least) {
    const size_t size = std::max(std::min(2 * capacity_, kMaxChunkBytes),
                                 at_least);
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
    capacity_ = size;
    used_ = 0;
  }

  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::shared_ptr<const void>> adopted_;  // keep-alives
  size_t capacity_ = 0;  // capacity of the current (last) chunk
  size_t used_ = 0;      // bytes used in the current chunk
  size_t bytes_ = 0;
};

}  // namespace sablock::data

#endif  // SABLOCK_DATA_ARENA_H_
