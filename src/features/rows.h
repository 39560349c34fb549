#ifndef SABLOCK_FEATURES_ROWS_H_
#define SABLOCK_FEATURES_ROWS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sablock::features {

/// The one row layout of the variable-length feature columns (normalized
/// text, shingle hashes, token ids): CSR, with every row's values back to
/// back in one array and row r at values()[offsets()[r], offsets()[r + 1]).
/// Two allocations per column, none per row.
///
/// Rows are appended (AppendRow), built from a snapshot section's per-row
/// counts (FromCounts), or written by a cooperative chunked build into one
/// array sized by upper bounds: each chunk writes its rows from its own
/// first slot (WriteRow), and Compact closes the gaps the chunks leave.
template <typename T>
class Rows {
 public:
  /// Zero rows.
  Rows() = default;

  /// `rows` rows over `slots` value slots, for a chunked build.
  Rows(size_t rows, size_t slots) : values_(slots), offsets_(rows + 1, 0) {}

  /// Rows of strictly ascending values from a snapshot section: row r is
  /// the next counts[r] of `values`. Rejects counts that overrun the
  /// values or leave some uncovered, and a row that is not strictly
  /// ascending. Diagnostics call the values `noun` ("ids", "hashes").
  static Status FromCounts(std::span<const uint64_t> counts,
                           std::vector<T> values, std::string_view noun,
                           Rows* out) {
    Rows rows;
    rows.offsets_.reserve(counts.size() + 1);
    for (size_t row = 0; row < counts.size(); ++row) {
      const size_t begin = rows.offsets_.back();
      if (counts[row] > values.size() - begin) {
        return Status::Error("counts exceed its " + std::string(noun));
      }
      const size_t end = begin + static_cast<size_t>(counts[row]);
      for (size_t i = begin + 1; i < end; ++i) {
        if (values[i] <= values[i - 1]) {
          return Status::Error("row " + std::to_string(row) + " " +
                               std::string(noun) +
                               " are not strictly ascending");
        }
      }
      rows.offsets_.push_back(end);
    }
    if (rows.offsets_.back() != values.size()) {
      return Status::Error("counts do not cover its " + std::string(noun));
    }
    rows.values_ = std::move(values);
    *out = std::move(rows);
    return Status::Ok();
  }

  /// Appends one row: `append(values)` pushes the row's values onto the
  /// values array (and may reorder or drop what it pushed, never what
  /// was there before).
  template <typename Append>
  void AppendRow(Append&& append) {
    append(values_);
    offsets_.push_back(values_.size());
  }

  /// Writes row `row` of a chunked build from value slot `at`:
  /// `write(slots)` fills a prefix of the slots from `at` on and returns
  /// its length. Returns the slot after the row.
  template <typename Write>
  size_t WriteRow(size_t row, size_t at, Write&& write) {
    at += write(std::span<T>(values_).subspan(at));
    offsets_[row + 1] = at;
    return at;
  }

  /// Ends a chunked build whose chunk c wrote rows [c·chunk_rows, ...)
  /// from slot firsts[c]: moves each chunk's values down to the end of the
  /// chunk before it, so the rows lie back to back.
  void Compact(std::span<const size_t> firsts, size_t chunk_rows) {
    size_t to = 0;
    for (size_t c = 0; c < firsts.size(); ++c) {
      const size_t first_row = c * chunk_rows;
      const size_t end_row = std::min(first_row + chunk_rows, size());
      const size_t from = firsts[c];
      const size_t count = offsets_[end_row] - from;
      if (to != from) {  // to < from: a forward copy may overlap
        const auto source = values_.begin() + static_cast<std::ptrdiff_t>(from);
        std::copy(source, source + static_cast<std::ptrdiff_t>(count),
                  values_.begin() + static_cast<std::ptrdiff_t>(to));
      }
      for (size_t r = first_row + 1; r <= end_row; ++r) {
        offsets_[r] -= from - to;
      }
      to += count;
    }
    values_.resize(to);
  }

  size_t size() const { return offsets_.size() - 1; }

  /// Row `row`: a std::string_view over chars, a span otherwise.
  auto Row(size_t row) const {
    const T* begin = values_.data() + offsets_[row];
    const size_t count = offsets_[row + 1] - offsets_[row];
    if constexpr (std::is_same_v<T, char>) {
      return std::string_view(begin, count);
    } else {
      return std::span<const T>(begin, count);
    }
  }

  /// The two arrays, as a snapshot writer persists them.
  std::span<const T> values() const { return values_; }
  std::span<const size_t> offsets() const { return offsets_; }

 private:
  std::vector<T> values_;
  std::vector<size_t> offsets_ = {0};
};

}  // namespace sablock::features

#endif  // SABLOCK_FEATURES_ROWS_H_
