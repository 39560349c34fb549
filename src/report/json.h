#ifndef SABLOCK_REPORT_JSON_H_
#define SABLOCK_REPORT_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sablock::report {

/// A JSON document tree and its writer, with no third-party dependencies:
/// the carrier for the benchmark suite's machine-readable results
/// (BENCH_*.json), the e2e records and the trace files. The library only
/// writes JSON; the files are read by Python (tools/bench_compare.py,
/// e2ebench/), and report_test pins the writer's bytes.
///
/// Objects preserve insertion order, so a serialized report has stable,
/// diff-friendly key order (the golden test relies on this). Numbers keep
/// their integer-ness: counters serialize as exact integers, never in
/// scientific notation, while doubles use the shortest form that reads
/// back exactly. Non-finite doubles serialize as null (JSON has no
/// NaN/Inf).
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject };

  Json() : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(int value) : type_(Type::kInt), int_(value) {}
  Json(int64_t value) : type_(Type::kInt), int_(value) {}
  Json(uint64_t value) : type_(Type::kUint), uint_(value) {}
  Json(double value) : type_(Type::kDouble), double_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}

  /// Empty-container constructors ([] / {} even with no elements).
  static Json Array();
  static Json Object();

  Type type() const { return type_; }

  /// Any numeric type, widened; CHECK-fails on a non-number.
  double double_value() const;

  // ------------------------------------------------------------- arrays
  /// Appends an element (CHECK-fails unless array). Returns *this.
  Json& Append(Json value);
  const std::vector<Json>& items() const;

  // ------------------------------------------------------------ objects
  /// Sets `key` (appending it if new, overwriting in place if present).
  /// CHECK-fails unless object. Returns *this for chaining.
  Json& Set(std::string key, Json value);
  /// Looks up a key; nullptr when absent (or not an object).
  const Json* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Elements (array) or members (object); 0 for scalars.
  size_t size() const;

  /// Serializes the value. indent == 0 renders compact single-line JSON;
  /// indent > 0 pretty-prints with that many spaces per nesting level.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Appends the JSON escape of `s` (quotes included) to `out`.
void AppendJsonEscaped(std::string& out, std::string_view s);

/// Writes `value.Dump(indent)` plus a trailing newline to `path`.
Status WriteJsonFile(const Json& value, const std::string& path,
                     int indent = 2);

}  // namespace sablock::report

#endif  // SABLOCK_REPORT_JSON_H_
