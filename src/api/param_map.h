#ifndef SABLOCK_API_PARAM_MAP_H_
#define SABLOCK_API_PARAM_MAP_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sablock::api {

/// Typed view over the parameter section of a blocker spec string
/// ("key=val,key=val"). Factories read parameters through the Get*
/// accessors; each access marks its key consumed and records the first
/// type error. After the factory runs, Finish() reports that error or any
/// key the factory never consumed, so misspelled parameters fail loudly
/// instead of being silently ignored.
class ParamMap {
 public:
  /// Parses "key=val,key=val" (both sides trimmed; empty input is an empty
  /// map). Rejects entries without '=', empty keys, and duplicate keys.
  static Status Parse(const std::string& text, ParamMap* out);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Inserts a default; no-op when the key is already present. Lets a
  /// caller (the CLI's --attrs) layer a default under an explicit spec.
  /// Finish() checks such a key like any other.
  void SetIfAbsent(const std::string& key, const std::string& value) {
    values_.emplace(key, value);
  }

  int GetInt(const std::string& key, int fallback);
  uint64_t GetUint64(const std::string& key, uint64_t fallback);
  /// Finite values only: nan and inf are type errors, so no range check
  /// of the form `x <= 0 || x > 1` can be slipped past.
  double GetDouble(const std::string& key, double fallback);
  std::string GetString(const std::string& key, std::string fallback);

  /// '+'-separated list value, e.g. "attrs=authors+title" (',' separates
  /// whole parameters, so list elements use '+'). Empty elements dropped.
  std::vector<std::string> GetStringList(const std::string& key,
                                         std::vector<std::string> fallback);

  /// Maps the value onto one of the allowed spellings; anything else is
  /// recorded as an error listing the valid options.
  template <typename T>
  T GetEnum(const std::string& key, T fallback,
            std::initializer_list<std::pair<const char*, T>> allowed) {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_.insert(key);
    std::string options;
    for (const auto& [spelling, value] : allowed) {
      if (it->second == spelling) return value;
      if (!options.empty()) options += "|";
      options += spelling;
    }
    RecordError("param '" + key + "': expected one of " + options +
                ", got '" + it->second + "'");
    return fallback;
  }

  /// First accessor error if any, else an unknown-key error for keys never
  /// consumed, else OK.
  Status Finish() const;

 private:
  void RecordError(std::string message);

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  Status error_;
};

}  // namespace sablock::api

#endif  // SABLOCK_API_PARAM_MAP_H_
