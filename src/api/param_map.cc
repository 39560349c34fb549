#include "api/param_map.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace sablock::api {

Status ParamMap::Parse(const std::string& text, ParamMap* out) {
  *out = ParamMap();
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return Status::Ok();
  for (const std::string& entry : Split(trimmed, ',')) {
    std::string_view field = Trim(entry);
    if (field.empty()) continue;
    size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return Status::Error("param '" + std::string(field) +
                           "': expected key=value");
    }
    std::string key(Trim(field.substr(0, eq)));
    std::string value(Trim(field.substr(eq + 1)));
    if (key.empty()) {
      return Status::Error("param '" + std::string(field) + "': empty key");
    }
    if (!out->values_.emplace(key, std::move(value)).second) {
      return Status::Error("param '" + key + "': given more than once");
    }
  }
  return Status::Ok();
}

int ParamMap::GetInt(const std::string& key, int fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX) {
    RecordError("param '" + key + "': expected integer, got '" + it->second +
                "'");
    return fallback;
  }
  return static_cast<int>(v);
}

uint64_t ParamMap::GetUint64(const std::string& key, uint64_t fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE ||
      it->second[0] == '-') {
    RecordError("param '" + key + "': expected unsigned integer, got '" +
                it->second + "'");
    return fallback;
  }
  return static_cast<uint64_t>(v);
}

double ParamMap::GetDouble(const std::string& key, double fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    RecordError("param '" + key + "': expected number, got '" + it->second +
                "'");
    return fallback;
  }
  return v;
}

std::string ParamMap::GetString(const std::string& key, std::string fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  return it->second;
}

std::vector<std::string> ParamMap::GetStringList(
    const std::string& key, std::vector<std::string> fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  std::vector<std::string> parts;
  for (const std::string& part : Split(it->second, '+')) {
    std::string trimmed(Trim(part));
    if (!trimmed.empty()) parts.push_back(std::move(trimmed));
  }
  return parts;
}

Status ParamMap::Finish() const {
  if (!error_.ok()) return error_;
  std::string unknown;
  for (const auto& [key, value] : values_) {
    if (consumed_.count(key) > 0) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "'" + key + "'";
  }
  if (!unknown.empty()) {
    return Status::Error("unknown param(s) " + unknown);
  }
  return Status::Ok();
}

void ParamMap::RecordError(std::string message) {
  if (error_.ok()) error_ = Status::Error(std::move(message));
}

}  // namespace sablock::api
