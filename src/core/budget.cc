#include "core/budget.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace sablock::core {

namespace {

bool IsUnlimited(std::string_view value) {
  std::string_view text = Trim(value);
  return text == "inf" || text == "unlimited";
}

Status ParseUint64(const std::string& term, std::string_view value,
                   uint64_t* out) {
  std::string text(Trim(value));
  if (IsUnlimited(text)) {
    *out = Budget::kUnlimitedPairs;
    return Status::Ok();
  }
  if (text.empty() || text[0] == '-') {
    return Status::Error("budget term '" + term +
                         "': expected a non-negative integer, got '" + text +
                         "'");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return Status::Error("budget term '" + term +
                         "': expected a non-negative integer, got '" + text +
                         "'");
  }
  *out = static_cast<uint64_t>(v);
  return Status::Ok();
}

Status ParseDouble(const std::string& term, std::string_view value,
                   double* out) {
  std::string text(Trim(value));
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || end == text.c_str() || *end != '\0' ||
      !std::isfinite(v)) {
    return Status::Error("budget term '" + term +
                         "': expected a number, got '" + text + "'");
  }
  *out = v;
  return Status::Ok();
}

}  // namespace

StatusOr<Budget> Budget::Parse(const std::string& text) {
  Budget budget;
  Status status = Parse(text, &budget);
  if (!status.ok()) return status;
  return budget;
}

Status Budget::Parse(const std::string& text, Budget* out) {
  Budget budget;
  if (!Trim(text).empty()) {
    for (const std::string& part : Split(text, ',')) {
      std::string_view term = Trim(part);
      if (term.empty()) {
        return Status::Error("budget: empty term in '" + text + "'");
      }
      size_t eq = term.find('=');
      if (eq == std::string_view::npos) {
        return Status::Error("budget term '" + std::string(term) +
                             "': expected key=value");
      }
      std::string key = ToLower(Trim(term.substr(0, eq)));
      std::string_view value = term.substr(eq + 1);
      if (key == "pairs") {
        Status s = ParseUint64(key, value, &budget.pairs);
        if (!s.ok()) return s;
        if (budget.pairs == 0) {
          return Status::Error("budget term 'pairs': must be >= 1");
        }
      } else if (key == "seconds") {
        if (IsUnlimited(value)) {
          budget.seconds = 0.0;  // no time limit
          continue;
        }
        Status s = ParseDouble(key, value, &budget.seconds);
        if (!s.ok()) return s;
        if (budget.seconds <= 0.0) {
          return Status::Error("budget term 'seconds': must be > 0");
        }
      } else if (key == "recall-target") {
        Status s = ParseDouble(key, value, &budget.recall_target);
        if (!s.ok()) return s;
        if (budget.recall_target <= 0.0 || budget.recall_target > 1.0) {
          return Status::Error(
              "budget term 'recall-target': must be in (0, 1]");
        }
      } else {
        return Status::Error("budget: unknown term '" + key +
                             "' (known: pairs, seconds, recall-target)");
      }
    }
  }
  *out = budget;
  return Status::Ok();
}

std::string Budget::ToString() const {
  std::string text;
  auto append = [&](const std::string& term) {
    if (!text.empty()) text += ',';
    text += term;
  };
  if (pairs != kUnlimitedPairs) append("pairs=" + std::to_string(pairs));
  if (seconds > 0.0) append("seconds=" + FormatDouble(seconds, 3));
  if (recall_target > 0.0) {
    append("recall-target=" + FormatDouble(recall_target, 3));
  }
  return text;
}

}  // namespace sablock::core
