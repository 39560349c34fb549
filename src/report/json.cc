#include "report/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace sablock::report {

namespace {

void AppendDouble(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  SABLOCK_CHECK(ec == std::errc());
  std::string_view text(buf, static_cast<size_t>(ptr - buf));
  out.append(text);
  // to_chars' shortest form of an integral double has no '.', 'e' or
  // "inf"/"nan" marker; add ".0" so the value parses back as a double and
  // integer counters stay visually distinct from measurements.
  if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

}  // namespace

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

double Json::double_value() const {
  switch (type_) {
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    case Type::kDouble:
      return double_;
    default:
      SABLOCK_CHECK_MSG(false, "Json::double_value on non-number");
      return 0.0;
  }
}

Json& Json::Append(Json value) {
  SABLOCK_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(value));
  return *this;
}

const std::vector<Json>& Json::items() const {
  SABLOCK_CHECK(type_ == Type::kArray);
  return array_;
}

Json& Json::Set(std::string key, Json value) {
  SABLOCK_CHECK(type_ == Type::kObject);
  for (auto& [existing, slot] : object_) {
    if (existing == key) {
      slot = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [existing, value] : object_) {
    if (existing == key) return &value;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  SABLOCK_CHECK(type_ == Type::kObject);
  return object_;
}

size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * level), ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(int_);
      break;
    case Type::kUint:
      out += std::to_string(uint_);
      break;
    case Type::kDouble:
      AppendDouble(out, double_);
      break;
    case Type::kString:
      AppendJsonEscaped(out, string_);
      break;
    case Type::kArray: {
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        AppendJsonEscaped(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

Status WriteJsonFile(const Json& value, const std::string& path,
                     int indent) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Error("cannot open '" + path + "' for writing");
  }
  std::string text = value.Dump(indent);
  text += '\n';
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::Error("short write to '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace sablock::report
