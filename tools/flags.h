// Command-line flags of sablock_cli and sablock_serve: "--name=value",
// "--name value" (spec strings often carry '=' themselves) and a bare
// "--name", which reads as "true". Arguments without a leading "--" are
// ignored.

#ifndef SABLOCK_TOOLS_FLAGS_H_
#define SABLOCK_TOOLS_FLAGS_H_

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

namespace sablock::tools {

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }

  /// The value of --NAME as an int in [min, INT_MAX], or `fallback` when
  /// the flag is absent. Anything else — text, a bare flag, a negative
  /// or overflowing number — prints `error: --NAME ...` and exits 1, so
  /// a bad count never reaches a generator or the wire as 0 or as a
  /// wrapped size. Read integer flags before starting any thread.
  int GetInt(const std::string& name, int fallback, int min = 0) const {
    auto it = values.find(name);
    if (it == values.end()) return fallback;
    const std::string& text = it->second;
    int value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < min) {
      std::fprintf(stderr,
                   "error: --%s expects an integer in [%d, %d], got '%s'\n",
                   name.c_str(), min, INT_MAX, text.c_str());
      std::exit(1);
    }
    return value;
  }

  bool Has(const std::string& name) const { return values.count(name) > 0; }
};

inline Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* eq = std::strchr(arg, '=');
    if (eq != nullptr) {
      flags.values[std::string(arg + 2, eq)] = eq + 1;
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags.values[arg + 2] = argv[++i];
    } else {
      flags.values[arg + 2] = "true";
    }
  }
  return flags;
}

}  // namespace sablock::tools

#endif  // SABLOCK_TOOLS_FLAGS_H_
