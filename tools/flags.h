// Command-line flags of sablock_cli and sablock_serve: "--name=value",
// "--name value" (spec strings often carry '=' themselves) and a bare
// "--name", which reads as "true". Arguments without a leading "--" are
// ignored; a name the tool does not list is an error.

#ifndef SABLOCK_TOOLS_FLAGS_H_
#define SABLOCK_TOOLS_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
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

/// Parses argv against the tool's flag names. A flag not in `known`
/// prints `error: unknown flag --NAME` and exits 1, so a misspelt or
/// removed flag fails before any work starts instead of being ignored.
inline Flags ParseFlags(int argc, char** argv,
                        std::initializer_list<const char*> known) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* eq = std::strchr(arg, '=');
    std::string name = eq != nullptr ? std::string(arg + 2, eq) : arg + 2;
    if (std::none_of(known.begin(), known.end(),
                     [&name](const char* k) { return name == k; })) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      std::exit(1);
    }
    if (eq != nullptr) {
      flags.values[name] = eq + 1;
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags.values[name] = argv[++i];
    } else {
      flags.values[name] = "true";
    }
  }
  return flags;
}

}  // namespace sablock::tools

#endif  // SABLOCK_TOOLS_FLAGS_H_
