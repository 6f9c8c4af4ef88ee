// Flag parsing shared by the command-line tools.  Each helper strips what
// it matched from `args`, so whatever is left over is positional.  A flag
// given without its value calls the tool's own usage(), which prints that
// tool's usage text and exits with status 2.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace lgg::cli {

/// Print the running tool's usage text (after "error: <message>" when a
/// message is given) and exit with status 2.  Every tool that includes
/// this header defines it.
[[noreturn]] void usage(const char* message = nullptr);

/// Strip a bare "--flag"; true when present.
inline bool take_flag(std::vector<std::string>& args, const std::string& flag) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// Strip "--flag value" / "--flag=value"; true when present.
inline bool take_value(std::vector<std::string>& args, const std::string& flag,
                       std::string& value) {
  const std::string joined = flag + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      if (it + 1 == args.end()) usage(("missing value for " + flag).c_str());
      value = *(it + 1);
      args.erase(it, it + 2);
      return true;
    }
    if (it->compare(0, joined.size(), joined) == 0) {
      value = it->substr(joined.size());
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// Strip "--flag" (bare) or "--flag=value", never consuming the next
/// token (for flags whose value is optional).  True when present; value
/// is "-" for the bare form.
inline bool take_optional_value(std::vector<std::string>& args,
                                const std::string& flag, std::string& value) {
  const std::string joined = flag + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      value = "-";
      args.erase(it);
      return true;
    }
    if (it->compare(0, joined.size(), joined) == 0) {
      value = it->substr(joined.size());
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// take_value parsed as an unsigned integer; `fallback` when absent.
inline std::uint64_t take_u64(std::vector<std::string>& args,
                              const std::string& flag, std::uint64_t fallback) {
  std::string value;
  if (!take_value(args, flag, value)) return fallback;
  return std::strtoull(value.c_str(), nullptr, 10);
}

}  // namespace lgg::cli
