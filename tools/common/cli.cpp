#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(_WIN32)
#include <process.h>
#define PDT_TOOLS_GETPID _getpid
#else
#include <unistd.h>
#define PDT_TOOLS_GETPID getpid
#endif

namespace pdt::tools {

int usage(const CliSpec& spec) {
  std::fputs(spec.usage, stderr);
  return kExitUsage;
}

bool standard_flag(const CliSpec& spec, std::string_view arg,
                   int* exit_code) {
  if (arg == "-h" || arg == "--help") {
    std::fputs(spec.usage, stdout);
    *exit_code = kExitOk;
    return true;
  }
  if (arg == "--version") {
    std::printf("%s %s\n", spec.tool, kToolsVersion);
    *exit_code = kExitOk;
    return true;
  }
  return false;
}

namespace {

/// Print "<tool>: <flag>=<text>: want <what>" and return false.
bool reject_flag(const CliSpec& spec, std::string_view flag,
                 std::string_view text, const std::string& what) {
  std::fprintf(stderr, "%s: %.*s=%.*s: want %s\n", spec.tool,
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(text.size()), text.data(), what.c_str());
  return false;
}

std::string number_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

bool parse_finite(std::string_view text, double* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

bool flag_number(const CliSpec& spec, std::string_view flag,
                 std::string_view text, double lo, double hi, double* out,
                 bool open) {
  double v = 0.0;
  if (parse_finite(text, &v) &&
      (open ? v > lo && v < hi : v >= lo && v <= hi)) {
    *out = v;
    return true;
  }
  return reject_flag(spec, flag, text,
                     "a finite number in " + std::string(open ? "(" : "[") +
                         number_text(lo) + ", " + number_text(hi) +
                         (open || std::isinf(hi) ? ")" : "]"));
}

bool flag_int(const CliSpec& spec, std::string_view flag,
              std::string_view text, std::int64_t lo, std::int64_t hi,
              std::int64_t* out) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc() && ptr == end && v >= lo && v <= hi) {
    *out = v;
    return true;
  }
  return reject_flag(spec, flag, text,
                     "an integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return in.good() || in.eof();
}

bool load_json_file(const CliSpec& spec, const std::string& path,
                    JsonValue* root) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "%s: cannot open %s\n", spec.tool, path.c_str());
    return false;
  }
  std::string error;
  if (!json_parse(text, root, &error)) {
    std::fprintf(stderr, "%s: %s: %s\n", spec.tool, path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

bool write_file_atomic(const CliSpec& spec, const std::string& path,
                       const std::string& content) {
  const std::string tmp =
      path + ".tmp" + std::to_string(PDT_TOOLS_GETPID());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (os) os << content << std::flush;
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", spec.tool, path.c_str());
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "%s: cannot write %s\n", spec.tool, path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace pdt::tools
