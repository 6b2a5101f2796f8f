#include "common/cli.hpp"

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
