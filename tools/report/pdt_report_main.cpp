// pdt-report — render pdtree JSON reports as markdown.
//
// Accepts pdt-bench-v1 envelopes (what the bench binaries write) and bare
// pdt-metrics-v1 / pdt-comm-v1 / pdt-mem-v1 / pdt-host-v1 / pdt-replay-v1
// / pdt-trend-v1 objects.
// Output is deterministic: the same inputs always produce byte-identical
// markdown. Exit codes follow the suite convention in common/cli.hpp.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "report/report.hpp"

namespace {

constexpr pdt::tools::CliSpec kSpec = {
    "pdt-report",
    "usage: pdt-report [-o out.md] [--section <name>]... <report.json>...\n"
    "\n"
    "Render pdt-bench-v1 / pdt-metrics-v1 / pdt-comm-v1 / pdt-mem-v1 /\n"
    "pdt-host-v1 / pdt-replay-v1 / pdt-trend-v1 JSON reports as\n"
    "deterministic markdown.\n"
    "\n"
    "  -o out.md        write to out.md instead of stdout (atomic:\n"
    "                   temp file + rename)\n"
    "  --section NAME   render only this section (repeatable); report\n"
    "                   headers are always kept\n"
    "  --list-sections  print the selectable section names and exit\n"
    "  -h, --help       show this help\n"
    "  --version        print the tool-suite version\n",
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pdt::tools;
  std::string out_path;
  std::vector<std::string> files;
  RenderOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    int code = kExitOk;
    if (standard_flag(kSpec, arg, &code)) return code;
    if (arg == "-o") {
      if (i + 1 >= argc) return usage(kSpec);
      out_path = argv[++i];
    } else if (arg == "--section") {
      if (i + 1 >= argc) return usage(kSpec);
      const std::string name = argv[++i];
      bool known = false;
      for (const char* s : kReportSections) known = known || name == s;
      if (!known) {
        std::fprintf(stderr,
                     "pdt-report: unknown section \"%s\" "
                     "(--list-sections shows the choices)\n",
                     name.c_str());
        return kExitUsage;
      }
      opt.sections.push_back(name);
    } else if (arg == "--list-sections") {
      for (const char* s : kReportSections) std::printf("%s\n", s);
      return kExitOk;
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) return usage(kSpec);

  std::vector<ReportInput> inputs;
  for (const std::string& path : files) {
    ReportInput in;
    in.name = path;
    if (!load_json_file(kSpec, path, &in.root)) return kExitUsage;
    inputs.push_back(std::move(in));
  }

  bool ok = false;
  if (out_path.empty()) {
    ok = render_report(inputs, std::cout, opt);
  } else {
    std::ostringstream os;
    ok = render_report(inputs, os, opt);
    if (!write_file_atomic(kSpec, out_path, os.str())) return kExitFail;
  }
  return ok ? kExitOk : kExitFail;
}
