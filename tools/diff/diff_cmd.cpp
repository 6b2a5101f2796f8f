// pdt diff — performance-regression gate over pdt-bench-v1 reports.
//
//   pdt diff [--tol T] <baseline.json> <bench.json>...
//       Compare every baseline tuple against the bench reports; exit 1
//       if any tuple drifts past the relative tolerance T (default 1e-9,
//       i.e. "the virtual clock must not move") or is missing.
//
//   pdt diff --extract [--procs 1,4,8] [-o baseline.json] <bench.json>...
//       Produce a pdt-diff-baseline-v1 file from the reports'
//       speedup_series sections (optionally keeping only the listed
//       processor counts), for committing next to the code.
//
// Host wall time is gated by `pdt trend check` instead (DESIGN.md §9).
// Exit codes follow the suite convention in common/cli.hpp.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "commands.hpp"
#include "common/cli.hpp"
#include "diff/diff.hpp"

namespace pdt::tools {
namespace {

constexpr CliSpec kSpec = {
    "pdt diff",
    "usage: pdt diff [--tol T] <baseline.json> <bench.json>...\n"
    "       pdt diff --extract [--procs P,P,...] [-o out.json] "
    "<bench.json>...\n"
    "\n"
    "Gate the bench reports' deterministic virtual-clock tuples against a\n"
    "committed baseline (exit 1 on drift past T), or extract a fresh\n"
    "baseline. Host wall time is gated by `pdt trend check`.\n"
    "\n"
    "  --tol T       relative tolerance (default 1e-9)\n"
    "  --procs P,..  keep only these processor counts when extracting\n"
    "  -o out.json   write the extracted baseline to out.json (atomic)\n"
    "  -h, --help    show this help\n"
    "  --version     print the tool-suite version\n",
};

}  // namespace

int diff_command(int argc, char** argv) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool extract = false;
  double tol = 1e-9;
  std::string out_path;
  std::vector<std::int64_t> procs_filter;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    int code = kExitOk;
    if (standard_flag(kSpec, arg, &code)) return code;
    if (arg == "--extract") {
      extract = true;
    } else if (arg == "--tol") {
      if (i + 1 >= argc) return usage(kSpec);
      if (!flag_number(kSpec, arg, argv[++i], 0.0, kInf, &tol)) {
        return kExitUsage;
      }
    } else if (arg == "--procs") {
      if (i + 1 >= argc) return usage(kSpec);
      const std::string_view list = argv[++i];
      for (std::size_t pos = 0; pos <= list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        std::int64_t p = 0;
        if (!flag_int(kSpec, arg, list.substr(pos, comma - pos), 1,
                      std::numeric_limits<int>::max(), &p)) {
          return kExitUsage;
        }
        procs_filter.push_back(p);
        pos = comma + 1;
      }
    } else if (arg == "-o") {
      if (i + 1 >= argc) return usage(kSpec);
      out_path = argv[++i];
    } else {
      files.emplace_back(arg);
    }
  }

  if (extract) {
    if (files.empty()) return usage(kSpec);
    std::vector<ReportInput> inputs;
    if (!load_inputs(kSpec, files, &inputs)) return kExitUsage;
    const std::vector<DiffEntry> entries =
        extract_entries(inputs, procs_filter);
    if (entries.empty()) {
      std::fprintf(stderr, "%s: no speedup_series points found to extract\n",
                   kSpec.tool);
      return kExitFail;
    }
    std::ostringstream doc;
    write_baseline(entries, doc);
    if (out_path.empty()) {
      std::cout << doc.str();
    } else {
      if (!write_file_atomic(kSpec, out_path, doc.str())) return kExitFail;
      std::fprintf(stderr, "%s: wrote %zu tuples to %s\n", kSpec.tool,
                   entries.size(), out_path.c_str());
    }
    return kExitOk;
  }

  if (files.size() < 2) return usage(kSpec);
  std::vector<ReportInput> inputs;
  if (!load_inputs(kSpec, files, &inputs)) return kExitUsage;
  std::vector<DiffEntry> baseline;
  std::string error;
  if (!parse_baseline(inputs[0].root, &baseline, &error)) {
    std::fprintf(stderr, "%s: %s: %s\n", kSpec.tool, files[0].c_str(),
                 error.c_str());
    return kExitUsage;
  }
  // The baseline is no pdt-bench-v1 envelope, so it adds no entries.
  const std::vector<DiffEntry> current = extract_entries(inputs, {});
  DiffOptions opt;
  opt.tol = tol;
  return run_diff(baseline, current, opt, std::cout) == 0 ? kExitOk
                                                          : kExitFail;
}

}  // namespace pdt::tools
