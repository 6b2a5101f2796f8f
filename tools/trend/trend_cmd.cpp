// pdt trend — cross-run performance history over the pdt-runs-v1
// registry (bench/history/runs.jsonl by default).
//
//   pdt trend append  [opts] <bench.json>...   fold one run's envelopes
//                                              (repeats + optional replay
//                                              reports) into ONE record
//   pdt trend ingest  [opts] <artifact>...     one record PER artifact
//                                              (envelope or committed
//                                              pdt diff baseline)
//   pdt trend list    [opts]                   show the registry
//   pdt trend check   [opts]                   changepoint/drift gate
//   pdt trend explain [opts]                   attribute a moved tuple
//
// The tool never reads a clock: timestamps enter via --stamp, so every
// output is a pure function of the inputs (the suite's determinism
// contract). The registry is "append-only" in spirit — append/ingest
// rewrite the whole file atomically with the new records at the end, so
// a crash never leaves a torn line.
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "commands.hpp"
#include "common/cli.hpp"
#include "trend/trend.hpp"

namespace pdt::tools {
namespace {

constexpr CliSpec kSpec = {
    "pdt trend",
    "usage: pdt trend append  [--registry F] [--stamp TS] [--label L] "
    "<bench.json>...\n"
    "       pdt trend ingest  [--registry F] [--stamp TS] [--label L] "
    "<artifact.json>...\n"
    "       pdt trend list    [--registry F]\n"
    "       pdt trend check   [--registry F] [--window N] [--tol T]\n"
    "                         [--mad-k K] [--vtol T] [--top N] [-o out.json]\n"
    "       pdt trend explain [--registry F] [--tuple SUBSTR] [--top N]\n"
    "\n"
    "Maintain and analyze the cross-run perf registry (pdt-runs-v1, one\n"
    "JSONL record per harness run, each stamped with the producing\n"
    "build's fingerprint).\n"
    "\n"
    "append folds all inputs into one record: virtual tuples from their\n"
    "speedup_series, host tuples collapsed to median-of-k + MAD across\n"
    "the inputs (one envelope per repeat) with per-(phase, level) cells,\n"
    "blame edges from pdt-replay-v1 inputs. ingest makes one record per\n"
    "input instead (bootstrap from committed pdt-diff-baseline-v1 files).\n"
    "\n"
    "check gates the latest record against the trailing window of each\n"
    "tuple's history. Host tuples use the noise band\n"
    "  band = max(tol * win_median, mad_k * 1.4826 * (win_mad + cur_mad))\n"
    "(DESIGN.md section 9); virtual tuples use the plain relative\n"
    "tolerance --vtol. Slower past the band = regression (exit 1);\n"
    "faster = improvement (reported, exit 0); a tuple absent from the\n"
    "latest run is a warning, not a failure. With -o, writes a\n"
    "pdt-trend-v1 report (series, changepoints, explain summaries) for\n"
    "pdt report.\n"
    "\n"
    "  --registry F   registry path (default bench/history/runs.jsonl)\n"
    "  --stamp TS     timestamp stored in new records (default empty;\n"
    "                 the tool never reads a clock)\n"
    "  --label L      free-form label for new records (e.g. CI run id)\n"
    "  --window N     trailing runs per baseline window (default 5)\n"
    "  --tol T        host band relative floor (default 0.5)\n"
    "  --mad-k K      host sigmas of jitter to forgive (default 5)\n"
    "  --vtol T       virtual relative tolerance (default 0.02)\n"
    "  --top N        cells/edges ranked per explanation (default 5)\n"
    "  --tuple S      explain only tuples whose name contains S\n"
    "  -o out.json    write the pdt-trend-v1 report to out.json (atomic)\n"
    "  -h, --help     show this help\n"
    "  --version      print the tool-suite version\n",
};

/// Read the registry at `path`; a missing file is an empty registry (the
/// bootstrap case), any other read or parse problem is fatal.
bool load_registry(const std::string& path, std::vector<RunRecord>* out) {
  std::string text;
  if (!read_file(path, &text)) {
    out->clear();
    return true;
  }
  std::string error;
  if (!parse_registry(text, out, &error)) {
    std::fprintf(stderr, "%s: %s: %s\n", kSpec.tool, path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int trend_command(int argc, char** argv) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  if (argc < 2) return usage(kSpec);

  const std::string_view cmd = argv[1];
  {
    int code = kExitOk;
    if (standard_flag(kSpec, cmd, &code)) return code;
  }
  if (cmd != "append" && cmd != "ingest" && cmd != "list" && cmd != "check" &&
      cmd != "explain") {
    std::fprintf(stderr, "%s: unknown command '%.*s'\n", kSpec.tool,
                 static_cast<int>(cmd.size()), cmd.data());
    return usage(kSpec);
  }

  std::string registry_path = "bench/history/runs.jsonl";
  std::string stamp;
  std::string label;
  std::string tuple_filter;
  std::string out_path;
  TrendOptions opt;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    int code = kExitOk;
    if (standard_flag(kSpec, arg, &code)) return code;
    const auto number = [&](double* dst) {
      return flag_number(kSpec, arg, argv[++i], 0.0, kInf, dst);
    };
    const auto count = [&](std::int64_t lo, int* dst) {
      std::int64_t v = 0;
      if (!flag_int(kSpec, arg, argv[++i], lo, kIntMax, &v)) return false;
      *dst = static_cast<int>(v);
      return true;
    };
    if (arg == "--registry") {
      if (i + 1 >= argc) return usage(kSpec);
      registry_path = argv[++i];
    } else if (arg == "--stamp") {
      if (i + 1 >= argc) return usage(kSpec);
      stamp = argv[++i];
    } else if (arg == "--label") {
      if (i + 1 >= argc) return usage(kSpec);
      label = argv[++i];
    } else if (arg == "--tuple") {
      if (i + 1 >= argc) return usage(kSpec);
      tuple_filter = argv[++i];
    } else if (arg == "-o") {
      if (i + 1 >= argc) return usage(kSpec);
      out_path = argv[++i];
    } else if (arg == "--window" || arg == "--top" || arg == "--tol" ||
               arg == "--mad-k" || arg == "--vtol") {
      if (i + 1 >= argc) return usage(kSpec);
      const bool ok = arg == "--window" ? count(1, &opt.window)
                      : arg == "--top"  ? count(0, &opt.top_cells)
                      : arg == "--tol"  ? number(&opt.tol)
                      : arg == "--mad-k" ? number(&opt.mad_k)
                                         : number(&opt.vtol);
      if (!ok) return kExitUsage;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(kSpec);
    } else {
      files.emplace_back(arg);
    }
  }

  std::vector<RunRecord> runs;
  if (!load_registry(registry_path, &runs)) return kExitUsage;

  if (cmd == "append" || cmd == "ingest") {
    if (files.empty()) return usage(kSpec);
    std::vector<ReportInput> inputs;
    if (!load_inputs(kSpec, files, &inputs)) return kExitUsage;
    std::int64_t next_seq = runs.empty() ? 1 : runs.back().seq + 1;
    std::size_t added = 0;
    if (cmd == "append") {
      RunRecord rec = record_from_envelopes(inputs);
      if (rec.virt.empty() && rec.host.empty() && rec.model.empty() &&
          rec.ft.empty()) {
        std::fprintf(stderr,
                     "%s: no speedup_series, host, model or ft tuples found "
                     "in the inputs\n",
                     kSpec.tool);
        return kExitFail;
      }
      rec.seq = next_seq;
      rec.timestamp = stamp;
      rec.label = label;
      runs.push_back(std::move(rec));
      added = 1;
    } else {
      for (const ReportInput& in : inputs) {
        RunRecord rec;
        std::string error;
        if (!record_from_artifact(in, &rec, &error)) {
          std::fprintf(stderr, "%s: %s: %s\n", kSpec.tool, in.name.c_str(),
                       error.c_str());
          return kExitUsage;
        }
        rec.seq = next_seq++;
        rec.timestamp = stamp;
        rec.label = label;
        runs.push_back(std::move(rec));
        ++added;
      }
    }
    if (!write_file_atomic(kSpec, registry_path, registry_text(runs))) {
      return kExitFail;
    }
    std::fprintf(stderr, "%s: %s now holds %zu run(s) (+%zu)\n", kSpec.tool,
                 registry_path.c_str(), runs.size(), added);
    return kExitOk;
  }

  if (cmd == "list") {
    run_trend_list(runs, std::cout);
    return kExitOk;
  }

  if (cmd == "check") {
    std::string doc;
    const int regressions =
        run_trend_check(runs, opt, std::cout, out_path.empty() ? nullptr : &doc);
    if (!out_path.empty() &&
        !write_file_atomic(kSpec, out_path, doc)) {
      return kExitFail;
    }
    return regressions == 0 ? kExitOk : kExitFail;
  }

  // explain
  return run_trend_explain(runs, tuple_filter, opt, std::cout) ? kExitOk
                                                               : kExitFail;
}

}  // namespace pdt::tools
