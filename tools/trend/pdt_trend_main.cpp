// pdt-trend — cross-run performance history over the pdt-runs-v1
// registry (bench/history/runs.jsonl by default).
//
//   pdt-trend append  [opts] <bench.json>...   fold one run's envelopes
//                                              (repeats + optional replay
//                                              reports) into ONE record
//   pdt-trend ingest  [opts] <artifact>...     one record PER artifact
//                                              (envelope or committed
//                                              pdt-diff/host baseline)
//   pdt-trend list    [opts]                   show the registry
//   pdt-trend check   [opts]                   changepoint/drift gate
//   pdt-trend explain [opts]                   attribute a moved tuple
//
// The tool never reads a clock: timestamps enter via --stamp, so every
// output is a pure function of the inputs (the suite's determinism
// contract). The registry is "append-only" in spirit — append/ingest
// rewrite the whole file atomically with the new records at the end, so
// a crash never leaves a torn line.
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "trend/trend.hpp"

namespace {

constexpr pdt::tools::CliSpec kSpec = {
    "pdt-trend",
    "usage: pdt-trend append  [--registry F] [--stamp TS] [--label L] "
    "<bench.json>...\n"
    "       pdt-trend ingest  [--registry F] [--stamp TS] [--label L] "
    "<artifact.json>...\n"
    "       pdt-trend list    [--registry F]\n"
    "       pdt-trend check   [--registry F] [--window N] [--tol T]\n"
    "                         [--mad-k K] [--vtol T] [--top N] [-o out.json]\n"
    "       pdt-trend explain [--registry F] [--tuple SUBSTR] [--top N]\n"
    "\n"
    "Maintain and analyze the cross-run perf registry (pdt-runs-v1, one\n"
    "JSONL record per harness run, each stamped with the producing\n"
    "build's fingerprint).\n"
    "\n"
    "append folds all inputs into one record: virtual tuples from their\n"
    "speedup_series, host tuples collapsed to median-of-k + MAD across\n"
    "the inputs (one envelope per repeat) with per-(phase, level) cells,\n"
    "blame edges from pdt-replay-v1 inputs. ingest makes one record per\n"
    "input instead (bootstrap from committed baselines).\n"
    "\n"
    "check gates the latest record against the trailing window of each\n"
    "tuple's history. Host tuples use the pdt-diff --host band\n"
    "  band = max(tol * win_median, mad_k * 1.4826 * (win_mad + cur_mad))\n"
    "(see `pdt-diff --host --help` / DESIGN.md section 9); virtual\n"
    "tuples use the plain relative tolerance --vtol. Slower past the\n"
    "band = regression (exit 1); faster = improvement (reported, exit\n"
    "0); a tuple absent from the latest run is a warning, not a\n"
    "failure. With -o, writes a pdt-trend-v1 report (series,\n"
    "changepoints, explain summaries) for pdt-report.\n"
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
bool load_registry(const std::string& path,
                   std::vector<pdt::tools::RunRecord>* out) {
  std::string text;
  if (!pdt::tools::read_file(path, &text)) {
    out->clear();
    return true;
  }
  std::string error;
  if (!pdt::tools::parse_registry(text, out, &error)) {
    std::fprintf(stderr, "pdt-trend: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdt::tools;
  if (argc < 2) return usage(kSpec);

  const std::string_view cmd = argv[1];
  {
    int code = kExitOk;
    if (standard_flag(kSpec, cmd, &code)) return code;
  }
  if (cmd != "append" && cmd != "ingest" && cmd != "list" && cmd != "check" &&
      cmd != "explain") {
    std::fprintf(stderr, "pdt-trend: unknown command '%.*s'\n",
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
    const auto num_flag = [&](double* dst, double min) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      *dst = std::strtod(argv[++i], &end);
      return end != argv[i] && *end == '\0' && *dst >= min;
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
    } else if (arg == "--window") {
      double w = 0.0;
      if (!num_flag(&w, 1.0)) return usage(kSpec);
      opt.window = static_cast<int>(w);
    } else if (arg == "--top") {
      double t = 0.0;
      if (!num_flag(&t, 0.0)) return usage(kSpec);
      opt.top_cells = static_cast<int>(t);
    } else if (arg == "--tol") {
      if (!num_flag(&opt.tol, 0.0)) return usage(kSpec);
    } else if (arg == "--mad-k") {
      if (!num_flag(&opt.mad_k, 0.0)) return usage(kSpec);
    } else if (arg == "--vtol") {
      if (!num_flag(&opt.vtol, 0.0)) return usage(kSpec);
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
    for (const std::string& path : files) {
      ReportInput in;
      in.name = path;
      if (!load_json_file(kSpec, path, &in.root)) return kExitUsage;
      inputs.push_back(std::move(in));
    }
    std::int64_t next_seq = runs.empty() ? 1 : runs.back().seq + 1;
    std::size_t added = 0;
    if (cmd == "append") {
      RunRecord rec = record_from_envelopes(inputs);
      if (rec.virt.empty() && rec.host.empty() && rec.model.empty() &&
          rec.ft.empty()) {
        std::fprintf(stderr,
                     "pdt-trend: no speedup_series, host, model or ft tuples "
                     "found in the inputs\n");
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
          std::fprintf(stderr, "pdt-trend: %s: %s\n", in.name.c_str(),
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
    std::fprintf(stderr, "pdt-trend: %s now holds %zu run(s) (+%zu)\n",
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
