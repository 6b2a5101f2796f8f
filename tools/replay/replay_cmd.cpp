// pdt replay — deterministic what-if replay of pdt-events-v1 logs.
//
//   pdt replay --check <events.json>...
//       Re-execute each log under its recorded constants and verify
//       every per-rank virtual clock (and max_clock) bit-exactly.
//       Exit 1 on any mismatch — the replay identity gate CI runs.
//
//   pdt replay --set t_w=0.22 <events.json>
//       What-if replay: rescale the recorded charges to the overridden
//       constants and report the resulting clocks and blame edges.
//
//   pdt replay --sweep t_s=10:80:10,t_w=0.05:0.2:0.05 <events.json>...
//       Speedup/efficiency surface over the constant grid. A P=1 log
//       among the inputs (matched on meta.n) is the serial reference;
//       without one the work-sum of the replayed log stands in.
//
//   pdt replay --iso --efficiency 0.8 <grid of events.json>
//       Chart the measured isoefficiency curve from a (P, N) grid of
//       logs against the analytic N = E/(1-E) * iso_c * P log2 P.
//
// Exit codes follow the suite convention in common/cli.hpp.
#include <cstdio>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "commands.hpp"
#include "common/cli.hpp"
#include "replay/replay.hpp"

namespace pdt::tools {
namespace {

constexpr CliSpec kSpec = {
    "pdt replay",
    "usage: pdt replay [options] <events.json>...\n"
    "\n"
    "Deterministically re-execute pdt-events-v1 execution logs against\n"
    "arbitrary cost models; emit a pdt-replay-v1 JSON report.\n"
    "\n"
    "  --check            verify the identity replay reproduces every\n"
    "                     recorded per-rank clock bit-exactly (exit 1\n"
    "                     on mismatch)\n"
    "  --set KEY=V        override one cost constant (t_s, t_w, t_c,\n"
    "                     t_io, t_timeout); repeatable\n"
    "  --sweep SPEC       KEY=LO:HI:STEP[,KEY=...] what-if grid\n"
    "  --iso              measured isoefficiency curve from a (P, N)\n"
    "                     grid of logs vs the analytic model\n"
    "  --efficiency E     isoefficiency target (default 0.8)\n"
    "  --top K            blame edges to keep (default 10)\n"
    "  -o out.json        write the report to out.json\n"
    "  -h, --help         show this help\n"
    "  --version          print the tool-suite version\n",
};

}  // namespace

int replay_command(int argc, char** argv) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ReplayOptions opt;
  std::string out_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    int code = kExitOk;
    if (standard_flag(kSpec, arg, &code)) return code;
    if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--set") {
      if (i + 1 >= argc) return usage(kSpec);
      const std::string_view kv = argv[++i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) return usage(kSpec);
      const std::string key(kv.substr(0, eq));
      double v = 0.0;
      if (!flag_number(kSpec, "--set " + key, kv.substr(eq + 1), 0.0, kInf,
                       &v)) {
        return kExitUsage;
      }
      mpsim::CostModel probe;
      std::string error;
      if (!set_cost_constant(&probe, key, v, &error)) {
        std::fprintf(stderr, "%s: %s\n", kSpec.tool, error.c_str());
        return kExitUsage;
      }
      opt.overrides.emplace_back(key, v);
    } else if (arg == "--sweep") {
      if (i + 1 >= argc) return usage(kSpec);
      std::string error;
      if (!parse_sweep_spec(argv[++i], &opt.sweep, &error)) {
        std::fprintf(stderr, "%s: %s\n", kSpec.tool, error.c_str());
        return kExitUsage;
      }
    } else if (arg == "--iso") {
      opt.iso = true;
    } else if (arg == "--efficiency") {
      if (i + 1 >= argc) return usage(kSpec);
      if (!flag_number(kSpec, arg, argv[++i], 0.0, 1.0, &opt.iso_efficiency,
                       /*open=*/true)) {
        return kExitUsage;
      }
    } else if (arg == "--top") {
      if (i + 1 >= argc) return usage(kSpec);
      std::int64_t top = 0;
      if (!flag_int(kSpec, arg, argv[++i], 0, std::numeric_limits<int>::max(),
                    &top)) {
        return kExitUsage;
      }
      opt.blame_top = static_cast<int>(top);
    } else if (arg == "-o") {
      if (i + 1 >= argc) return usage(kSpec);
      out_path = argv[++i];
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) return usage(kSpec);

  std::vector<EventLog> logs;
  for (const std::string& path : files) {
    JsonValue root;
    if (!load_json_file(kSpec, path, &root)) return kExitUsage;
    EventLog log;
    log.name = path;
    std::string error;
    if (!parse_event_log(root, &log, &error)) {
      std::fprintf(stderr, "%s: %s: %s\n", kSpec.tool, path.c_str(),
                   error.c_str());
      return kExitUsage;
    }
    logs.push_back(std::move(log));
  }

  int rc;
  if (out_path.empty()) {
    rc = run_replay(logs, opt, std::cout);
  } else {
    std::ostringstream os;
    rc = run_replay(logs, opt, os);
    if (!write_file_atomic(kSpec, out_path, os.str())) return kExitFail;
  }
  if (rc != 0) {
    std::fprintf(stderr,
                 "%s: CHECK FAILED — replayed clocks diverge from the "
                 "recorded run\n",
                 kSpec.tool);
    return kExitFail;
  }
  return kExitOk;
}

}  // namespace pdt::tools
