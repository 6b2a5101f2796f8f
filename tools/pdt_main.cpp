// pdt — the offline analysis CLI over the JSON artifacts the bench
// harnesses write. One binary, five commands:
//
//   pdt report   render reports as deterministic markdown
//   pdt diff     gate the virtual clock against a committed baseline
//   pdt replay   deterministic what-if replay of pdt-events-v1 logs
//   pdt trend    the pdt-runs-v1 registry and its host/virtual gate
//   pdt tree     inspect, compare and re-evaluate pdt-model-v1 models
//
// `pdt <command> --help` prints the command's usage. Exit codes follow
// the suite convention in common/cli.hpp.
#include <cstdio>
#include <string_view>

#include "commands.hpp"
#include "common/cli.hpp"

namespace {

constexpr pdt::tools::CliSpec kSpec = {
    "pdt",
    "usage: pdt <command> [args]...\n"
    "\n"
    "  report   render pdtree JSON reports as deterministic markdown\n"
    "  diff     gate the virtual clock against a committed baseline\n"
    "  replay   deterministic what-if replay of pdt-events-v1 logs\n"
    "  trend    the cross-run perf registry and its changepoint gate\n"
    "  tree     inspect, compare and re-evaluate pdt-model-v1 models\n"
    "\n"
    "  pdt <command> --help   show the command's usage\n"
    "  -h, --help             show this help\n"
    "  --version              print the tool-suite version\n",
};

struct Command {
  std::string_view name;
  int (*run)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"report", pdt::tools::report_command},
    {"diff", pdt::tools::diff_command},
    {"replay", pdt::tools::replay_command},
    {"trend", pdt::tools::trend_command},
    {"tree", pdt::tools::tree_command},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return pdt::tools::usage(kSpec);
  for (const Command& cmd : kCommands) {
    if (argv[1] == cmd.name) return cmd.run(argc - 1, argv + 1);
  }
  int code = pdt::tools::kExitOk;
  if (pdt::tools::standard_flag(kSpec, argv[1], &code)) return code;
  std::fprintf(stderr, "pdt: unknown command '%s'\n", argv[1]);
  return pdt::tools::usage(kSpec);
}
