// pdt tree — inspect, compare, and re-evaluate pdt-model-v1 classifiers.
//
//   pdt tree inspect <model.json>
//       Rebuild the tree, recompute its digest, print shape / per-level /
//       leaf-purity tables and the split-audit summary.
//
//   pdt tree diff <a.json> <b.json>
//       Exit 0 iff both documents reconstruct byte-identical canonical
//       trees; otherwise print the first divergent canonical node (with
//       each side's audited decision margin) and exit 1. This is the CI
//       model-identity gate: serial and all three parallel formulations
//       must serialize the same digest at every P.
//
//   pdt tree eval <model.json>
//       Regenerate the recorded held-out Quest sample, re-measure
//       accuracy + confusion matrix + per-leaf hits; exit 1 when the
//       recorded accuracy does not reproduce.
//
// Every command validates the document by replaying Tree::expand() over
// the canonical node array; a recorded digest that does not match the
// rebuilt tree is flagged (the recomputed digest wins).
//
// Exit codes follow the suite convention in common/cli.hpp.
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "commands.hpp"
#include "common/cli.hpp"
#include "tree/tree.hpp"

namespace pdt::tools {
namespace {

constexpr CliSpec kSpec = {
    "pdt tree",
    "usage: pdt tree inspect <model.json>\n"
    "       pdt tree diff <a.json> <b.json>\n"
    "       pdt tree eval <model.json>\n"
    "       pdt tree ckpt <ckpt-file-or-dir>\n"
    "\n"
    "Inspect pdt-model-v1 documents written by the bench harnesses\n"
    "(<harness>.<tag>.model.json). The tree is rebuilt from the\n"
    "canonical node array and its digest recomputed — a document is\n"
    "never taken at its word.\n"
    "\n"
    "  inspect   shape, per-level and leaf-purity tables, audit summary\n"
    "  diff      exit 1 + first divergent canonical node unless the two\n"
    "            trees are byte-identical in canonical form\n"
    "  eval      regenerate the held-out Quest sample and re-measure\n"
    "            accuracy; exit 1 unless it reproduces the recorded value\n"
    "  ckpt      validate pdt-ckpt-v1 durable checkpoints (one epoch\n"
    "            file, or a directory of them); exit 1 unless every\n"
    "            epoch would be accepted by a crash-restart resume\n"
    "  -h, --help    show this help\n"
    "  --version     print the tool-suite version\n",
};

int load_model(const std::string& path, ModelDoc* out) {
  JsonValue root;
  if (!load_json_file(kSpec, path, &root)) return kExitUsage;
  out->name = path;
  if (const std::string err = parse_model(root, out); !err.empty()) {
    std::fprintf(stderr, "%s: %s: %s\n", kSpec.tool, path.c_str(),
                 err.c_str());
    return kExitFail;
  }
  return kExitOk;
}

}  // namespace

int tree_command(int argc, char** argv) {
  std::string command;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    int code = kExitOk;
    if (standard_flag(kSpec, arg, &code)) return code;
    if (command.empty()) {
      command = arg;
    } else {
      files.emplace_back(arg);
    }
  }

  if (command == "inspect" || command == "eval") {
    if (files.size() != 1) return usage(kSpec);
    ModelDoc m;
    if (const int code = load_model(files[0], &m); code != kExitOk) {
      return code;
    }
    return command == "inspect" ? run_inspect(m, std::cout)
                                : run_eval(m, std::cout);
  }
  if (command == "ckpt") {
    if (files.size() != 1) return usage(kSpec);
    return run_ckpt(files[0], std::cout);
  }
  if (command == "diff") {
    if (files.size() != 2) return usage(kSpec);
    ModelDoc a;
    ModelDoc b;
    if (const int code = load_model(files[0], &a); code != kExitOk) {
      return code;
    }
    if (const int code = load_model(files[1], &b); code != kExitOk) {
      return code;
    }
    return run_diff(a, b, std::cout);
  }
  return usage(kSpec);
}

}  // namespace pdt::tools
