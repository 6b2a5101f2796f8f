// Shared command-line plumbing for the offline tools (pdt-report,
// pdt-diff, pdt-replay, pdt-trend): one exit-code convention, uniform
// --help/--version handling, and the hardened load-and-parse step every
// tool performs on its JSON inputs.
//
// Exit-code contract (tested, and relied on by CI):
//   0  success
//   1  gate/verdict failure (regression past tolerance, replay clock
//      mismatch, unrecognized schema) or failure to write output
//   2  usage error, unreadable input, or JSON parse error
#pragma once

#include <string>
#include <string_view>

#include "common/json_value.hpp"

namespace pdt::tools {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFail = 1;
inline constexpr int kExitUsage = 2;

/// One version string for the whole tool suite, bumped with the schemas.
inline constexpr const char* kToolsVersion = "0.11.0";

struct CliSpec {
  const char* tool;   ///< binary name, e.g. "pdt-report"
  const char* usage;  ///< full usage text, newline-terminated
};

/// Print the usage text to stderr; returns kExitUsage so call sites can
/// `return usage(spec);`.
int usage(const CliSpec& spec);

/// Uniform handling of -h/--help/--version. Returns true when `arg` was
/// one of them; `*exit_code` is then the code to exit with (kExitOk).
bool standard_flag(const CliSpec& spec, std::string_view arg, int* exit_code);

/// Read and parse the JSON file at `path` into `*root`. On failure
/// prints "<tool>: <path>: <why>" to stderr and returns false (the
/// caller should exit kExitUsage — bad input, not a failed gate).
bool load_json_file(const CliSpec& spec, const std::string& path,
                    JsonValue* root);

/// Write `content` to `path` crash-safely: stream to `<path>.tmp<pid>`,
/// then rename onto the final path (the tools-side mirror of
/// obs::AtomicFile — the tools deliberately do not link the simulator
/// libraries). On failure prints "<tool>: cannot write <path>" to stderr,
/// removes the temp, and returns false (callers exit kExitFail — output,
/// not input, failed).
bool write_file_atomic(const CliSpec& spec, const std::string& path,
                       const std::string& content);

}  // namespace pdt::tools
