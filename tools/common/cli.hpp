// Shared command-line plumbing for the `pdt` commands (report, diff,
// replay, trend, tree): one exit-code convention, uniform --help/--version
// handling, one numeric-flag parser, and the hardened load-and-parse step
// every command performs on its JSON inputs.
//
// Exit-code contract (tested, and relied on by CI):
//   0  success
//   1  gate/verdict failure (regression past tolerance, replay clock
//      mismatch, unrecognized schema) or failure to write output
//   2  usage error, unreadable input, or JSON parse error
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "json/json.hpp"

namespace pdt::tools {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFail = 1;
inline constexpr int kExitUsage = 2;

/// One version string for the whole tool suite, bumped with the schemas.
inline constexpr const char* kToolsVersion = "0.12.0";

struct CliSpec {
  const char* tool;   ///< command name, e.g. "pdt report"
  const char* usage;  ///< full usage text, newline-terminated
};

/// Print the usage text to stderr; returns kExitUsage so call sites can
/// `return usage(spec);`.
int usage(const CliSpec& spec);

/// Uniform handling of -h/--help/--version. Returns true when `arg` was
/// one of them; `*exit_code` is then the code to exit with (kExitOk).
bool standard_flag(const CliSpec& spec, std::string_view arg, int* exit_code);

/// Parse all of `text` as a finite number (no NaN, no Inf, no trailing
/// bytes); false otherwise.
[[nodiscard]] bool parse_finite(std::string_view text, double* out);

/// Parse `text`, the value of command-line flag `flag`, as a finite
/// number in [lo, hi] (in (lo, hi) when `open`). On failure prints
/// "<tool>: <flag>=<text>: want ..." to stderr and returns false (the
/// caller exits kExitUsage).
[[nodiscard]] bool flag_number(const CliSpec& spec, std::string_view flag,
                               std::string_view text, double lo, double hi,
                               double* out, bool open = false);

/// The integer variant of flag_number: all of `text` in [lo, hi].
[[nodiscard]] bool flag_int(const CliSpec& spec, std::string_view flag,
                            std::string_view text, std::int64_t lo,
                            std::int64_t hi, std::int64_t* out);

/// Read the whole file at `path` into `*out`; false when it cannot be
/// opened or read.
bool read_file(const std::string& path, std::string* out);

/// Read and parse the JSON file at `path` into `*root`. On failure
/// prints "<tool>: <path>: <why>" to stderr and returns false (the
/// caller should exit kExitUsage — bad input, not a failed gate).
bool load_json_file(const CliSpec& spec, const std::string& path,
                    JsonValue* root);

/// Write `content` to `path` crash-safely: stream to `<path>.tmp<pid>`,
/// then rename onto the final path (the tools-side mirror of
/// obs::AtomicFile — the tools do not link the obs library). On failure
/// prints "<tool>: cannot write <path>" to stderr, removes the temp, and
/// returns false (callers exit kExitFail — output, not input, failed).
bool write_file_atomic(const CliSpec& spec, const std::string& path,
                       const std::string& content);

}  // namespace pdt::tools
