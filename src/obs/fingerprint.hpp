// Environment fingerprint: the provenance block every perf artifact
// carries so a number in the cross-run history is never divorced from
// the build and machine that produced it.
//
// A bench envelope without provenance is a point with no coordinates:
// when the pdt trend registry says "hybrid.P8 got 40% slower between
// run 12 and run 13", the first question is always "same binary? same
// box?". EnvFingerprint answers it: git SHA + dirty flag (embedded at
// configure time by src/obs/CMakeLists.txt), compiler id and the flags
// it was invoked with, CPU model and core count, hostname, and every
// PDT_* environment variable that shaped the run (PDT_SCALE, PDT_HOST,
// ...). bench_util stamps it into every pdt-bench-v1 envelope and
// pdt-events-v1 meta; pdt trend copies it verbatim into each
// pdt-runs-v1 record.
//
// Everything here is collected once per process (the values cannot
// change mid-run) and written deterministically: env vars sorted by
// name, fixed field order.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"

namespace pdt::obs {

struct EnvFingerprint {
  std::string git_sha;    ///< short SHA at configure time ("unknown" outside git)
  bool git_dirty = false; ///< uncommitted changes at configure time
  std::string compiler;   ///< e.g. "gcc 13.2.0" / "clang 17.0.6"
  std::string flags;      ///< CMAKE_CXX_FLAGS + build-type flags
  std::string cpu;        ///< /proc/cpuinfo model name ("unknown" elsewhere)
  int cores = 0;          ///< std::thread::hardware_concurrency()
  std::string hostname;
  /// PDT_THREADS (the requested worker-thread count), "" when unset.
  /// Also present in pdt_env; lifted out so pdt trend explain can
  /// attribute a perf move to a thread-count change without parsing the
  /// env map.
  std::string pdt_threads;
  /// Every PDT_* environment variable, sorted by name.
  std::vector<std::pair<std::string, std::string>> pdt_env;

  /// Collect the current process's fingerprint. Cheap after the first
  /// call sites cache it; reads /proc/cpuinfo once.
  [[nodiscard]] static EnvFingerprint collect();
};

/// Emit the fingerprint as one JSON object value on `w` (composable —
/// the bench envelopes and event-log meta both embed it).
void write_fingerprint(JsonWriter& w, const EnvFingerprint& fp);

}  // namespace pdt::obs
