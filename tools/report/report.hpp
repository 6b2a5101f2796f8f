// Deterministic markdown rendering of pdtree report files.
//
// render_report() accepts any mix of parsed pdt-bench-v1 envelopes (the
// <harness>.json files the bench binaries write), bare pdt-metrics-v1 /
// pdt-comm-v1 / pdt-mem-v1 objects, and pdt-replay-v1 reports (what
// pdt-replay emits: identity checks, what-if sweeps, measured-vs-analytic
// isoefficiency, wait-for blame), and renders the analysis views the
// paper argues from: speedup/efficiency tables, per-level time breakdown
// with load-imbalance factors, the collective cost-model error (measured
// vs the Eq. 2-4 prediction), the rank x rank communication matrix, the
// critical-path breakdown, and the per-rank memory tables with the
// Section-4 memory-scalability verdict. Output depends only on the input
// bytes — no
// timestamps, locales, or map orderings — so running the tool twice
// produces byte-identical markdown (CI relies on this).
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_value.hpp"

namespace pdt::tools {

struct ReportInput {
  std::string name;  ///< display name (typically the file path)
  JsonValue root;
};

/// The selectable section names, in render order (what --list-sections
/// prints and --section validates against).
inline constexpr const char* kReportSections[] = {
    "speedup", "metrics", "comm", "memory", "host", "fault", "model",
    "replay", "trend",
};

struct RenderOptions {
  /// Sections to render; empty = all. Report headers (title, source,
  /// scale, cost model) are always rendered so filtered output stays
  /// self-describing.
  std::vector<std::string> sections;

  [[nodiscard]] bool wants(std::string_view name) const {
    if (sections.empty()) return true;
    for (const std::string& s : sections) {
      if (s == name) return true;
    }
    return false;
  }
};

/// Render all inputs into one markdown document. Returns false (after
/// still rendering what it can) if any input has an unrecognized schema.
bool render_report(const std::vector<ReportInput>& inputs, std::ostream& os,
                   const RenderOptions& opt);

/// Render everything (empty RenderOptions).
bool render_report(const std::vector<ReportInput>& inputs, std::ostream& os);

}  // namespace pdt::tools
