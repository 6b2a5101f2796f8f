#include "diff/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/numeric.hpp"

namespace pdt::tools {

bool same_tuple(const DiffEntry& a, const DiffEntry& b) {
  return a.harness == b.harness && a.workload == b.workload &&
         a.formulation == b.formulation && a.procs == b.procs;
}

bool same_host_tuple(const HostEntry& a, const HostEntry& b) {
  return a.harness == b.harness && a.tag == b.tag &&
         a.formulation == b.formulation && a.procs == b.procs;
}

std::string tuple_name(const DiffEntry& e) {
  return e.harness + " " + e.workload + " " + e.formulation +
         " P=" + std::to_string(e.procs);
}

std::string tuple_name(const HostEntry& e) {
  return e.harness + " " + e.tag + " " + e.formulation +
         " P=" + std::to_string(e.procs);
}

namespace {

/// Relative drift of `cur` against `base` (0 when both are 0).
double drift(double base, double cur) {
  if (base == 0.0) return cur == 0.0 ? 0.0 : HUGE_VAL;
  return (cur - base) / base;
}

}  // namespace

std::vector<DiffEntry> extract_entries(
    const std::vector<ReportInput>& inputs,
    const std::vector<std::int64_t>& procs_filter) {
  std::vector<DiffEntry> out;
  for (const ReportInput& in : inputs) {
    if (in.root.get("schema").as_string() != "pdt-bench-v1") continue;
    const std::string& harness = in.root.get("harness").as_string();
    for (const JsonValue& sec : in.root.get("sections").array()) {
      if (sec.get("type").as_string() != "speedup_series") continue;
      for (const JsonValue& pt : sec.get("points").array()) {
        const std::int64_t p = pt.get("procs").as_int();
        if (!procs_filter.empty() &&
            std::find(procs_filter.begin(), procs_filter.end(), p) ==
                procs_filter.end()) {
          continue;
        }
        DiffEntry e;
        e.harness = harness;
        e.workload = sec.get("workload").as_string();
        e.formulation = sec.get("formulation").as_string();
        e.procs = p;
        e.time_us = pt.get("time_us").as_double();
        e.speedup = pt.get("speedup").as_double();
        e.efficiency = pt.get("efficiency").as_double();
        out.push_back(std::move(e));
      }
    }
  }
  return out;
}

bool parse_baseline(const JsonValue& root, std::vector<DiffEntry>* out,
                    std::string* error) {
  if (root.get("schema").as_string() != "pdt-diff-baseline-v1") {
    if (error != nullptr) {
      *error = "schema is not pdt-diff-baseline-v1 (got \"" +
               root.get("schema").as_string() + "\")";
    }
    return false;
  }
  out->clear();
  for (const JsonValue& e : root.get("entries").array()) {
    DiffEntry d;
    d.harness = e.get("harness").as_string();
    d.workload = e.get("workload").as_string();
    d.formulation = e.get("formulation").as_string();
    d.procs = e.get("procs").as_int();
    d.time_us = e.get("time_us").as_double();
    d.speedup = e.get("speedup").as_double();
    d.efficiency = e.get("efficiency").as_double();
    if (d.harness.empty() || d.procs <= 0) {
      if (error != nullptr) {
        *error = "baseline entry missing harness or procs";
      }
      return false;
    }
    out->push_back(std::move(d));
  }
  return true;
}

void write_baseline(const std::vector<DiffEntry>& entries, std::ostream& os) {
  os << "{\n  \"schema\": \"pdt-diff-baseline-v1\",\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const DiffEntry& e = entries[i];
    os << (i == 0 ? "" : ",") << "\n    {\"harness\": \""
       << json_escaped(e.harness) << "\", \"workload\": \"" << json_escaped(e.workload)
       << "\", \"formulation\": \"" << json_escaped(e.formulation)
       << "\", \"procs\": " << e.procs
       << ", \"time_us\": " << json_double_exact(e.time_us)
       << ", \"speedup\": " << json_double_exact(e.speedup)
       << ", \"efficiency\": " << json_double_exact(e.efficiency) << "}";
  }
  os << "\n  ]\n}\n";
}

int run_diff(const std::vector<DiffEntry>& baseline,
             const std::vector<DiffEntry>& current, const DiffOptions& opt,
             std::ostream& os) {
  int failures = 0;
  os << "comparing " << baseline.size() << " baseline tuples (tol "
     << fmt(100.0 * opt.tol, 4) << "%)\n";
  for (const DiffEntry& b : baseline) {
    const DiffEntry* cur = nullptr;
    for (const DiffEntry& c : current) {
      if (same_tuple(b, c)) {
        cur = &c;
        break;
      }
    }
    const std::string name = tuple_name(b);
    if (cur == nullptr) {
      ++failures;
      os << "MISSING " << name << " — tuple absent from current results\n";
      continue;
    }
    const double d_time = drift(b.time_us, cur->time_us);
    const double d_speedup = drift(b.speedup, cur->speedup);
    const double d_eff = drift(b.efficiency, cur->efficiency);
    const double worst = std::max(
        {std::fabs(d_time), std::fabs(d_speedup), std::fabs(d_eff)});
    const bool fail = worst > opt.tol;
    if (fail) ++failures;
    os << (fail ? "FAIL    " : "ok      ") << name << " — time "
       << fmt(b.time_us, 1) << " -> " << fmt(cur->time_us, 1) << " us ("
       << (d_time >= 0.0 ? "+" : "") << fmt(100.0 * d_time, 4)
       << "%), speedup " << fmt(b.speedup, 3) << " -> "
       << fmt(cur->speedup, 3) << " (" << (d_speedup >= 0.0 ? "+" : "")
       << fmt(100.0 * d_speedup, 4) << "%), efficiency "
       << fmt(b.efficiency, 3) << " -> " << fmt(cur->efficiency, 3) << " ("
       << (d_eff >= 0.0 ? "+" : "") << fmt(100.0 * d_eff, 4) << "%)\n";
  }
  os << (failures == 0 ? "OK" : "REGRESSION") << ": " << failures << " of "
     << baseline.size() << " tuples failed\n";
  return failures;
}

// ------------------------------------------------------------ host time --

std::vector<HostEntry> extract_host_entries(
    const std::vector<ReportInput>& inputs) {
  // Gather all repeats per tuple first (keyed by first appearance), then
  // collapse. Parallel arrays keep the code dependency-free.
  std::vector<HostEntry> tuples;
  std::vector<std::vector<double>> samples;
  for (const ReportInput& in : inputs) {
    if (in.root.get("schema").as_string() != "pdt-bench-v1") continue;
    const std::string& harness = in.root.get("harness").as_string();
    for (const JsonValue& sec : in.root.get("sections").array()) {
      if (sec.get("type").as_string() != "instrumented_run") continue;
      const JsonValue& host = sec.get("host");
      if (host.is_null()) continue;
      HostEntry e;
      e.harness = harness;
      e.tag = sec.get("tag").as_string();
      e.formulation = sec.get("formulation").as_string();
      e.procs = sec.get("procs").as_int();
      std::size_t i = 0;
      for (; i < tuples.size(); ++i) {
        if (same_host_tuple(tuples[i], e)) break;
      }
      if (i == tuples.size()) {
        tuples.push_back(std::move(e));
        samples.emplace_back();
      }
      samples[i].push_back(host.get("total_ns").as_double());
    }
  }
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].k = static_cast<std::int64_t>(samples[i].size());
    tuples[i].median_ns = median_of(samples[i]);
    tuples[i].mad_ns = mad_of(samples[i]);
  }
  return tuples;
}

}  // namespace pdt::tools
