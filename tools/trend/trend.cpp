#include "trend/trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace pdt::tools {

namespace {

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return std::string(buf);
}

std::string fmt_ms(double ns) { return fmt(ns / 1e6, 3); }

/// Median of `v` (copied; not required sorted). 0 for empty input.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

/// MAD of `v` around its own median.
double mad_of(const std::vector<double>& v) {
  const double med = median_of(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double s : v) dev.push_back(std::fabs(s - med));
  return median_of(std::move(dev));
}

bool same_virt(const DiffEntry& a, const DiffEntry& b) {
  return a.harness == b.harness && a.workload == b.workload &&
         a.formulation == b.formulation && a.procs == b.procs;
}

bool same_host(const HostEntry& a, const HostEntry& b) {
  return a.harness == b.harness && a.tag == b.tag &&
         a.formulation == b.formulation && a.procs == b.procs;
}

std::string virt_name(const DiffEntry& e) {
  return e.harness + " " + e.workload + " " + e.formulation +
         " P=" + std::to_string(e.procs);
}

std::string host_name(const HostEntry& e) {
  return e.harness + " " + e.tag + " " + e.formulation +
         " P=" + std::to_string(e.procs);
}

bool same_model(const TrendModelTuple& a, const TrendModelTuple& b) {
  return a.harness == b.harness && a.tag == b.tag &&
         a.formulation == b.formulation && a.procs == b.procs;
}

std::string model_name(const TrendModelTuple& m) {
  return m.harness + " " + m.tag + " " + m.formulation +
         " P=" + std::to_string(m.procs);
}

bool same_ft(const TrendFtTuple& a, const TrendFtTuple& b) {
  return a.harness == b.harness && a.formulation == b.formulation &&
         a.procs == b.procs && a.scenario == b.scenario;
}

std::string ft_name(const TrendFtTuple& f) {
  return f.harness + " " + f.formulation + " P=" + std::to_string(f.procs) +
         " " + f.scenario;
}

}  // namespace

// -------------------------------------------------------------- registry --

bool parse_registry(std::string_view text, std::vector<RunRecord>* out,
                    std::string* error) {
  out->clear();
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    // Blank (or whitespace-only) lines are tolerated so hand edits and
    // partial tails from a crashed appender don't poison the archive.
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    const auto fail = [&](const std::string& why) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + why;
      }
      return false;
    };
    JsonValue root;
    std::string perr;
    if (!json_parse(line, &root, &perr)) return fail(perr);
    if (root.get("schema").as_string() != "pdt-runs-v1") {
      return fail("schema is not pdt-runs-v1 (got \"" +
                  root.get("schema").as_string() + "\")");
    }
    RunRecord rec;
    rec.seq = root.get("seq").as_int();
    rec.timestamp = root.get("timestamp").as_string();
    rec.label = root.get("label").as_string();
    rec.fingerprint = root.get("fingerprint");
    if (rec.seq <= 0) return fail("record missing a positive seq");
    for (const JsonValue& e : root.get("virtual").array()) {
      DiffEntry d;
      d.harness = e.get("harness").as_string();
      d.workload = e.get("workload").as_string();
      d.formulation = e.get("formulation").as_string();
      d.procs = e.get("procs").as_int();
      d.time_us = e.get("time_us").as_double();
      d.speedup = e.get("speedup").as_double();
      d.efficiency = e.get("efficiency").as_double();
      if (d.harness.empty() || d.procs <= 0) {
        return fail("virtual tuple missing harness or procs");
      }
      rec.virt.push_back(std::move(d));
    }
    for (const JsonValue& e : root.get("host").array()) {
      TrendHostTuple t;
      t.entry.harness = e.get("harness").as_string();
      t.entry.tag = e.get("tag").as_string();
      t.entry.formulation = e.get("formulation").as_string();
      t.entry.procs = e.get("procs").as_int();
      t.entry.k = e.get("k").as_int();
      t.entry.median_ns = e.get("median_ns").as_double();
      t.entry.mad_ns = e.get("mad_ns").as_double();
      if (t.entry.harness.empty() || t.entry.procs <= 0 ||
          t.entry.median_ns <= 0.0) {
        return fail("host tuple missing harness/procs/median_ns");
      }
      for (const JsonValue& c : e.get("cells").array()) {
        TrendCell cell;
        cell.phase = c.get("phase").as_string();
        cell.level = static_cast<int>(c.get("level").as_int(-1));
        cell.host_ns = c.get("host_ns").as_double();
        cell.virtual_us = c.get("virtual_us").as_double();
        t.cells.push_back(std::move(cell));
      }
      rec.host.push_back(std::move(t));
    }
    // "model" is absent from pre-0.9 registries — an empty list then.
    for (const JsonValue& e : root.get("model").array()) {
      TrendModelTuple m;
      m.harness = e.get("harness").as_string();
      m.tag = e.get("tag").as_string();
      m.formulation = e.get("formulation").as_string();
      m.procs = e.get("procs").as_int();
      m.digest = e.get("digest").as_string();
      m.nodes = e.get("nodes").as_int();
      m.leaves = e.get("leaves").as_int();
      m.depth = e.get("depth").as_int();
      m.accuracy = e.get("accuracy").as_double();
      if (m.harness.empty() || m.digest.empty()) {
        return fail("model tuple missing harness or digest");
      }
      rec.model.push_back(std::move(m));
    }
    // "ft" is absent from registries written before the resilience
    // tuples existed — an empty list then.
    for (const JsonValue& e : root.get("ft").array()) {
      TrendFtTuple f;
      f.harness = e.get("harness").as_string();
      f.formulation = e.get("formulation").as_string();
      f.procs = e.get("procs").as_int();
      f.scenario = e.get("scenario").as_string();
      f.time_us = e.get("time_us").as_double();
      f.overhead_us = e.get("overhead_us").as_double();
      f.retry_us = e.get("retry_us").as_double();
      f.retries = e.get("retries").as_int();
      f.resume_records = e.get("resume_records").as_int();
      f.tree_identical = e.get("tree_identical").as_bool(true);
      if (f.harness.empty() || f.scenario.empty()) {
        return fail("ft tuple missing harness or scenario");
      }
      rec.ft.push_back(std::move(f));
    }
    for (const JsonValue& e : root.get("blame").array()) {
      TrendBlameEdge b;
      b.idler = e.get("idler").as_int();
      b.level = e.get("level").as_int(-1);
      b.holder = e.get("holder").as_int();
      b.holder_phase = e.get("holder_phase").as_string();
      b.idle_us = e.get("idle_us").as_double();
      rec.blame.push_back(std::move(b));
    }
    out->push_back(std::move(rec));
  }
  return true;
}

std::string record_line(const RunRecord& rec) {
  std::ostringstream os;
  os << "{\"schema\": \"pdt-runs-v1\", \"seq\": " << rec.seq
     << ", \"timestamp\": \"" << json_escaped(rec.timestamp)
     << "\", \"label\": \"" << json_escaped(rec.label) << "\"";
  if (!rec.fingerprint.is_null()) {
    os << ", \"fingerprint\": " << json_serialize(rec.fingerprint);
  }
  os << ", \"virtual\": [";
  for (std::size_t i = 0; i < rec.virt.size(); ++i) {
    const DiffEntry& e = rec.virt[i];
    os << (i == 0 ? "" : ", ") << "{\"harness\": \"" << json_escaped(e.harness)
       << "\", \"workload\": \"" << json_escaped(e.workload)
       << "\", \"formulation\": \"" << json_escaped(e.formulation)
       << "\", \"procs\": " << e.procs
       << ", \"time_us\": " << json_double_exact(e.time_us)
       << ", \"speedup\": " << json_double_exact(e.speedup)
       << ", \"efficiency\": " << json_double_exact(e.efficiency) << "}";
  }
  os << "], \"host\": [";
  for (std::size_t i = 0; i < rec.host.size(); ++i) {
    const TrendHostTuple& t = rec.host[i];
    os << (i == 0 ? "" : ", ") << "{\"harness\": \""
       << json_escaped(t.entry.harness) << "\", \"tag\": \""
       << json_escaped(t.entry.tag) << "\", \"formulation\": \""
       << json_escaped(t.entry.formulation)
       << "\", \"procs\": " << t.entry.procs << ", \"k\": " << t.entry.k
       << ", \"median_ns\": " << json_double_exact(t.entry.median_ns)
       << ", \"mad_ns\": " << json_double_exact(t.entry.mad_ns)
       << ", \"cells\": [";
    for (std::size_t c = 0; c < t.cells.size(); ++c) {
      const TrendCell& cell = t.cells[c];
      os << (c == 0 ? "" : ", ") << "{\"phase\": \""
         << json_escaped(cell.phase) << "\", \"level\": " << cell.level
         << ", \"host_ns\": " << json_double_exact(cell.host_ns)
         << ", \"virtual_us\": " << json_double_exact(cell.virtual_us) << "}";
    }
    os << "]}";
  }
  os << "], \"model\": [";
  for (std::size_t i = 0; i < rec.model.size(); ++i) {
    const TrendModelTuple& m = rec.model[i];
    os << (i == 0 ? "" : ", ") << "{\"harness\": \""
       << json_escaped(m.harness) << "\", \"tag\": \"" << json_escaped(m.tag)
       << "\", \"formulation\": \"" << json_escaped(m.formulation)
       << "\", \"procs\": " << m.procs << ", \"digest\": \""
       << json_escaped(m.digest) << "\", \"nodes\": " << m.nodes
       << ", \"leaves\": " << m.leaves << ", \"depth\": " << m.depth
       << ", \"accuracy\": " << json_double_exact(m.accuracy) << "}";
  }
  os << "], \"ft\": [";
  for (std::size_t i = 0; i < rec.ft.size(); ++i) {
    const TrendFtTuple& f = rec.ft[i];
    os << (i == 0 ? "" : ", ") << "{\"harness\": \""
       << json_escaped(f.harness) << "\", \"formulation\": \""
       << json_escaped(f.formulation) << "\", \"procs\": " << f.procs
       << ", \"scenario\": \"" << json_escaped(f.scenario)
       << "\", \"time_us\": " << json_double_exact(f.time_us)
       << ", \"overhead_us\": " << json_double_exact(f.overhead_us)
       << ", \"retry_us\": " << json_double_exact(f.retry_us)
       << ", \"retries\": " << f.retries
       << ", \"resume_records\": " << f.resume_records
       << ", \"tree_identical\": " << (f.tree_identical ? "true" : "false")
       << "}";
  }
  os << "], \"blame\": [";
  for (std::size_t i = 0; i < rec.blame.size(); ++i) {
    const TrendBlameEdge& b = rec.blame[i];
    os << (i == 0 ? "" : ", ") << "{\"idler\": " << b.idler
       << ", \"level\": " << b.level << ", \"holder\": " << b.holder
       << ", \"holder_phase\": \"" << json_escaped(b.holder_phase)
       << "\", \"idle_us\": " << json_double_exact(b.idle_us) << "}";
  }
  os << "]";
  os << "}";
  return os.str();
}

std::string registry_text(const std::vector<RunRecord>& runs) {
  std::string out;
  for (const RunRecord& rec : runs) {
    out += record_line(rec);
    out += '\n';
  }
  return out;
}

RunRecord record_from_envelopes(const std::vector<ReportInput>& inputs) {
  RunRecord rec;
  // The virtual clock is deterministic, so repeat envelopes carry
  // identical tuples — keep the first sighting of each.
  for (DiffEntry& e : extract_entries(inputs, {})) {
    bool seen = false;
    for (const DiffEntry& u : rec.virt) {
      if (same_virt(u, e)) {
        seen = true;
        break;
      }
    }
    if (!seen) rec.virt.push_back(std::move(e));
  }
  const std::vector<HostEntry> entries = extract_host_entries(inputs);
  rec.host.reserve(entries.size());
  for (const HostEntry& e : entries) {
    TrendHostTuple t;
    t.entry = e;
    rec.host.push_back(std::move(t));
  }

  // Per-(phase, level) cells: every repeat contributes one sample per
  // cell; collapse to the median so one noisy repeat cannot skew the
  // attribution explain leans on. virtual_us is deterministic across
  // repeats, so first-seen wins. samples[t][c] mirrors rec.host[t].cells.
  std::vector<std::vector<std::vector<double>>> samples(rec.host.size());
  for (const ReportInput& in : inputs) {
    if (in.root.get("schema").as_string() != "pdt-bench-v1") continue;
    const std::string& harness = in.root.get("harness").as_string();
    if (rec.fingerprint.is_null() && in.root.has("fingerprint")) {
      rec.fingerprint = in.root.get("fingerprint");
    }
    for (const JsonValue& sec : in.root.get("sections").array()) {
      if (sec.get("type").as_string() == "model") {
        // Deterministic like the virtual clock: repeats carry identical
        // model sections, keep the first sighting of each key.
        TrendModelTuple m;
        m.harness = harness;
        m.tag = sec.get("tag").as_string();
        m.formulation = sec.get("formulation").as_string();
        m.procs = sec.get("procs").as_int();
        m.digest = sec.get("digest").as_string();
        m.nodes = sec.get("nodes").as_int();
        m.leaves = sec.get("leaves").as_int();
        m.depth = sec.get("depth").as_int();
        m.accuracy = sec.get("accuracy").as_double();
        bool seen = false;
        for (const TrendModelTuple& u : rec.model) {
          seen = seen || same_model(u, m);
        }
        if (!seen && !m.digest.empty()) rec.model.push_back(std::move(m));
        continue;
      }
      if (sec.get("type").as_string() == "fault_tolerance" &&
          sec.get("schema").as_string() == "pdt-ft-v1") {
        // Deterministic virtual quantities: repeats carry identical
        // rows, keep the first sighting of each key. Retry/durable
        // fields are absent from pre-§13 artifacts and default to 0.
        const std::string formulation = sec.get("formulation").as_string();
        const std::int64_t procs = sec.get("procs").as_int();
        for (const JsonValue& row : sec.get("rows").array()) {
          TrendFtTuple f;
          f.harness = harness;
          f.formulation = formulation;
          f.procs = procs;
          f.scenario = row.get("scenario").as_string();
          f.time_us = row.get("time_us").as_double();
          f.overhead_us = row.get("checkpoint_io_us").as_double() +
                          row.get("detect_us").as_double() +
                          row.get("recovery_us").as_double() +
                          row.get("retry_us").as_double() +
                          row.get("durable_io_us").as_double() +
                          row.get("resume_io_us").as_double();
          f.retry_us = row.get("retry_us").as_double();
          f.retries = row.get("retries").as_int();
          f.resume_records = row.get("resume_records").as_int();
          f.tree_identical = row.get("tree_identical").as_bool(true);
          bool seen = false;
          for (const TrendFtTuple& u : rec.ft) seen = seen || same_ft(u, f);
          if (!seen && !f.scenario.empty()) rec.ft.push_back(std::move(f));
        }
        continue;
      }
      if (sec.get("type").as_string() != "instrumented_run") continue;
      const JsonValue& host = sec.get("host");
      if (host.is_null()) continue;
      HostEntry key;
      key.harness = harness;
      key.tag = sec.get("tag").as_string();
      key.formulation = sec.get("formulation").as_string();
      key.procs = sec.get("procs").as_int();
      std::size_t ti = 0;
      for (; ti < rec.host.size(); ++ti) {
        if (same_host(rec.host[ti].entry, key)) break;
      }
      if (ti == rec.host.size()) continue;
      for (const JsonValue& group : host.get("phases").array()) {
        const std::string& phase = group.get("phase").as_string();
        const int level = static_cast<int>(group.get("level").as_int(-1));
        std::vector<TrendCell>& cells = rec.host[ti].cells;
        std::size_t ci = 0;
        for (; ci < cells.size(); ++ci) {
          if (cells[ci].phase == phase && cells[ci].level == level) break;
        }
        if (ci == cells.size()) {
          TrendCell c;
          c.phase = phase;
          c.level = level;
          c.virtual_us = group.get("virtual_us").as_double();
          cells.push_back(std::move(c));
          samples[ti].emplace_back();
        }
        samples[ti][ci].push_back(group.get("total_ns").as_double());
      }
    }
  }
  for (std::size_t ti = 0; ti < rec.host.size(); ++ti) {
    for (std::size_t ci = 0; ci < rec.host[ti].cells.size(); ++ci) {
      rec.host[ti].cells[ci].host_ns = median_of(samples[ti][ci]);
    }
  }

  // Wait-for blame edges from any pdt-replay-v1 inputs riding along.
  for (const ReportInput& in : inputs) {
    if (in.root.get("schema").as_string() != "pdt-replay-v1") continue;
    for (const JsonValue& e :
         in.root.get("replay").get("blame").array()) {
      TrendBlameEdge b;
      b.idler = e.get("idler").as_int();
      b.level = e.get("idler_level").as_int(-1);
      b.holder = e.get("holder").as_int();
      b.holder_phase = e.get("holder_phase").as_string();
      b.idle_us = e.get("idle_us").as_double();
      rec.blame.push_back(std::move(b));
    }
  }
  return rec;
}

bool record_from_artifact(const ReportInput& input, RunRecord* out,
                          std::string* error) {
  const std::string& schema = input.root.get("schema").as_string();
  if (schema == "pdt-bench-v1") {
    *out = record_from_envelopes({input});
    return true;
  }
  if (schema == "pdt-diff-baseline-v1") {
    *out = RunRecord{};
    return parse_baseline(input.root, &out->virt, error);
  }
  if (schema == "pdt-host-baseline-v1") {
    *out = RunRecord{};
    std::vector<HostEntry> entries;
    if (!parse_host_baseline(input.root, &entries, error)) return false;
    out->host.reserve(entries.size());
    for (HostEntry& e : entries) {
      TrendHostTuple t;
      t.entry = std::move(e);
      out->host.push_back(std::move(t));
    }
    return true;
  }
  if (error != nullptr) {
    *error = "cannot ingest schema \"" + schema +
             "\" (want pdt-bench-v1, pdt-diff-baseline-v1, or "
             "pdt-host-baseline-v1)";
  }
  return false;
}

// -------------------------------------------------------------- analysis --

namespace {

// 1.4826 scales a MAD to the sigma it estimates under normal noise (the
// same constant pdt-diff --host uses, so the two gates agree).
constexpr double kMadToSigma = 1.4826;

/// One tuple's time series across the registry, oldest first.
struct Series {
  std::string name;
  bool is_host = false;
  std::vector<std::int64_t> seqs;
  std::vector<double> values;   ///< time_us (virtual) or median_ns (host)
  std::vector<double> mads;     ///< per-run mad_ns (host only; else 0)
};

/// Verdict of one rolling changepoint test at series position `pos`
/// (comparing values[pos] against the trailing `window` earlier points).
struct Verdict {
  bool tested = false;     ///< false when pos has no earlier points
  bool regression = false;
  bool improved = false;
  double base = 0.0;       ///< trailing-window median
  double band = 0.0;       ///< allowed |delta| around base
};

Verdict test_at(const Series& s, std::size_t pos, const TrendOptions& opt) {
  Verdict v;
  if (pos == 0) return v;
  const std::size_t lo =
      pos > static_cast<std::size_t>(opt.window)
          ? pos - static_cast<std::size_t>(opt.window)
          : 0;
  std::vector<double> win(s.values.begin() + static_cast<std::ptrdiff_t>(lo),
                          s.values.begin() + static_cast<std::ptrdiff_t>(pos));
  v.tested = true;
  v.base = median_of(win);
  if (s.is_host) {
    // Same band semantics as pdt-diff --host (DESIGN.md section 9), with
    // the across-run spread of the window's medians standing in for the
    // baseline's within-run MAD.
    v.band = std::max(opt.tol * v.base,
                      opt.mad_k * kMadToSigma * (mad_of(win) + s.mads[pos]));
  } else {
    // The virtual clock is deterministic: a plain relative tolerance.
    v.band = opt.vtol * v.base;
  }
  const double delta = s.values[pos] - v.base;
  if (std::fabs(delta) > v.band) {
    (delta > 0.0 ? v.regression : v.improved) = true;
  }
  return v;
}

/// Collect every tuple's series across the registry (virtual tuples
/// first, then host tuples; first-appearance order within each group).
std::vector<Series> collect_series(const std::vector<RunRecord>& runs) {
  std::vector<Series> out;
  std::vector<DiffEntry> vkeys;
  std::vector<HostEntry> hkeys;
  for (const RunRecord& rec : runs) {
    for (const DiffEntry& e : rec.virt) {
      std::size_t i = 0;
      for (; i < vkeys.size(); ++i) {
        if (same_virt(vkeys[i], e)) break;
      }
      if (i == vkeys.size()) {
        vkeys.push_back(e);
        Series s;
        s.name = virt_name(e);
        out.push_back(std::move(s));
      }
      out[i].seqs.push_back(rec.seq);
      out[i].values.push_back(e.time_us);
      out[i].mads.push_back(0.0);
    }
  }
  const std::size_t host_base = out.size();
  for (const RunRecord& rec : runs) {
    for (const TrendHostTuple& t : rec.host) {
      std::size_t i = 0;
      for (; i < hkeys.size(); ++i) {
        if (same_host(hkeys[i], t.entry)) break;
      }
      if (i == hkeys.size()) {
        hkeys.push_back(t.entry);
        Series s;
        s.name = host_name(t.entry);
        s.is_host = true;
        out.push_back(std::move(s));
      }
      out[host_base + i].seqs.push_back(rec.seq);
      out[host_base + i].values.push_back(t.entry.median_ns);
      out[host_base + i].mads.push_back(t.entry.mad_ns);
    }
  }
  // Fault-tolerance tuples: two virtual series per (formulation, P,
  // scenario) key — total time and resilience overhead (checkpoint +
  // detect + recovery + retry + durable + resume I/O). The overhead
  // series starts at 0 for clean scenarios, so retry cost appearing
  // where there was none is flagged even when total time barely moves.
  const std::size_t ft_base = out.size();
  std::vector<TrendFtTuple> fkeys;
  for (const RunRecord& rec : runs) {
    for (const TrendFtTuple& f : rec.ft) {
      std::size_t i = 0;
      for (; i < fkeys.size(); ++i) {
        if (same_ft(fkeys[i], f)) break;
      }
      if (i == fkeys.size()) {
        fkeys.push_back(f);
        Series time_s;
        time_s.name = ft_name(f) + " [time]";
        out.push_back(std::move(time_s));
        Series ovhd_s;
        ovhd_s.name = ft_name(f) + " [overhead]";
        out.push_back(std::move(ovhd_s));
      }
      out[ft_base + 2 * i].seqs.push_back(rec.seq);
      out[ft_base + 2 * i].values.push_back(f.time_us);
      out[ft_base + 2 * i].mads.push_back(0.0);
      out[ft_base + 2 * i + 1].seqs.push_back(rec.seq);
      out[ft_base + 2 * i + 1].values.push_back(f.overhead_us);
      out[ft_base + 2 * i + 1].mads.push_back(0.0);
    }
  }
  return out;
}

/// Per-(phase, level) host-cell deltas between two records' instances of
/// one host tuple, ranked by |delta| descending (ties: registry order).
struct CellDelta {
  const TrendCell* before;  ///< null when the cell is new
  const TrendCell* after;   ///< null when the cell vanished
  double delta_ns = 0.0;
};

std::vector<CellDelta> cell_deltas(const TrendHostTuple& before,
                                   const TrendHostTuple& after) {
  std::vector<CellDelta> out;
  for (const TrendCell& b : before.cells) {
    CellDelta d;
    d.before = &b;
    d.after = nullptr;
    for (const TrendCell& a : after.cells) {
      if (a.phase == b.phase && a.level == b.level) {
        d.after = &a;
        break;
      }
    }
    d.delta_ns = (d.after != nullptr ? d.after->host_ns : 0.0) - b.host_ns;
    out.push_back(d);
  }
  for (const TrendCell& a : after.cells) {
    bool seen = false;
    for (const TrendCell& b : before.cells) {
      if (a.phase == b.phase && a.level == b.level) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back({nullptr, &a, a.host_ns});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CellDelta& x, const CellDelta& y) {
                     return std::fabs(x.delta_ns) > std::fabs(y.delta_ns);
                   });
  return out;
}

std::string cell_label(const CellDelta& d) {
  const TrendCell* c = d.after != nullptr ? d.after : d.before;
  return c->phase + (c->level >= 0 ? " L" + std::to_string(c->level) : "");
}

/// The most recent record before `runs.back()` carrying `key`, or null.
const TrendHostTuple* previous_host(const std::vector<RunRecord>& runs,
                                    const HostEntry& key,
                                    const RunRecord** rec_out) {
  for (std::size_t r = runs.size() - 1; r-- > 0;) {
    for (const TrendHostTuple& t : runs[r].host) {
      if (same_host(t.entry, key)) {
        if (rec_out != nullptr) *rec_out = &runs[r];
        return &t;
      }
    }
  }
  return nullptr;
}

void write_explain_cells(std::ostream& os, const TrendHostTuple& before,
                         const TrendHostTuple& after, double tuple_delta,
                         int top_cells) {
  const std::vector<CellDelta> deltas = cell_deltas(before, after);
  const std::size_t keep =
      std::min(deltas.size(), static_cast<std::size_t>(top_cells));
  for (std::size_t i = 0; i < keep; ++i) {
    const CellDelta& d = deltas[i];
    const double share =
        tuple_delta != 0.0 ? 100.0 * d.delta_ns / tuple_delta : 0.0;
    os << "    " << cell_label(d) << " — "
       << (d.before != nullptr ? fmt_ms(d.before->host_ns) : std::string("-"))
       << " -> "
       << (d.after != nullptr ? fmt_ms(d.after->host_ns) : std::string("-"))
       << " ms (" << (d.delta_ns >= 0.0 ? "+" : "") << fmt_ms(d.delta_ns)
       << " ms, " << fmt(share, 1) << "% of the move)\n";
  }
  if (deltas.size() > keep) {
    os << "    ... " << deltas.size() - keep << " more cells\n";
  }
}

}  // namespace

int run_trend_check(const std::vector<RunRecord>& runs,
                    const TrendOptions& opt, std::ostream& os,
                    std::string* doc) {
  std::ostringstream d;
  d << "{\n  \"schema\": \"pdt-trend-v1\",\n  \"runs\": " << runs.size()
    << ",\n  \"window\": " << opt.window
    << ",\n  \"tol\": " << json_double_exact(opt.tol)
    << ",\n  \"mad_k\": " << json_double_exact(opt.mad_k)
    << ",\n  \"vtol\": " << json_double_exact(opt.vtol)
    << ",\n  \"meta\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    d << (i == 0 ? "" : ",") << "\n    {\"seq\": " << r.seq
      << ", \"timestamp\": \"" << json_escaped(r.timestamp)
      << "\", \"label\": \"" << json_escaped(r.label) << "\", \"git_sha\": \""
      << json_escaped(r.fingerprint.get("git_sha").as_string())
      << "\", \"git_dirty\": "
      << (r.fingerprint.get("git_dirty").as_bool() ? "true" : "false") << "}";
  }
  d << "\n  ],\n  \"tuples\": [";

  int regressions = 0;
  const bool gated = runs.size() >= 2;
  os << "trend: " << runs.size() << " run" << (runs.size() == 1 ? "" : "s")
     << " in registry (window " << opt.window << ", host floor "
     << fmt(100.0 * opt.tol, 1) << "% / mad_k " << fmt(opt.mad_k, 1)
     << ", virtual tol " << fmt(100.0 * opt.vtol, 2) << "%)\n";
  if (!gated) {
    os << "OK: fewer than two runs — no history to gate\n";
  }

  const std::vector<Series> series = collect_series(runs);
  const std::int64_t latest_seq = runs.empty() ? 0 : runs.back().seq;
  bool first_tuple = true;
  for (const Series& s : series) {
    const bool in_latest = !s.seqs.empty() && s.seqs.back() == latest_seq;
    // Rolling test at every position for the changepoint markers; the
    // last position doubles as the gate verdict.
    std::vector<int> marks(s.values.size(), 0);  // +1 up, -1 down
    Verdict last;
    for (std::size_t i = 1; i < s.values.size(); ++i) {
      const Verdict v = test_at(s, i, opt);
      if (v.regression) marks[i] = 1;
      if (v.improved) marks[i] = -1;
      if (i + 1 == s.values.size()) last = v;
    }

    std::string verdict = "ok";
    if (!gated) {
      verdict = "ok";
    } else if (!in_latest) {
      verdict = "missing";
    } else if (last.tested && last.regression) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (last.tested && last.improved) {
      verdict = "IMPROVED";
    }

    if (gated) {
      const double latest = s.values.back();
      const char* tagc = verdict == "REGRESSION" ? "FAIL    "
                         : verdict == "IMPROVED" ? "IMPROVED"
                         : verdict == "missing"  ? "MISSING "
                                                 : "ok      ";
      os << tagc << (s.is_host ? "[host] " : "[virt] ") << s.name;
      if (verdict == "missing") {
        // Completeness is pdt-diff's job; the trend gate only warns so a
        // narrowed harness run cannot hard-fail history it never touched.
        os << " — absent from latest run (warning)\n";
      } else if (last.tested) {
        const double delta = latest - last.base;
        os << " — " << (s.is_host ? fmt_ms(last.base) : fmt(last.base, 1))
           << " -> " << (s.is_host ? fmt_ms(latest) : fmt(latest, 1))
           << (s.is_host ? " ms" : " us") << " ("
           << (delta >= 0.0 ? "+" : "")
           << fmt(last.base != 0.0 ? 100.0 * delta / last.base : 0.0, 1)
           << "%), band ±"
           << (s.is_host ? fmt_ms(last.band) : fmt(last.band, 1))
           << (s.is_host ? " ms" : " us") << ", n=" << s.values.size()
           << "\n";
      } else {
        os << " — first appearance (n=1)\n";
      }
    }

    d << (first_tuple ? "" : ",") << "\n    {\"name\": \""
      << json_escaped(s.name) << "\", \"kind\": \""
      << (s.is_host ? "host" : "virtual") << "\", \"verdict\": \"" << verdict
      << "\", \"seqs\": [";
    first_tuple = false;
    for (std::size_t i = 0; i < s.seqs.size(); ++i) {
      d << (i == 0 ? "" : ", ") << s.seqs[i];
    }
    d << "], \"values\": [";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      d << (i == 0 ? "" : ", ") << json_double_exact(s.values[i]);
    }
    d << "], \"changepoints\": [";
    for (std::size_t i = 0, n = 0; i < marks.size(); ++i) {
      if (marks[i] == 0) continue;
      d << (n++ == 0 ? "" : ", ") << "{\"seq\": " << s.seqs[i]
        << ", \"direction\": \"" << (marks[i] > 0 ? "up" : "down") << "\"}";
    }
    d << "]";
    if (last.tested && in_latest) {
      d << ", \"base\": " << json_double_exact(last.base)
        << ", \"latest\": " << json_double_exact(s.values.back())
        << ", \"band\": " << json_double_exact(last.band);
    }
    // Explain summary for host tuples that moved: which (phase, level)
    // cells account for the delta against the previous sighting.
    if (s.is_host && in_latest &&
        (verdict == "REGRESSION" || verdict == "IMPROVED")) {
      HostEntry key;
      const TrendHostTuple* after = nullptr;
      for (const TrendHostTuple& t : runs.back().host) {
        if (host_name(t.entry) == s.name) {
          after = &t;
          key = t.entry;
          break;
        }
      }
      const TrendHostTuple* before =
          after != nullptr ? previous_host(runs, key, nullptr) : nullptr;
      if (before != nullptr && !before->cells.empty() &&
          !after->cells.empty()) {
        const double tuple_delta =
            after->entry.median_ns - before->entry.median_ns;
        const std::vector<CellDelta> deltas = cell_deltas(*before, *after);
        const std::size_t keep = std::min(
            deltas.size(), static_cast<std::size_t>(opt.top_cells));
        d << ", \"explain\": [";
        for (std::size_t i = 0; i < keep; ++i) {
          const CellDelta& cd = deltas[i];
          const TrendCell* c = cd.after != nullptr ? cd.after : cd.before;
          d << (i == 0 ? "" : ", ") << "{\"phase\": \""
            << json_escaped(c->phase) << "\", \"level\": " << c->level
            << ", \"before_ns\": "
            << json_double_exact(cd.before != nullptr ? cd.before->host_ns
                                                      : 0.0)
            << ", \"after_ns\": "
            << json_double_exact(cd.after != nullptr ? cd.after->host_ns
                                                     : 0.0)
            << ", \"delta_ns\": " << json_double_exact(cd.delta_ns)
            << ", \"share_pct\": "
            << json_double_exact(tuple_delta != 0.0
                                     ? 100.0 * cd.delta_ns / tuple_delta
                                     : 0.0)
            << "}";
        }
        d << "]";
      }
    }
    d << "}";
  }
  d << "\n  ],\n  \"models\": [";

  // Model drift gate: the digest is deterministic, so a changed digest
  // for a previously-sighted (harness, tag, formulation, P) key is a
  // regression — the classifier itself moved, not just its cost.
  std::vector<TrendModelTuple> mkeys;
  for (const RunRecord& rec : runs) {
    for (const TrendModelTuple& m : rec.model) {
      bool seen = false;
      for (const TrendModelTuple& k : mkeys) seen = seen || same_model(k, m);
      if (!seen) mkeys.push_back(m);
    }
  }
  bool first_model = true;
  for (const TrendModelTuple& key : mkeys) {
    const TrendModelTuple* latest = nullptr;
    for (const TrendModelTuple& m : runs.back().model) {
      if (same_model(m, key)) latest = &m;
    }
    const TrendModelTuple* prev = nullptr;
    for (std::size_t r = runs.size() - 1; r-- > 0 && prev == nullptr;) {
      for (const TrendModelTuple& m : runs[r].model) {
        if (same_model(m, key)) prev = &m;
      }
    }
    std::string verdict = "ok";
    if (!gated) {
      verdict = "ok";
    } else if (latest == nullptr) {
      verdict = "missing";
    } else if (prev == nullptr) {
      verdict = "new";
    } else if (latest->digest != prev->digest) {
      verdict = "REGRESSION";
      ++regressions;
    }
    if (gated) {
      const char* tagc = verdict == "REGRESSION" ? "FAIL    "
                         : verdict == "missing"  ? "MISSING "
                                                 : "ok      ";
      os << tagc << "[model] " << model_name(key);
      if (verdict == "missing") {
        os << " — absent from latest run (warning)\n";
      } else if (verdict == "new") {
        os << " — first appearance, digest " << latest->digest.substr(0, 12)
           << "\n";
      } else if (verdict == "REGRESSION") {
        os << " — digest " << prev->digest.substr(0, 12) << " -> "
           << latest->digest.substr(0, 12) << " (accuracy "
           << fmt(prev->accuracy, 4) << " -> " << fmt(latest->accuracy, 4)
           << ", " << latest->nodes << " nodes vs " << prev->nodes << ")\n";
      } else {
        os << " — digest " << latest->digest.substr(0, 12) << " unchanged, "
           << "accuracy " << fmt(latest->accuracy, 4) << "\n";
      }
    }
    const TrendModelTuple* shown = latest != nullptr ? latest : prev;
    d << (first_model ? "" : ",") << "\n    {\"name\": \""
      << json_escaped(model_name(key)) << "\", \"verdict\": \"" << verdict
      << "\", \"digest\": \"" << json_escaped(shown->digest)
      << "\", \"accuracy\": " << json_double_exact(shown->accuracy)
      << ", \"nodes\": " << shown->nodes << ", \"leaves\": " << shown->leaves
      << ", \"depth\": " << shown->depth;
    if (prev != nullptr && latest != nullptr) {
      d << ", \"prev_digest\": \"" << json_escaped(prev->digest)
        << "\", \"prev_accuracy\": " << json_double_exact(prev->accuracy);
    }
    d << "}";
    first_model = false;
  }
  d << "\n  ],\n  \"ft\": [";

  // Recovery-identity gate: a resilience scenario whose latest row grew
  // a tree different from its fault-free baseline is an unconditional
  // regression — the cost series above only watch how much recovery
  // costs, this watches whether it is still correct.
  bool first_ft = true;
  if (!runs.empty()) {
    for (const TrendFtTuple& f : runs.back().ft) {
      std::string verdict = "ok";
      if (gated && !f.tree_identical) {
        verdict = "REGRESSION";
        ++regressions;
        os << "FAIL    [ft]   " << ft_name(f)
           << " — tree diverged from the fault-free baseline\n";
      }
      d << (first_ft ? "" : ",") << "\n    {\"name\": \""
        << json_escaped(ft_name(f)) << "\", \"verdict\": \"" << verdict
        << "\", \"tree_identical\": " << (f.tree_identical ? "true" : "false")
        << ", \"overhead_us\": " << json_double_exact(f.overhead_us)
        << ", \"retry_us\": " << json_double_exact(f.retry_us)
        << ", \"retries\": " << f.retries
        << ", \"resume_records\": " << f.resume_records << "}";
      first_ft = false;
    }
  }
  d << "\n  ]\n}\n";
  if (doc != nullptr) *doc = d.str();

  if (gated) {
    os << (regressions == 0 ? "OK" : "REGRESSION") << ": " << regressions
       << " tuple" << (regressions == 1 ? "" : "s")
       << " regressed against the trailing window\n";
  }
  return regressions;
}

bool run_trend_explain(const std::vector<RunRecord>& runs,
                       const std::string& tuple_filter,
                       const TrendOptions& opt, std::ostream& os) {
  if (runs.size() < 2) {
    os << "explain: fewer than two runs — nothing to compare\n";
    return false;
  }
  const RunRecord& latest = runs.back();

  // Which host tuples to explain: the filter substring when given,
  // otherwise every tuple the rolling check flags as moved.
  std::vector<const TrendHostTuple*> targets;
  if (!tuple_filter.empty()) {
    for (const TrendHostTuple& t : latest.host) {
      if (host_name(t.entry).find(tuple_filter) != std::string::npos) {
        targets.push_back(&t);
      }
    }
  } else {
    const std::vector<Series> series = collect_series(runs);
    for (const Series& s : series) {
      if (!s.is_host || s.seqs.empty() || s.seqs.back() != latest.seq) {
        continue;
      }
      const Verdict v = test_at(s, s.values.size() - 1, opt);
      if (!v.regression && !v.improved) continue;
      for (const TrendHostTuple& t : latest.host) {
        if (host_name(t.entry) == s.name) {
          targets.push_back(&t);
          break;
        }
      }
    }
  }
  if (targets.empty()) {
    os << "explain: no host tuple "
       << (tuple_filter.empty() ? "moved past the band"
                                : "matches \"" + tuple_filter + "\"")
       << "\n";
    return false;
  }

  bool any = false;
  for (const TrendHostTuple* after : targets) {
    const RunRecord* before_rec = nullptr;
    const TrendHostTuple* before =
        previous_host(runs, after->entry, &before_rec);
    const std::string name = host_name(after->entry);
    if (before == nullptr) {
      os << name << ": first appearance in run " << latest.seq
         << " — no earlier record to explain against\n";
      continue;
    }
    any = true;
    const double delta = after->entry.median_ns - before->entry.median_ns;
    os << name << ": run " << before_rec->seq << " -> " << latest.seq << ", "
       << fmt_ms(before->entry.median_ns) << " -> "
       << fmt_ms(after->entry.median_ns) << " ms ("
       << (delta >= 0.0 ? "+" : "") << fmt_ms(delta) << " ms)\n";
    const auto sha = [](const RunRecord& r) {
      const std::string& s = r.fingerprint.get("git_sha").as_string();
      return s.empty() ? std::string("unknown") : s;
    };
    os << "  build: " << sha(*before_rec)
       << (before_rec->fingerprint.get("git_dirty").as_bool() ? "*" : "")
       << " -> " << sha(latest)
       << (latest.fingerprint.get("git_dirty").as_bool() ? "*" : "") << "\n";

    // Environment attribution: a perf move that coincides with a
    // core-count or PDT_THREADS change is a machine story, not a code
    // story. Printed only when the fingerprints actually differ so
    // explanations on a stable machine stay unchanged.
    const std::int64_t cores_before =
        before_rec->fingerprint.get("cores").as_int();
    const std::int64_t cores_after = latest.fingerprint.get("cores").as_int();
    if (cores_before != cores_after && cores_before > 0 && cores_after > 0) {
      os << "  cores: " << cores_before << " -> " << cores_after
         << " — hardware concurrency changed between the runs\n";
    }
    const std::string& thr_before =
        before_rec->fingerprint.get("pdt_threads").as_string();
    const std::string& thr_after =
        latest.fingerprint.get("pdt_threads").as_string();
    if (thr_before != thr_after) {
      os << "  PDT_THREADS: "
         << (thr_before.empty() ? "(unset)" : thr_before) << " -> "
         << (thr_after.empty() ? "(unset)" : thr_after)
         << " — requested thread count changed between the runs\n";
    }

    if (before->cells.empty() || after->cells.empty()) {
      os << "  (no per-phase cells recorded on "
         << (before->cells.empty() ? "the earlier" : "the latest")
         << " side — re-run with host profiling to attribute)\n";
      continue;
    }
    os << "  top cells by |delta|:\n";
    write_explain_cells(os, *before, *after, delta, opt.top_cells);

    // Blame-edge deltas when both records carry replay edges: which
    // wait-for relationships gained idle time.
    if (!before_rec->blame.empty() && !latest.blame.empty()) {
      struct EdgeDelta {
        const TrendBlameEdge* e;
        double delta_us;
      };
      std::vector<EdgeDelta> moved;
      for (const TrendBlameEdge& a : latest.blame) {
        double prior = 0.0;
        for (const TrendBlameEdge& b : before_rec->blame) {
          if (b.idler == a.idler && b.level == a.level &&
              b.holder == a.holder && b.holder_phase == a.holder_phase) {
            prior = b.idle_us;
            break;
          }
        }
        moved.push_back({&a, a.idle_us - prior});
      }
      std::stable_sort(moved.begin(), moved.end(),
                       [](const EdgeDelta& x, const EdgeDelta& y) {
                         return std::fabs(x.delta_us) > std::fabs(y.delta_us);
                       });
      const std::size_t keep = std::min(
          moved.size(), static_cast<std::size_t>(opt.top_cells));
      bool header = false;
      for (std::size_t i = 0; i < keep; ++i) {
        if (moved[i].delta_us == 0.0) continue;
        if (!header) {
          os << "  blame-edge deltas:\n";
          header = true;
        }
        const TrendBlameEdge& e = *moved[i].e;
        os << "    rank " << e.idler << " L" << e.level << " waiting on rank "
           << e.holder << " (" << e.holder_phase << ") — "
           << (moved[i].delta_us >= 0.0 ? "+" : "")
           << fmt(moved[i].delta_us, 1) << " us idle\n";
      }
    }
  }
  return any;
}

void run_trend_list(const std::vector<RunRecord>& runs, std::ostream& os) {
  os << "registry: " << runs.size() << " run"
     << (runs.size() == 1 ? "" : "s") << "\n";
  for (const RunRecord& r : runs) {
    const std::string& sha = r.fingerprint.get("git_sha").as_string();
    os << "  #" << r.seq << "  "
       << (r.timestamp.empty() ? "-" : r.timestamp) << "  "
       << (sha.empty() ? "unknown" : sha)
       << (r.fingerprint.get("git_dirty").as_bool() ? "*" : "") << "  "
       << r.virt.size() << " virtual, " << r.host.size() << " host, "
       << r.model.size() << " model, " << r.ft.size() << " ft, "
       << r.blame.size() << " blame"
       << (r.label.empty() ? "" : "  [" + r.label + "]") << "\n";
  }
}

}  // namespace pdt::tools
