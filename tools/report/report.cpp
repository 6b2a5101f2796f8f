#include "report/report.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/numeric.hpp"

namespace pdt::tools {

bool load_inputs(const CliSpec& spec, const std::vector<std::string>& paths,
                 std::vector<ReportInput>* out) {
  for (const std::string& path : paths) {
    ReportInput in;
    in.name = path;
    if (!load_json_file(spec, path, &in.root)) return false;
    out->push_back(std::move(in));
  }
  return true;
}

namespace {

std::string fmt_int(double v) { return fmt(v, 0); }
std::string fmt_us(double v) { return fmt(v, 1); }

// ------------------------------------------------------------- metrics --

void render_metrics(const JsonValue& m, std::ostream& os) {
  os << "- ranks: " << m.get("num_ranks").as_int()
     << ", max tree level: " << m.get("max_level").as_int() << "\n\n";

  // Phase totals across levels, in first-appearance order (the phases
  // array is sorted by phase id, so this is deterministic).
  std::vector<std::string> phase_order;
  std::vector<std::array<double, 4>> phase_time;  // compute, comm, io, idle
  for (const JsonValue& p : m.get("phases").array()) {
    const std::string& name = p.get("phase").as_string();
    std::size_t i = 0;
    for (; i < phase_order.size(); ++i) {
      if (phase_order[i] == name) break;
    }
    if (i == phase_order.size()) {
      phase_order.push_back(name);
      phase_time.push_back({0.0, 0.0, 0.0, 0.0});
    }
    phase_time[i][0] += p.get("compute_us").as_double();
    phase_time[i][1] += p.get("comm_us").as_double();
    phase_time[i][2] += p.get("io_us").as_double();
    phase_time[i][3] += p.get("idle_us").as_double();
  }
  if (!phase_order.empty()) {
    os << "#### Phase totals (all levels, all ranks)\n\n";
    os << "| phase | compute_us | comm_us | io_us | idle_us |\n";
    os << "|---|---:|---:|---:|---:|\n";
    for (std::size_t i = 0; i < phase_order.size(); ++i) {
      os << "| " << phase_order[i] << " | " << fmt_us(phase_time[i][0])
         << " | " << fmt_us(phase_time[i][1]) << " | "
         << fmt_us(phase_time[i][2]) << " | " << fmt_us(phase_time[i][3])
         << " |\n";
    }
    os << "\n";
  }

  const JsonValue& levels = m.get("levels");
  if (levels.size() > 0) {
    os << "#### Per-level breakdown\n\n";
    os << "| level | compute_us | comm_us | io_us | idle_us | "
          "load imbalance | comm/compute |\n";
    os << "|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const JsonValue& l : levels.array()) {
      os << "| " << l.get("level").as_int() << " | "
         << fmt_us(l.get("compute_us").as_double()) << " | "
         << fmt_us(l.get("comm_us").as_double()) << " | "
         << fmt_us(l.get("io_us").as_double()) << " | "
         << fmt_us(l.get("idle_us").as_double()) << " | "
         << fmt(l.get("load_imbalance").as_double(), 3) << " | "
         << fmt(l.get("comm_to_compute").as_double(), 3) << " |\n";
    }
    os << "\n";
  }
}

// ---------------------------------------------------------------- comm --

void render_comm(const JsonValue& c, std::ostream& os) {
  os << "- ranks: " << c.get("num_ranks").as_int() << ", collective calls: "
     << c.get("num_collective_calls").as_int() << "\n\n";

  const JsonValue& collectives = c.get("collectives");
  if (collectives.size() > 0) {
    os << "#### Collective cost model — measured vs Eq. 2-4 prediction\n\n";
    os << "| kind | calls | words | predicted_us | measured_us | delta_us | "
          "delta % | io_us | messages |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    double tot_pred = 0.0;
    double tot_meas = 0.0;
    double tot_io = 0.0;
    for (const JsonValue& k : collectives.array()) {
      const double pred = k.get("predicted_us").as_double();
      const double meas = k.get("measured_us").as_double();
      const double delta = k.get("delta_us").as_double();
      tot_pred += pred;
      tot_meas += meas;
      tot_io += k.get("io_us").as_double();
      os << "| " << k.get("kind").as_string() << " | "
         << k.get("calls").as_int() << " | "
         << fmt_int(k.get("words").as_double()) << " | " << fmt_us(pred)
         << " | " << fmt_us(meas) << " | " << fmt_us(delta) << " | "
         << fmt(pred > 0.0 ? 100.0 * delta / pred : 0.0, 2) << " | "
         << fmt_us(k.get("io_us").as_double()) << " | "
         << k.get("messages").as_int() << " |\n";
    }
    os << "| **total** | | | " << fmt_us(tot_pred) << " | " << fmt_us(tot_meas)
       << " | " << fmt_us(tot_meas - tot_pred) << " | "
       << fmt(tot_pred > 0.0 ? 100.0 * (tot_meas - tot_pred) / tot_pred : 0.0,
              2)
       << " | " << fmt_us(tot_io) << " | |\n\n";
  }

  const JsonValue& levels = c.get("levels");
  if (levels.size() > 0) {
    os << "#### Communication by tree level\n\n";
    os << "| level | calls | words | predicted_us | measured_us | "
          "delta_us |\n";
    os << "|---:|---:|---:|---:|---:|---:|\n";
    for (const JsonValue& l : levels.array()) {
      os << "| " << l.get("level").as_int() << " | " << l.get("calls").as_int()
         << " | " << fmt_int(l.get("words").as_double()) << " | "
         << fmt_us(l.get("predicted_us").as_double()) << " | "
         << fmt_us(l.get("measured_us").as_double()) << " | "
         << fmt_us(l.get("delta_us").as_double()) << " |\n";
    }
    os << "\n";
  }

  const JsonValue& bytes = c.get("matrix").get("bytes");
  const std::size_t n = bytes.size();
  if (n > 0) {
    os << "#### Traffic matrix (bytes, row = sender)\n\n";
    os << "| from\\to |";
    for (std::size_t t = 0; t < n; ++t) os << " " << t << " |";
    os << " sent |\n|---|";
    for (std::size_t t = 0; t <= n; ++t) os << "---:|";
    os << "\n";
    std::vector<double> col_sum(n, 0.0);
    double grand = 0.0;
    for (std::size_t f = 0; f < n; ++f) {
      const JsonValue& row = bytes.at(f);
      double row_sum = 0.0;
      os << "| " << f << " |";
      for (std::size_t t = 0; t < n; ++t) {
        const double b = row.at(t).as_double();
        row_sum += b;
        col_sum[t] += b;
        os << " " << fmt_int(b) << " |";
      }
      grand += row_sum;
      os << " " << fmt_int(row_sum) << " |\n";
    }
    os << "| **recv** |";
    for (std::size_t t = 0; t < n; ++t) os << " " << fmt_int(col_sum[t]) << " |";
    os << " " << fmt_int(grand) << " |\n\n";
  }

  const JsonValue& cp = c.get("critical_path");
  if (!cp.is_null()) {
    os << "#### Critical path\n\n";
    os << "- max_clock: " << fmt_us(cp.get("max_clock_us").as_double())
       << " us across " << cp.get("num_segments").as_int()
       << " segments, ending on rank " << cp.get("end_rank").as_int() << " ("
       << cp.get("handoffs").as_int() << " handoffs, "
       << cp.get("barriers").as_int() << " barriers observed)\n";
    const JsonValue& bk = cp.get("by_kind");
    const double total = cp.get("max_clock_us").as_double();
    os << "- by kind:";
    const char* kinds[] = {"compute_us", "comm_us", "io_us", "idle_us"};
    const char* kind_names[] = {"compute", "comm", "io", "idle"};
    for (int i = 0; i < 4; ++i) {
      const double v = bk.get(kinds[i]).as_double();
      os << (i == 0 ? " " : ", ") << kind_names[i] << " " << fmt_us(v)
         << " us (" << fmt(total > 0.0 ? 100.0 * v / total : 0.0, 1) << "%)";
    }
    os << "\n\n";

    const JsonValue& by_phase = cp.get("by_phase");
    if (by_phase.size() > 0) {
      os << "| phase | us | blame % |\n|---|---:|---:|\n";
      for (const JsonValue& p : by_phase.array()) {
        os << "| " << p.get("phase").as_string() << " | "
           << fmt_us(p.get("us").as_double()) << " | "
           << fmt(p.get("blame_pct").as_double(), 1) << " |\n";
      }
      os << "\n";
    }

    const JsonValue& top = cp.get("top_segments");
    if (top.size() > 0) {
      os << "Top segments by duration:\n\n";
      os << "| # | rank | phase | level | kind | start_us | dur_us | "
            "blame % |\n";
      os << "|---:|---:|---|---:|---|---:|---:|---:|\n";
      int i = 1;
      for (const JsonValue& s : top.array()) {
        os << "| " << i++ << " | " << s.get("rank").as_int() << " | "
           << s.get("phase").as_string() << " | " << s.get("level").as_int()
           << " | " << s.get("kind").as_string() << " | "
           << fmt_us(s.get("start_us").as_double()) << " | "
           << fmt_us(s.get("dur_us").as_double()) << " | "
           << fmt(s.get("blame_pct").as_double(), 1) << " |\n";
      }
      os << "\n";
    }
  }
}

// ----------------------------------------------------------------- mem --

std::string fmt_kib(double bytes) { return fmt(bytes / 1024.0, 1); }

void render_mem(const JsonValue& m, std::ostream& os) {
  os << "- ranks: " << m.get("num_ranks").as_int() << ", max per-rank peak: "
     << fmt_kib(m.get("max_rank_peak_bytes").as_double()) << " KiB (rank "
     << m.get("peak_rank").as_int() << "), sum of rank peaks: "
     << fmt_kib(m.get("total_peak_bytes").as_double()) << " KiB\n";

  const JsonValue& pred = m.get("predicted");
  if (!pred.is_null()) {
    os << "- Section-4 prediction: "
       << fmt_kib(pred.get("total_bytes").as_double()) << " KiB per rank ("
       << fmt_kib(pred.get("records_bytes").as_double()) << " records + "
       << fmt_kib(pred.get("histogram_bytes").as_double()) << " histograms + "
       << fmt_kib(pred.get("scratch_bytes").as_double())
       << " scratch); measured bottleneck is "
       << fmt(pred.get("max_rank_error_pct").as_double(), 1)
       << "% vs prediction\n";
  }
  os << "\n";

  const JsonValue& per_rank = m.get("per_rank");
  if (per_rank.size() > 0) {
    os << "#### Peak bytes per rank\n\n";
    os << "| rank | peak KiB | live KiB | largest structures |\n";
    os << "|---:|---:|---:|---|\n";
    for (const JsonValue& r : per_rank.array()) {
      os << "| " << r.get("rank").as_int() << " | "
         << fmt_kib(r.get("peak_bytes").as_double()) << " | "
         << fmt_kib(r.get("live_bytes").as_double()) << " | ";
      bool first = true;
      for (const JsonValue& t : r.get("tags").array()) {
        if (!first) os << ", ";
        first = false;
        os << t.get("tag").as_string() << " "
           << fmt_kib(t.get("peak_bytes").as_double());
      }
      os << " |\n";
    }
    os << "\n";
  }

  const JsonValue& tags = m.get("tags");
  if (tags.size() > 0) {
    os << "#### Peak bytes per structure\n\n";
    os << "| structure | max rank peak KiB | sum over ranks KiB |\n";
    os << "|---|---:|---:|\n";
    for (const JsonValue& t : tags.array()) {
      os << "| " << t.get("tag").as_string() << " | "
         << fmt_kib(t.get("max_rank_peak_bytes").as_double()) << " | "
         << fmt_kib(t.get("total_peak_bytes").as_double()) << " |\n";
    }
    os << "\n";
  }

  const JsonValue& ledger = m.get("ledger");
  if (!ledger.is_null()) {
    os << "- ledger: " << ledger.get("events").as_int() << " events, "
       << fmt_kib(ledger.get("charged_bytes").as_double())
       << " KiB charged, " << fmt_kib(ledger.get("released_bytes").as_double())
       << " KiB released\n\n";
    const JsonValue& top = ledger.get("top_segments");
    if (top.size() > 0) {
      os << "Top (structure, phase, level) segments by peak bytes:\n\n";
      os << "| # | structure | phase | level | rank | peak KiB | "
            "share of bottleneck % |\n";
      os << "|---:|---|---|---:|---:|---:|---:|\n";
      int i = 1;
      for (const JsonValue& s : top.array()) {
        os << "| " << i++ << " | " << s.get("tag").as_string() << " | "
           << s.get("phase").as_string() << " | " << s.get("level").as_int()
           << " | " << s.get("rank").as_int() << " | "
           << fmt_kib(s.get("peak_bytes").as_double()) << " | "
           << fmt(s.get("share_pct").as_double(), 1) << " |\n";
      }
      os << "\n";
    }
  }
}

// The memory-scalability verdict: at fixed N, does the per-rank memory
// bottleneck shrink as processors are added (the Section 4 O(N/P) claim)?
// Rendered from the mem_scaling sections of a bench envelope; structures
// whose max-rank peak fails to shrink from the smallest to the largest P
// are flagged (an expected flag for replicated histogram/scratch space,
// the damning one for anything holding records).
void render_mem_scaling(const JsonValue& sections, std::ostream& os) {
  for (const JsonValue& sec : sections.array()) {
    if (sec.get("type").as_string() != "mem_scaling") continue;
    const JsonValue& points = sec.get("points");
    if (points.size() == 0) continue;
    os << "### Memory scalability — " << sec.get("workload").as_string()
       << ", " << sec.get("formulation").as_string() << "\n\n";

    // Column per structure, in first-appearance order across points.
    std::vector<std::string> tag_order;
    for (const JsonValue& pt : points.array()) {
      for (const JsonValue& t : pt.get("mem").get("tags").array()) {
        const std::string& name = t.get("tag").as_string();
        bool seen = false;
        for (const std::string& s : tag_order) seen = seen || s == name;
        if (!seen) tag_order.push_back(name);
      }
    }
    os << "| P | max rank peak KiB | predicted KiB |";
    for (const std::string& t : tag_order) os << " " << t << " KiB |";
    os << "\n|---:|---:|---:|";
    for (std::size_t i = 0; i < tag_order.size(); ++i) os << "---:|";
    os << "\n";
    for (const JsonValue& pt : points.array()) {
      const JsonValue& mem = pt.get("mem");
      os << "| " << pt.get("procs").as_int() << " | "
         << fmt_kib(mem.get("max_rank_peak_bytes").as_double()) << " | ";
      const JsonValue& pred = mem.get("predicted");
      if (pred.is_null()) {
        os << "— |";
      } else {
        os << fmt_kib(pred.get("total_bytes").as_double()) << " |";
      }
      for (const std::string& tn : tag_order) {
        bool found = false;
        for (const JsonValue& t : mem.get("tags").array()) {
          if (t.get("tag").as_string() == tn) {
            os << " " << fmt_kib(t.get("max_rank_peak_bytes").as_double())
               << " |";
            found = true;
            break;
          }
        }
        if (!found) os << " — |";
      }
      os << "\n";
    }
    os << "\n";

    // Verdict: compare the first (smallest P) and last (largest P) points.
    const JsonValue& lo = points.at(0);
    const JsonValue& hi = points.at(points.size() - 1);
    const double lo_peak = lo.get("mem").get("max_rank_peak_bytes").as_double();
    const double hi_peak = hi.get("mem").get("max_rank_peak_bytes").as_double();
    const bool scales = hi_peak < lo_peak;
    os << "**Verdict: " << (scales ? "PASS" : "FLAG")
       << "** — max per-rank peak " << (scales ? "shrinks" : "does not shrink")
       << " from " << fmt_kib(lo_peak) << " KiB at P="
       << lo.get("procs").as_int() << " to " << fmt_kib(hi_peak)
       << " KiB at P=" << hi.get("procs").as_int();
    if (lo_peak > 0.0 && hi_peak > 0.0) {
      os << " (ratio x" << fmt(lo_peak / hi_peak, 2) << ")";
    }
    os << ".\n";
    for (const std::string& tn : tag_order) {
      auto tag_peak = [&](const JsonValue& pt) {
        for (const JsonValue& t : pt.get("mem").get("tags").array()) {
          if (t.get("tag").as_string() == tn) {
            return t.get("max_rank_peak_bytes").as_double();
          }
        }
        return 0.0;
      };
      const double lo_t = tag_peak(lo);
      const double hi_t = tag_peak(hi);
      if (hi_t >= lo_t && hi_t > 0.0) {
        os << "- flagged: `" << tn << "` per-rank peak does not shrink with P ("
           << fmt_kib(lo_t) << " KiB at P=" << lo.get("procs").as_int()
           << " -> " << fmt_kib(hi_t) << " KiB at P="
           << hi.get("procs").as_int() << ")\n";
      }
    }
    os << "\n";
  }
}

// ---------------------------------------------------------------- host --

// The virtual-vs-host side-by-side of one instrumented run: both clocks'
// per-phase shares of their own totals, and the signed divergence (in
// percentage points) ranking where the SP-2 cost model and this host
// disagree most about where the time goes.
void render_host(const JsonValue& h, std::ostream& os) {
  os << "- host clock: `" << h.get("clock").as_string() << "`, "
     << fmt_ms(h.get("total_ns").as_double()) << " ms over "
     << h.get("samples").as_int() << " samples (paired virtual total: "
     << fmt_us(h.get("virtual_total_us").as_double()) << " us)\n";
  if (h.get("clamped").as_int() > 0) {
    os << "- **clock anomalies**: " << h.get("clamped").as_int()
       << " backwards steps clamped to zero-length intervals\n";
  }
  os << "\n";

  const JsonValue& by_phase = h.get("by_phase");
  if (by_phase.size() == 0) return;
  os << "#### Host vs simulated time share by phase\n\n";
  os << "| phase | host ms | host % | virtual us | virtual % | "
        "divergence pp |\n";
  os << "|---|---:|---:|---:|---:|---:|\n";
  for (const JsonValue& p : by_phase.array()) {
    os << "| " << p.get("phase").as_string() << " | "
       << fmt_ms(p.get("host_ns").as_double()) << " | "
       << fmt(p.get("host_share_pct").as_double(), 1) << " | "
       << fmt_us(p.get("virtual_us").as_double()) << " | "
       << fmt(p.get("virtual_share_pct").as_double(), 1) << " | "
       << fmt(p.get("divergence_pp").as_double(), 1) << " |\n";
  }
  os << "\n";

  // Divergence ranking: phases whose host share most exceeds (+) or
  // falls short of (-) their simulated share. Stable sort keeps the
  // input (phase-id) order on ties, so the output is deterministic.
  std::vector<const JsonValue*> ranked;
  for (const JsonValue& p : by_phase.array()) ranked.push_back(&p);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const JsonValue* a, const JsonValue* b) {
                     return std::fabs(a->get("divergence_pp").as_double()) >
                            std::fabs(b->get("divergence_pp").as_double());
                   });
  if (ranked.size() > 3) ranked.resize(3);
  os << "Largest simulated-vs-real divergences (+ = dearer on this host "
        "than the cost model says):";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const double d = ranked[i]->get("divergence_pp").as_double();
    os << (i == 0 ? " " : ", ") << ranked[i]->get("phase").as_string() << " ("
       << (d >= 0.0 ? "+" : "") << fmt(d, 1) << "pp)";
  }
  os << "\n\n";
}

// The host-time speedup table: for every formulation measured at two or
// more processor counts, how the *wall* time of the simulated runs
// scales next to the virtual speedup the simulator predicts. On one
// host core the wall time should be roughly flat in P (same data work +
// simulation overhead) — the virtual column is the paper's claim, the
// host column is what this machine actually did; divergence between the
// two trends is the point of the table.
void render_host_speedup(const JsonValue& sections, std::ostream& os) {
  struct Entry {
    std::int64_t procs;
    double host_ns;
    double virt_us;
  };
  std::vector<std::string> forms;
  std::vector<std::vector<Entry>> by_form;
  for (const JsonValue& sec : sections.array()) {
    if (sec.get("type").as_string() != "instrumented_run") continue;
    const JsonValue& h = sec.get("host");
    if (h.is_null()) continue;
    const std::string& f = sec.get("formulation").as_string();
    std::size_t i = 0;
    for (; i < forms.size(); ++i) {
      if (forms[i] == f) break;
    }
    if (i == forms.size()) {
      forms.push_back(f);
      by_form.emplace_back();
    }
    by_form[i].push_back(Entry{sec.get("procs").as_int(),
                               h.get("total_ns").as_double(),
                               sec.get("max_clock_us").as_double()});
  }

  for (std::size_t i = 0; i < forms.size(); ++i) {
    std::vector<Entry>& entries = by_form[i];
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.procs < b.procs;
                     });
    if (entries.size() < 2 || entries.front().procs == entries.back().procs) {
      continue;
    }
    const Entry& base = entries.front();
    os << "### Host-time speedup — " << forms[i] << " (baseline P="
       << base.procs << ")\n\n";
    os << "| P | host ms | host speedup | virtual us | virtual speedup |\n";
    os << "|---:|---:|---:|---:|---:|\n";
    for (const Entry& e : entries) {
      os << "| " << e.procs << " | " << fmt_ms(e.host_ns) << " | "
         << fmt(e.host_ns > 0.0 ? base.host_ns / e.host_ns : 0.0, 2) << " | "
         << fmt_us(e.virt_us) << " | "
         << fmt(e.virt_us > 0.0 ? base.virt_us / e.virt_us : 0.0, 2)
         << " |\n";
    }
    os << "\n";
  }
}

// ---------------------------------------------------------------- bench --

void render_speedup_tables(const JsonValue& sections, std::ostream& os) {
  // Merge all speedup_series sections that share a workload into one
  // table per quantity, formulations as columns in section order.
  struct Series {
    std::string formulation;
    const JsonValue* points;
  };
  std::vector<std::string> workloads;
  std::vector<std::vector<Series>> by_workload;
  for (const JsonValue& sec : sections.array()) {
    if (sec.get("type").as_string() != "speedup_series") continue;
    const std::string& w = sec.get("workload").as_string();
    std::size_t i = 0;
    for (; i < workloads.size(); ++i) {
      if (workloads[i] == w) break;
    }
    if (i == workloads.size()) {
      workloads.push_back(w);
      by_workload.emplace_back();
    }
    by_workload[i].push_back(
        Series{sec.get("formulation").as_string(), &sec.get("points")});
  }

  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const std::vector<Series>& series = by_workload[wi];
    // Union of processor counts, in first-seen order (series emit them
    // ascending, so the union stays sorted for well-formed files).
    std::vector<std::int64_t> procs;
    for (const Series& s : series) {
      for (const JsonValue& pt : s.points->array()) {
        const std::int64_t p = pt.get("procs").as_int();
        bool seen = false;
        for (const std::int64_t q : procs) seen = seen || q == p;
        if (!seen) procs.push_back(p);
      }
    }
    const struct {
      const char* title;
      const char* field;
      int decimals;
    } tables[] = {
        {"Speedup", "speedup", 2},
        {"Efficiency", "efficiency", 3},
        {"Runtime (virtual us)", "time_us", 1},
    };
    for (const auto& tbl : tables) {
      os << "### " << tbl.title << " — " << workloads[wi] << "\n\n";
      os << "| P |";
      for (const Series& s : series) os << " " << s.formulation << " |";
      os << "\n|---:|";
      for (std::size_t i = 0; i < series.size(); ++i) os << "---:|";
      os << "\n";
      for (const std::int64_t p : procs) {
        os << "| " << p << " |";
        for (const Series& s : series) {
          bool found = false;
          for (const JsonValue& pt : s.points->array()) {
            if (pt.get("procs").as_int() == p) {
              os << " " << fmt(pt.get(tbl.field).as_double(), tbl.decimals)
                 << " |";
              found = true;
              break;
            }
          }
          if (!found) os << " — |";
        }
        os << "\n";
      }
      os << "\n";
    }
  }
}

// --------------------------------------------------------------- model --

// One row per "model" section: the classifier each tagged run grew. The
// digest column is the headline — every formulation at every P growing
// one workload must show the same value (pdt tree diff turns a mismatch
// into a failing gate; this table is where a human spots it first).
void render_model_table(const JsonValue& sections, std::ostream& os) {
  bool any = false;
  for (const JsonValue& sec : sections.array()) {
    any = any || sec.get("type").as_string() == "model";
  }
  if (!any) return;
  os << "### Models (pdt-model-v1)\n\n";
  os << "| tag | formulation | P | digest | nodes | leaves | depth | "
        "held-out accuracy |\n";
  os << "|---|---|---:|---|---:|---:|---:|---:|\n";
  for (const JsonValue& sec : sections.array()) {
    if (sec.get("type").as_string() != "model") continue;
    os << "| " << sec.get("tag").as_string() << " | "
       << sec.get("formulation").as_string() << " | "
       << sec.get("procs").as_int() << " | `"
       << sec.get("digest").as_string().substr(0, 12) << "` | "
       << sec.get("nodes").as_int() << " | " << sec.get("leaves").as_int()
       << " | " << sec.get("depth").as_int() << " | "
       << fmt(sec.get("accuracy").as_double(), 4) << " |\n";
  }
  os << "\n";
}

// -------------------------------------------------------------- replay --

void render_blame_table(const JsonValue& blame, std::ostream& os) {
  if (blame.size() == 0) return;
  os << "#### Wait-for blame (top " << blame.size() << " edges)\n\n";
  os << "| idler | level | waits on | holder phase | idle_us | idle % |\n";
  os << "|---:|---:|---:|---|---:|---:|\n";
  for (const JsonValue& b : blame.array()) {
    os << "| " << b.get("idler").as_int() << " | "
       << b.get("idler_level").as_int() << " | " << b.get("holder").as_int()
       << " | " << b.get("holder_phase").as_string() << " | "
       << fmt_us(b.get("idle_us").as_double()) << " | "
       << fmt(b.get("idle_pct").as_double(), 1) << " |\n";
  }
  os << "\n";
}

void render_replay(const ReportInput& in, std::ostream& os) {
  const JsonValue& root = in.root;
  os << "# Replay report: `" << in.name << "`\n\n";

  const JsonValue& inputs = root.get("inputs");
  if (inputs.size() > 0) {
    os << "#### Replayed logs\n\n";
    os << "| log | formulation | workload | n | procs | events |\n";
    os << "|---|---|---|---:|---:|---:|\n";
    for (const JsonValue& l : inputs.array()) {
      os << "| `" << l.get("name").as_string() << "` | "
         << l.get("formulation").as_string() << " | "
         << l.get("workload").as_string() << " | "
         << fmt_int(l.get("n").as_double()) << " | "
         << l.get("procs").as_int() << " | " << l.get("events").as_int()
         << " |\n";
    }
    os << "\n";
  }

  const JsonValue& host = root.get("host");
  if (!host.is_null()) {
    const JsonValue& hlogs = host.get("logs");
    if (hlogs.size() > 0) {
      os << "#### Host overlay — measured wall time of the recorded runs\n\n";
      os << "| log | procs | clock | host ms | virtual us | "
            "ns per virtual us |\n";
      os << "|---|---:|---|---:|---:|---:|\n";
      for (const JsonValue& l : hlogs.array()) {
        os << "| `" << l.get("name").as_string() << "` | "
           << l.get("procs").as_int() << " | "
           << l.get("clock").as_string() << " | "
           << fmt_ms(l.get("total_ns").as_double()) << " | "
           << fmt_us(l.get("virtual_us").as_double()) << " | "
           << fmt(l.get("ns_per_virtual_us").as_double(), 2) << " |\n";
      }
      os << "\n";
    }
    const JsonValue& scaling = host.get("scaling");
    if (scaling.size() > 0) {
      os << "#### Predicted vs measured scaling\n\n";
      os << "| log | procs | baseline P | predicted speedup | "
            "measured host ratio |\n";
      os << "|---|---:|---:|---:|---:|\n";
      for (const JsonValue& s : scaling.array()) {
        os << "| `" << s.get("name").as_string() << "` | "
           << s.get("procs").as_int() << " | "
           << s.get("baseline_procs").as_int() << " | "
           << fmt(s.get("predicted_speedup").as_double(), 2) << " | "
           << fmt(s.get("measured_host_ratio").as_double(), 2) << " |\n";
      }
      os << "\nPredicted speedup re-prices the virtual clocks; the "
            "measured ratio is wall time on the recording host (flat is "
            "expected on one core — divergence between the trends is the "
            "simulation overhead/cost-model gap).\n\n";
    }
  }

  const JsonValue& check = root.get("check");
  if (!check.is_null()) {
    const bool ok = check.get("ok").as_bool();
    os << "#### Replay identity check — "
       << (ok ? "**PASS**" : "**FAIL**")
       << " (every per-rank clock bit-exact)\n\n";
    os << "| log | replayed max_clock_us | recorded max_clock_us | "
          "mismatched ranks |\n";
    os << "|---|---:|---:|---:|\n";
    for (const JsonValue& l : check.get("logs").array()) {
      os << "| `" << l.get("name").as_string() << "` | "
         << fmt_us(l.get("max_clock_us").as_double()) << " | "
         << fmt_us(l.get("recorded_max_clock_us").as_double()) << " | "
         << l.get("mismatches").size() << " |\n";
    }
    os << "\n";
  }

  const JsonValue& replay = root.get("replay");
  if (!replay.is_null()) {
    const JsonValue& cm = replay.get("cost_model");
    os << "#### What-if replay of `" << replay.get("name").as_string()
       << "`\n\n";
    os << "- cost model: t_s=" << fmt(cm.get("t_s").as_double(), 2)
       << "us, t_w=" << fmt(cm.get("t_w").as_double(), 3)
       << "us/word, t_c=" << fmt(cm.get("t_c").as_double(), 3)
       << "us, t_io=" << fmt(cm.get("t_io").as_double(), 3)
       << "us/word, t_timeout=" << fmt(cm.get("t_timeout").as_double(), 0)
       << "us\n";
    os << "- replayed runtime: "
       << fmt_us(replay.get("max_clock_us").as_double()) << " us (recorded "
       << fmt_us(replay.get("recorded_max_clock_us").as_double())
       << " us)\n";
    if (replay.get("unscalable").as_bool()) {
      os << "- **note:** some overridden constants were 0 in the recorded "
            "run; those charges could not be rescaled\n";
    }
    os << "\n";
    render_blame_table(replay.get("blame"), os);
  }

  const JsonValue& sweep = root.get("sweep");
  if (!sweep.is_null()) {
    std::vector<std::string> axes;
    for (const JsonValue& a : sweep.get("axes").array()) {
      axes.push_back(a.get("key").as_string());
    }
    os << "#### Cost-model sweep — P=" << sweep.get("procs").as_int()
       << ", serial reference `"
       << sweep.get("serial_reference").as_string() << "`\n\n";
    os << "|";
    for (const std::string& k : axes) os << " " << k << " |";
    os << " max_clock_us | serial_us | speedup | efficiency |\n|";
    for (std::size_t i = 0; i < axes.size(); ++i) os << "---:|";
    os << "---:|---:|---:|---:|\n";
    for (const JsonValue& pt : sweep.get("points").array()) {
      os << "|";
      for (const std::string& k : axes) {
        os << " " << fmt(pt.get(k).as_double(), 3) << " |";
      }
      os << " " << fmt_us(pt.get("max_clock_us").as_double()) << " | "
         << fmt_us(pt.get("serial_us").as_double()) << " | "
         << fmt(pt.get("speedup").as_double(), 2) << " | "
         << fmt(pt.get("efficiency").as_double(), 3) << " |\n";
    }
    os << "\n";
  }

  const JsonValue& iso = root.get("iso");
  if (!iso.is_null()) {
    os << "#### Isoefficiency — measured vs analytic at E="
       << fmt(iso.get("efficiency").as_double(), 2)
       << " (iso_c=" << fmt(iso.get("iso_c").as_double(), 3) << ")\n\n";
    os << "| procs | measured N | analytic N | error % | bracketed |\n";
    os << "|---:|---:|---:|---:|---|\n";
    for (const JsonValue& pt : iso.get("points").array()) {
      os << "| " << pt.get("procs").as_int() << " | "
         << fmt_int(pt.get("measured_n").as_double()) << " | "
         << fmt_int(pt.get("analytic_n").as_double()) << " | "
         << fmt(pt.get("error_pct").as_double(), 1) << " | "
         << (pt.get("bracketed").as_bool() ? "yes" : "no (grid edge)")
         << " |\n";
    }
    os << "\n";
    os << "Measured N interpolates the recorded efficiency grid at the "
          "target; analytic N = E/(1-E) * iso_c * P log2 P "
          "(isoefficiency_records).\n\n";
    for (const JsonValue& pt : iso.get("points").array()) {
      os << "##### Efficiency grid, P=" << pt.get("procs").as_int() << "\n\n";
      os << "| n | efficiency | max_clock_us | serial source |\n";
      os << "|---:|---:|---:|---|\n";
      for (const JsonValue& g : pt.get("grid").array()) {
        os << "| " << fmt_int(g.get("n").as_double()) << " | "
           << fmt(g.get("efficiency").as_double(), 3) << " | "
           << fmt_us(g.get("max_clock_us").as_double()) << " | "
           << (g.get("busy_estimate").as_bool() ? "busy-sum estimate"
                                                : "P=1 replay")
           << " |\n";
      }
      os << "\n";
    }
  }
}

void render_bench(const ReportInput& in, std::ostream& os,
                  const RenderOptions& opt) {
  const JsonValue& root = in.root;
  os << "# Bench report: " << root.get("harness").as_string() << "\n\n";
  os << "- source: `" << in.name << "`\n";
  os << "- dataset scale: " << fmt(root.get("scale").as_double(), 3) << "\n";
  const JsonValue& cm = root.get("cost_model");
  if (!cm.is_null()) {
    os << "- cost model: t_s=" << fmt(cm.get("t_s").as_double(), 2)
       << "us, t_w=" << fmt(cm.get("t_w").as_double(), 3)
       << "us/word, t_c=" << fmt(cm.get("t_c").as_double(), 3)
       << "us, t_io=" << fmt(cm.get("t_io").as_double(), 3) << "us/word\n";
  }
  os << "\n";

  const JsonValue& sections = root.get("sections");
  if (opt.wants("speedup")) render_speedup_tables(sections, os);
  if (opt.wants("host")) render_host_speedup(sections, os);
  if (opt.wants("memory")) render_mem_scaling(sections, os);
  if (opt.wants("model")) render_model_table(sections, os);

  for (const JsonValue& sec : sections.array()) {
    const std::string& type = sec.get("type").as_string();
    if (type == "mem_run") {
      if (!opt.wants("memory")) continue;
      os << "## Memory run `" << sec.get("tag").as_string() << "` — P="
         << sec.get("procs").as_int() << "\n\n";
      render_mem(sec.get("mem"), os);
      continue;
    }
    if (type == "mem_contrast") {
      if (!opt.wants("memory")) continue;
      os << "## Memory contrast at P=" << sec.get("procs").as_int() << "\n\n";
      for (const JsonValue& row : sec.get("rows").array()) {
        os << "### " << row.get("scheme").as_string() << " ("
           << fmt_int(row.get("hash_comm_words").as_double())
           << " hash words communicated)\n\n";
        render_mem(row.get("mem"), os);
      }
      continue;
    }
    if (type == "fault_tolerance") {
      if (!opt.wants("fault")) continue;
      os << "## Fault tolerance (pdt-ft-v1) — "
         << sec.get("formulation").as_string() << ", P="
         << sec.get("procs").as_int() << ", n=" << sec.get("n").as_int()
         << "\n\n";
      os << "| scenario | time_us | overhead % | ckpts | fails | ckpt KiB | "
            "ckpt io_us | detect_us | recovery_us | redistributed | "
            "tree identical |\n";
      os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n";
      bool all_identical = true;
      for (const JsonValue& row : sec.get("rows").array()) {
        const bool identical = row.get("tree_identical").as_bool();
        all_identical = all_identical && identical;
        os << "| " << row.get("scenario").as_string() << " | "
           << fmt_us(row.get("time_us").as_double()) << " | "
           << fmt(row.get("overhead_pct").as_double(), 2) << " | "
           << row.get("checkpoints").as_int() << " | "
           << row.get("failures").as_int() << " | "
           << fmt_kib(row.get("checkpoint_bytes").as_double()) << " | "
           << fmt_us(row.get("checkpoint_io_us").as_double()) << " | "
           << fmt_us(row.get("detect_us").as_double()) << " | "
           << fmt_us(row.get("recovery_us").as_double()) << " | "
           << row.get("records_redistributed").as_int() << " | "
           << (identical ? "yes" : "**NO**") << " |\n";
      }
      // Retry/backoff and durable-checkpoint columns (absent from
      // pre-§13 artifacts — every getter defaults to zero, and the
      // table is skipped entirely when nothing recorded them).
      bool any_resilience = false;
      for (const JsonValue& row : sec.get("rows").array()) {
        any_resilience = any_resilience ||
                         row.get("retries").as_int() > 0 ||
                         row.get("durable_checkpoints").as_int() > 0 ||
                         row.get("resumed").as_bool();
      }
      if (any_resilience) {
        os << "\n| scenario | retries | retry_us | escalations | "
              "durable ckpts | durable KiB | durable io_us | resumed | "
              "epoch | skipped | resume io_us | resume records |\n";
        os << "|---|---:|---:|---:|---:|---:|---:|---|---:|---:|---:|---:|\n";
        for (const JsonValue& row : sec.get("rows").array()) {
          os << "| " << row.get("scenario").as_string() << " | "
             << row.get("retries").as_int() << " | "
             << fmt_us(row.get("retry_us").as_double()) << " | "
             << row.get("escalations").as_int() << " | "
             << row.get("durable_checkpoints").as_int() << " | "
             << fmt_kib(row.get("durable_bytes").as_double()) << " | "
             << fmt_us(row.get("durable_io_us").as_double()) << " | "
             << (row.get("resumed").as_bool() ? "yes" : "no") << " | "
             << row.get("resume_epoch").as_int(-1) << " | "
             << row.get("resume_skipped").as_int() << " | "
             << fmt_us(row.get("resume_io_us").as_double()) << " | "
             << row.get("resume_records").as_int() << " |\n";
        }
      }
      os << "\n**Verdict: " << (all_identical ? "PASS" : "FLAG")
         << "** — every scenario's tree "
         << (all_identical ? "matches" : "must match")
         << " the fault-free baseline.\n\n";
      continue;
    }
    if (type != "instrumented_run") continue;
    os << "## Instrumented run `" << sec.get("tag").as_string() << "` — "
       << sec.get("formulation").as_string() << ", P="
       << sec.get("procs").as_int() << ", n=" << sec.get("n").as_int()
       << "\n\n";
    os << "- simulated runtime: " << fmt_us(sec.get("max_clock_us").as_double())
       << " us\n";
    const JsonValue& metrics = sec.get("metrics");
    if (!metrics.is_null() && opt.wants("metrics")) render_metrics(metrics, os);
    const JsonValue& comm = sec.get("comm");
    if (!comm.is_null() && opt.wants("comm")) {
      os << "### Communication (pdt-comm-v1)\n\n";
      render_comm(comm, os);
    }
    const JsonValue& mem = sec.get("mem");
    if (!mem.is_null() && opt.wants("memory")) {
      os << "### Memory (pdt-mem-v1)\n\n";
      render_mem(mem, os);
    }
    const JsonValue& host = sec.get("host");
    if (!host.is_null() && opt.wants("host")) {
      os << "### Host wall-clock (pdt-host-v1)\n\n";
      render_host(host, os);
    }
  }
}

// --------------------------------------------------------------- trend --

/// Unicode sparkline of `values`, normalized to the series' own
/// min..max (a flat series renders as all-low bars). The glyph ramp is
/// fixed, so the output is deterministic for given inputs.
std::string sparkline(const std::vector<double>& values) {
  static constexpr const char* kBars[] = {"▁", "▂", "▃", "▄",
                                          "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = values[0];
  double hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    int idx = 0;
    if (hi > lo) {
      idx = static_cast<int>(7.0 * (v - lo) / (hi - lo) + 0.5);
      idx = std::max(0, std::min(7, idx));
    }
    out += kBars[idx];
  }
  return out;
}

void render_trend(const ReportInput& in, std::ostream& os) {
  const JsonValue& root = in.root;
  os << "# Trend report: `" << in.name << "`\n\n";
  os << "- runs: " << root.get("runs").as_int() << ", window "
     << root.get("window").as_int() << ", host floor "
     << fmt(100.0 * root.get("tol").as_double(), 1) << "% / mad_k "
     << fmt(root.get("mad_k").as_double(), 1) << ", virtual tol "
     << fmt(100.0 * root.get("vtol").as_double(), 2) << "%\n\n";

  const JsonValue& meta = root.get("meta");
  if (meta.size() > 0) {
    os << "#### Runs\n\n";
    os << "| seq | timestamp | build | label |\n";
    os << "|---:|---|---|---|\n";
    for (const JsonValue& m : meta.array()) {
      const std::string& sha = m.get("git_sha").as_string();
      os << "| " << m.get("seq").as_int() << " | "
         << (m.get("timestamp").as_string().empty()
                 ? "-"
                 : m.get("timestamp").as_string())
         << " | " << (sha.empty() ? "unknown" : sha)
         << (m.get("git_dirty").as_bool() ? "\\*" : "") << " | "
         << (m.get("label").as_string().empty() ? "-"
                                                : m.get("label").as_string())
         << " |\n";
    }
    os << "\n";
  }

  const JsonValue& tuples = root.get("tuples");
  if (tuples.size() > 0) {
    os << "#### Tuple history\n\n";
    os << "| tuple | kind | trend | latest | vs window | verdict |\n";
    os << "|---|---|---|---:|---|---|\n";
    for (const JsonValue& t : tuples.array()) {
      const bool is_host = t.get("kind").as_string() == "host";
      std::vector<double> values;
      for (const JsonValue& v : t.get("values").array()) {
        values.push_back(v.as_double());
      }
      // Changepoint markers ride after the sparkline: ^ = shifted up
      // (slower), v = shifted down (faster), at the marked seq.
      std::string marks;
      for (const JsonValue& c : t.get("changepoints").array()) {
        marks += (marks.empty() ? "" : " ");
        marks += c.get("direction").as_string() == "up" ? "^" : "v";
        marks += "@" + std::to_string(c.get("seq").as_int());
      }
      const double latest =
          values.empty() ? 0.0 : values.back();
      std::string vs = "-";
      if (t.has("base")) {
        const double base = t.get("base").as_double();
        const double delta = latest - base;
        vs = (delta >= 0.0 ? "+" : "") +
             fmt(base != 0.0 ? 100.0 * delta / base : 0.0, 1) + "% (band ±" +
             (is_host ? fmt_ms(t.get("band").as_double()) + " ms"
                      : fmt(t.get("band").as_double(), 1) + " us") +
             ")";
      }
      const std::string& verdict = t.get("verdict").as_string();
      os << "| " << t.get("name").as_string() << " | "
         << t.get("kind").as_string() << " | " << sparkline(values)
         << (marks.empty() ? "" : " " + marks) << " | "
         << (is_host ? fmt_ms(latest) + " ms" : fmt(latest, 1) + " us")
         << " | " << vs << " | "
         << (verdict == "REGRESSION" ? "**REGRESSION**" : verdict) << " |\n";
    }
    os << "\n";

    // Explain summaries: which (phase, level) cells moved each flagged
    // host tuple.
    for (const JsonValue& t : tuples.array()) {
      const JsonValue& ex = t.get("explain");
      if (ex.size() == 0) continue;
      os << "#### Explain: " << t.get("name").as_string() << " ("
         << t.get("verdict").as_string() << ")\n\n";
      os << "| phase | level | before_ms | after_ms | delta_ms | share % |\n";
      os << "|---|---:|---:|---:|---:|---:|\n";
      for (const JsonValue& c : ex.array()) {
        os << "| " << c.get("phase").as_string() << " | "
           << c.get("level").as_int() << " | "
           << fmt_ms(c.get("before_ns").as_double()) << " | "
           << fmt_ms(c.get("after_ns").as_double()) << " | "
           << fmt_ms(c.get("delta_ns").as_double()) << " | "
           << fmt(c.get("share_pct").as_double(), 1) << " |\n";
      }
      os << "\n";
    }
  }

  const JsonValue& models = root.get("models");
  if (models.size() > 0) {
    os << "#### Model history\n\n";
    os << "| model | digest | accuracy | nodes | leaves | depth | "
          "verdict |\n";
    os << "|---|---|---:|---:|---:|---:|---|\n";
    for (const JsonValue& m : models.array()) {
      const std::string& verdict = m.get("verdict").as_string();
      os << "| " << m.get("name").as_string() << " | `"
         << m.get("digest").as_string().substr(0, 12) << "`";
      if (m.has("prev_digest") &&
          m.get("prev_digest").as_string() != m.get("digest").as_string()) {
        os << " (was `" << m.get("prev_digest").as_string().substr(0, 12)
           << "`)";
      }
      os << " | " << fmt(m.get("accuracy").as_double(), 4) << " | "
         << m.get("nodes").as_int() << " | " << m.get("leaves").as_int()
         << " | " << m.get("depth").as_int() << " | "
         << (verdict == "REGRESSION" ? "**REGRESSION**" : verdict) << " |\n";
    }
    os << "\n";
  }
}

}  // namespace

bool render_report(const std::vector<ReportInput>& inputs, std::ostream& os,
                   const RenderOptions& opt) {
  bool ok = true;
  for (const ReportInput& in : inputs) {
    const std::string& schema = in.root.get("schema").as_string();
    if (schema == "pdt-bench-v1") {
      render_bench(in, os, opt);
    } else if (schema == "pdt-metrics-v1") {
      os << "# Metrics report: `" << in.name << "`\n\n";
      if (opt.wants("metrics")) render_metrics(in.root, os);
    } else if (schema == "pdt-comm-v1") {
      os << "# Communication report: `" << in.name << "`\n\n";
      if (opt.wants("comm")) render_comm(in.root, os);
    } else if (schema == "pdt-mem-v1") {
      os << "# Memory report: `" << in.name << "`\n\n";
      if (opt.wants("memory")) render_mem(in.root, os);
    } else if (schema == "pdt-host-v1") {
      os << "# Host report: `" << in.name << "`\n\n";
      if (opt.wants("host")) render_host(in.root, os);
    } else if (schema == "pdt-replay-v1") {
      if (opt.wants("replay")) {
        render_replay(in, os);
      } else {
        os << "# Replay report: `" << in.name << "`\n\n";
      }
    } else if (schema == "pdt-trend-v1") {
      if (opt.wants("trend")) {
        render_trend(in, os);
      } else {
        os << "# Trend report: `" << in.name << "`\n\n";
      }
    } else {
      os << "# Unrecognized report: `" << in.name << "`\n\n";
      os << "- schema: `" << (schema.empty() ? "(none)" : schema)
         << "` is not one of pdt-bench-v1 / pdt-metrics-v1 / pdt-comm-v1 / "
            "pdt-mem-v1 / pdt-host-v1 / pdt-replay-v1 / pdt-trend-v1\n\n";
      ok = false;
    }
  }
  return ok;
}

bool render_report(const std::vector<ReportInput>& inputs, std::ostream& os) {
  return render_report(inputs, os, RenderOptions{});
}

}  // namespace pdt::tools
