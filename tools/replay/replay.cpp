#include "replay/replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/cli.hpp"

namespace pdt::tools {

bool set_cost_constant(mpsim::CostModel* cost, std::string_view key,
                       double v, std::string* error) {
  double* slot = key == "t_s"         ? &cost->t_s
                 : key == "t_w"       ? &cost->t_w
                 : key == "t_c"       ? &cost->t_c
                 : key == "t_io"      ? &cost->t_io
                 : key == "t_timeout" ? &cost->t_timeout
                                      : nullptr;
  if (slot == nullptr) {
    if (error != nullptr) {
      *error = "unknown cost constant \"" + std::string(key) + "\"";
    }
    return false;
  }
  if (!std::isfinite(v) || v < 0.0) {
    if (error != nullptr) {
      char value[32];
      std::snprintf(value, sizeof value, "%g", v);
      *error = std::string(key) + "=" + value +
               ": a cost constant must be finite and >= 0";
    }
    return false;
  }
  *slot = v;
  return true;
}

bool parse_event_log(const JsonValue& root, EventLog* out,
                     std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (root.get("schema").as_string() != "pdt-events-v1") {
    return fail("schema is not pdt-events-v1 (got \"" +
                root.get("schema").as_string() + "\")");
  }
  out->nprocs = static_cast<int>(root.get("nprocs").as_int());
  if (out->nprocs < 1) return fail("nprocs must be >= 1");

  const JsonValue& cm = root.get("cost_model");
  for (const char* key : {"t_s", "t_w", "t_c", "t_io", "t_timeout"}) {
    std::string why;
    if (!set_cost_constant(&out->cost, key, cm.get(key).as_double(), &why)) {
      return fail("cost_model: " + why);
    }
  }

  const JsonValue& meta = root.get("meta");
  out->formulation = meta.get("formulation").as_string();
  out->workload = meta.get("workload").as_string();
  out->n = meta.get("n").as_double();
  out->iso_c = meta.get("iso_c").as_double();

  out->phases.clear();
  for (const JsonValue& p : root.get("phases").array()) {
    out->phases.push_back(p.as_string());
  }

  const auto rank_ok = [out](int r) { return r >= 0 && r < out->nprocs; };
  const auto parse_members = [&](const JsonValue& arr,
                                 std::vector<int>* members) {
    if (!arr.is_array()) return false;
    for (const JsonValue& m : arr.array()) {
      const int r = static_cast<int>(m.as_int(-1));
      if (!rank_ok(r)) return false;
      members->push_back(r);
    }
    return true;
  };

  using Type = mpsim::ExecEvent::Type;
  out->events.clear();
  const JsonValue& events = root.get("events");
  if (!events.is_array()) return fail("events is not an array");
  out->events.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    const std::string& tag = e.at(0).as_string();
    mpsim::ExecEvent ev;
    bool ok = true;
    if (tag == "cp" || tag == "io" || tag == "cm") {
      ev.type = Type::Charge;
      ev.rank = static_cast<int>(e.at(1).as_int(-1));
      ev.dt_us = e.at(2).as_double();
      std::size_t stamp = 3;  // index of the phase/level stamp
      if (tag == "cm") {
        ev.kind = mpsim::ChargeKind::Comm;
        ev.latency_us = e.at(3).as_double();
        ev.words_sent = e.at(4).as_double();
        ev.words_received = e.at(5).as_double();
        ev.messages = static_cast<std::uint64_t>(e.at(6).as_int());
        stamp = 7;
      } else if (tag == "io") {
        ev.kind = mpsim::ChargeKind::Io;
      }
      ev.phase = static_cast<int>(e.at(stamp).as_int());
      ev.level = static_cast<int>(e.at(stamp + 1).as_int(-1));
      ok = rank_ok(ev.rank);
    } else if (tag == "b") {
      ev.type = Type::Barrier;
      ok = parse_members(e.at(2), &ev.members);
    } else if (tag == "to") {
      ev.type = Type::Timeout;
      ev.rank = static_cast<int>(e.at(1).as_int(-1));
      ok = rank_ok(ev.rank) && parse_members(e.at(2), &ev.members);
    } else if (tag == "w") {
      ev.type = Type::Wait;
      ev.rank = static_cast<int>(e.at(1).as_int(-1));
      ev.until_us = e.at(2).as_double();
      ok = rank_ok(ev.rank);
    } else if (tag == "wf") {
      ev.type = Type::WaitFor;
      ev.rank = static_cast<int>(e.at(1).as_int(-1));
      ev.peer = static_cast<int>(e.at(2).as_int(-1));
      ok = rank_ok(ev.rank) && rank_ok(ev.peer);
    } else if (tag == "g") {
      ev.type = Type::Collective;
      ev.words = e.at(2).as_double();
      ev.dim = static_cast<int>(e.at(3).as_int());
      ok = parse_members(e.at(4), &ev.members);
    } else if (tag == "rt") {
      ev.type = Type::Retry;
      ev.rank = static_cast<int>(e.at(1).as_int(-1));
      ev.mult = e.at(2).as_double();
      ok = rank_ok(ev.rank) && parse_members(e.at(3), &ev.members);
    } else {
      return fail("event " + std::to_string(i) + ": unknown tag \"" + tag +
                  "\"");
    }
    if (!ok) {
      return fail("event " + std::to_string(i) + " (\"" + tag +
                  "\"): malformed or rank out of range");
    }
    out->events.push_back(std::move(ev));
  }

  const JsonValue& fin = root.get("final");
  out->recorded_max_clock = fin.get("max_clock_us").as_double();
  out->recorded_clocks.clear();
  for (const JsonValue& c : fin.get("clocks").array()) {
    out->recorded_clocks.push_back(c.as_double());
  }
  if (out->recorded_clocks.size() !=
      static_cast<std::size_t>(out->nprocs)) {
    return fail("final.clocks has " +
                std::to_string(out->recorded_clocks.size()) +
                " entries, expected nprocs = " + std::to_string(out->nprocs));
  }

  // Optional wall-clock overlay (logs recorded without a host profiler
  // simply lack the key).
  const JsonValue& host = root.get("host");
  out->has_host = !host.is_null();
  out->host_by_phase.clear();
  if (out->has_host) {
    out->host_clock = host.get("clock").as_string();
    out->host_total_ns = host.get("total_ns").as_double();
    out->host_samples = static_cast<std::uint64_t>(host.get("samples").as_int());
    for (const JsonValue& p : host.get("by_phase").array()) {
      HostPhaseRow row;
      row.phase = p.get("phase").as_string();
      row.host_ns = p.get("host_ns").as_double();
      row.virtual_us = p.get("virtual_us").as_double();
      out->host_by_phase.push_back(std::move(row));
    }
  }
  return true;
}

mpsim::ClockFold replay_log(const EventLog& log,
                            const mpsim::CostModel& target, bool with_blame) {
  mpsim::ClockFold fold(log.nprocs, log.cost, target, with_blame);
  for (const mpsim::ExecEvent& e : log.events) fold.apply(e);
  return fold;
}

bool parse_sweep_spec(std::string_view spec, std::vector<SweepAxis>* out,
                      std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view part = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return fail("sweep axis \"" + std::string(part) + "\" is not KEY=...");
    }
    SweepAxis axis;
    axis.key = std::string(part.substr(0, eq));
    mpsim::CostModel probe;
    if (!set_cost_constant(&probe, axis.key, 0.0, error)) return false;
    const std::string_view range = part.substr(eq + 1);
    const std::size_t c1 = range.find(':');
    const std::size_t c2 =
        c1 == std::string_view::npos ? c1 : range.find(':', c1 + 1);
    axis.step = 1.0;  // a single-point axis KEY=V has HI = LO
    const bool ok =
        c1 == std::string_view::npos
            ? parse_finite(range, &axis.lo) && parse_finite(range, &axis.hi)
            : c2 != std::string_view::npos &&
                  parse_finite(range.substr(0, c1), &axis.lo) &&
                  parse_finite(range.substr(c1 + 1, c2 - c1 - 1), &axis.hi) &&
                  parse_finite(range.substr(c2 + 1), &axis.step);
    if (!ok || axis.step <= 0.0 || axis.hi < axis.lo) {
      return fail("sweep axis \"" + axis.key +
                  "\": expected finite LO[:HI:STEP] with STEP > 0, HI >= LO");
    }
    std::string why;
    if (!set_cost_constant(&probe, axis.key, axis.lo, &why) ||
        !set_cost_constant(&probe, axis.key, axis.hi, &why)) {
      return fail("sweep axis \"" + axis.key + "\": " + why);
    }
    out->push_back(std::move(axis));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (out->empty()) return fail("empty sweep spec");
  return true;
}

namespace {

/// Axis sample count (inclusive of LO; HI included within fp slack).
int axis_steps(const SweepAxis& a) {
  return 1 + static_cast<int>(std::floor((a.hi - a.lo) / a.step + 1e-9));
}

void write_cost_fields(std::ostream& os, const mpsim::CostModel& c) {
  os << "\"t_s\": " << json_double_exact(c.t_s)
     << ", \"t_w\": " << json_double_exact(c.t_w)
     << ", \"t_c\": " << json_double_exact(c.t_c)
     << ", \"t_io\": " << json_double_exact(c.t_io)
     << ", \"t_timeout\": " << json_double_exact(c.t_timeout);
}

void write_blame(std::ostream& os, const std::vector<mpsim::BlameEdge>& blame,
                 const std::vector<std::string>& phases, int top,
                 const char* indent) {
  os << "[";
  const std::size_t n =
      top >= 0 ? std::min(blame.size(), static_cast<std::size_t>(top))
               : blame.size();
  for (std::size_t i = 0; i < n; ++i) {
    const mpsim::BlameEdge& b = blame[i];
    const std::string phase =
        b.holder_phase < 0
            ? "(rank failure)"
            : (static_cast<std::size_t>(b.holder_phase) < phases.size()
                   ? phases[static_cast<std::size_t>(b.holder_phase)]
                   : "phase" + std::to_string(b.holder_phase));
    os << (i == 0 ? "" : ",") << "\n" << indent << "{\"idler\": " << b.idler
       << ", \"idler_level\": " << b.idler_level
       << ", \"holder\": " << b.holder << ", \"holder_phase\": \""
       << json_escaped(phase) << "\", \"idle_us\": "
       << json_double_exact(b.idle_us)
       << ", \"idle_pct\": " << json_double_exact(b.idle_pct) << "}";
  }
  if (n == 0) {
    os << "]";
  } else {
    os << "\n" << indent << "]";
  }
}

}  // namespace

int run_replay(const std::vector<EventLog>& logs, const ReplayOptions& opt,
               std::ostream& os) {
  // The subject of replay/sweep is the first parallel log; P=1 logs are
  // serial references for speedup/efficiency (matched on meta.n).
  const EventLog* main_log = nullptr;
  std::map<double, const EventLog*> serial_by_n;
  for (const EventLog& log : logs) {
    if (log.nprocs == 1) {
      if (serial_by_n.find(log.n) == serial_by_n.end()) {
        serial_by_n[log.n] = &log;
      }
    } else if (main_log == nullptr) {
      main_log = &log;
    }
  }
  if (main_log == nullptr && !logs.empty()) main_log = &logs[0];

  const auto target_for = [&opt](const EventLog& log) {
    mpsim::CostModel t = log.cost;
    for (const auto& [key, v] : opt.overrides) {
      (void)set_cost_constant(&t, key, v, nullptr);
    }
    return t;
  };

  bool check_ok = true;
  os << "{\n  \"schema\": \"pdt-replay-v1\",\n";
  os << "  \"inputs\": [";
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const EventLog& log = logs[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \""
       << json_escaped(log.name) << "\", \"formulation\": \""
       << json_escaped(log.formulation) << "\", \"workload\": \""
       << json_escaped(log.workload) << "\", \"n\": "
       << json_double_exact(log.n) << ", \"procs\": " << log.nprocs
       << ", \"events\": " << log.events.size() << "}";
  }
  os << "\n  ]";

  // Predicted-vs-measured overlay from logs recorded with a host
  // profiler: the virtual clock is the model's prediction, total_ns is
  // what the recording machine actually spent. The scaling rows pair
  // every host-carrying log against the smallest-P one with the same
  // meta.n, so a P sweep of logs charts predicted speedup next to the
  // measured wall-time ratio.
  {
    std::vector<const EventLog*> host_logs;
    for (const EventLog& log : logs) {
      if (log.has_host && log.host_total_ns > 0.0) host_logs.push_back(&log);
    }
    if (!host_logs.empty()) {
      os << ",\n  \"host\": {\"logs\": [";
      for (std::size_t i = 0; i < host_logs.size(); ++i) {
        const EventLog& log = *host_logs[i];
        os << (i == 0 ? "" : ",") << "\n    {\"name\": \""
           << json_escaped(log.name) << "\", \"procs\": " << log.nprocs
           << ", \"clock\": \"" << json_escaped(log.host_clock)
           << "\", \"total_ns\": " << json_double_exact(log.host_total_ns)
           << ", \"samples\": " << log.host_samples
           << ", \"virtual_us\": "
           << json_double_exact(log.recorded_max_clock)
           << ", \"ns_per_virtual_us\": "
           << json_double_exact(log.recorded_max_clock > 0.0
                                    ? log.host_total_ns /
                                          log.recorded_max_clock
                                    : 0.0)
           << ", \"by_phase\": [";
        for (std::size_t p = 0; p < log.host_by_phase.size(); ++p) {
          const HostPhaseRow& row = log.host_by_phase[p];
          os << (p == 0 ? "" : ", ") << "{\"phase\": \""
             << json_escaped(row.phase)
             << "\", \"host_ns\": " << json_double_exact(row.host_ns)
             << ", \"virtual_us\": " << json_double_exact(row.virtual_us)
             << "}";
        }
        os << "]}";
      }
      os << "\n  ], \"scaling\": [";
      bool first = true;
      for (const EventLog* log : host_logs) {
        // Baseline: the smallest-P host log sharing this log's meta.n.
        const EventLog* base = nullptr;
        for (const EventLog* cand : host_logs) {
          if (cand->n != log->n) continue;
          if (base == nullptr || cand->nprocs < base->nprocs) base = cand;
        }
        if (base == nullptr || base == log) continue;
        os << (first ? "" : ",") << "\n    {\"name\": \""
           << json_escaped(log->name) << "\", \"procs\": " << log->nprocs
           << ", \"baseline_procs\": " << base->nprocs
           << ", \"predicted_speedup\": "
           << json_double_exact(log->recorded_max_clock > 0.0
                                    ? base->recorded_max_clock /
                                          log->recorded_max_clock
                                    : 0.0)
           << ", \"measured_host_ratio\": "
           << json_double_exact(log->host_total_ns > 0.0
                                    ? base->host_total_ns /
                                          log->host_total_ns
                                    : 0.0)
           << "}";
        first = false;
      }
      os << "\n  ]}";
    }
  }

  if (opt.check) {
    os << ",\n  \"check\": {\"logs\": [";
    for (std::size_t i = 0; i < logs.size(); ++i) {
      const EventLog& log = logs[i];
      const mpsim::ClockFold r = replay_log(log, log.cost);
      bool ok = r.max_clock() == log.recorded_max_clock;
      os << (i == 0 ? "" : ",") << "\n    {\"name\": \""
         << json_escaped(log.name)
         << "\", \"max_clock_us\": " << json_double_exact(r.max_clock())
         << ", \"recorded_max_clock_us\": "
         << json_double_exact(log.recorded_max_clock)
         << ", \"mismatches\": [";
      bool first = true;
      for (int rank = 0; rank < log.nprocs; ++rank) {
        const double got = r.clocks()[static_cast<std::size_t>(rank)];
        const double want =
            log.recorded_clocks[static_cast<std::size_t>(rank)];
        if (got == want) continue;
        ok = false;
        os << (first ? "" : ", ") << "{\"rank\": " << rank
           << ", \"replayed_us\": " << json_double_exact(got)
           << ", \"recorded_us\": " << json_double_exact(want) << "}";
        first = false;
      }
      os << "], \"ok\": " << (ok ? "true" : "false") << "}";
      if (!ok) check_ok = false;
    }
    os << "\n  ], \"ok\": " << (check_ok ? "true" : "false") << "}";
  }

  if (main_log != nullptr) {
    const mpsim::CostModel target = target_for(*main_log);
    const mpsim::ClockFold r = replay_log(*main_log, target, true);
    os << ",\n  \"replay\": {\n    \"name\": \""
       << json_escaped(main_log->name) << "\",\n    \"cost_model\": {";
    write_cost_fields(os, target);
    os << "},\n    \"max_clock_us\": " << json_double_exact(r.max_clock())
       << ",\n    \"recorded_max_clock_us\": "
       << json_double_exact(main_log->recorded_max_clock)
       << ",\n    \"busy_total_us\": " << json_double_exact(r.busy_total())
       << ",\n    \"unscalable\": " << (r.unscalable() ? "true" : "false")
       << ",\n    \"clocks\": [";
    for (std::size_t i = 0; i < r.clocks().size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_double_exact(r.clocks()[i]);
    }
    os << "],\n    \"blame\": ";
    write_blame(os, r.blame(), main_log->phases, opt.blame_top, "      ");
    os << "\n  }";
  }

  if (!opt.sweep.empty() && main_log != nullptr) {
    const EventLog* serial = nullptr;
    if (const auto it = serial_by_n.find(main_log->n);
        it != serial_by_n.end()) {
      serial = it->second;
    } else if (!serial_by_n.empty()) {
      serial = serial_by_n.begin()->second;
    }
    os << ",\n  \"sweep\": {\n    \"axes\": [";
    for (std::size_t i = 0; i < opt.sweep.size(); ++i) {
      const SweepAxis& a = opt.sweep[i];
      os << (i == 0 ? "" : ", ") << "{\"key\": \"" << json_escaped(a.key)
         << "\", \"lo\": " << json_double_exact(a.lo)
         << ", \"hi\": " << json_double_exact(a.hi)
         << ", \"step\": " << json_double_exact(a.step) << "}";
    }
    os << "],\n    \"serial_reference\": \""
       << json_escaped(serial != nullptr ? serial->name : "busy-sum")
       << "\",\n    \"procs\": " << main_log->nprocs
       << ",\n    \"points\": [";

    std::vector<int> idx(opt.sweep.size(), 0);
    bool first = true;
    bool done = false;
    while (!done) {
      mpsim::CostModel cost = target_for(*main_log);
      for (std::size_t a = 0; a < opt.sweep.size(); ++a) {
        (void)set_cost_constant(&cost, opt.sweep[a].key,
                                opt.sweep[a].lo + idx[a] * opt.sweep[a].step,
                                nullptr);
      }
      const mpsim::ClockFold r = replay_log(*main_log, cost);
      const double serial_us =
          serial != nullptr ? replay_log(*serial, cost).max_clock()
                            : r.busy_total();
      const double speedup = r.max_clock() > 0.0 ? serial_us / r.max_clock() : 0.0;
      const double efficiency = speedup / main_log->nprocs;
      os << (first ? "" : ",") << "\n      {";
      for (std::size_t a = 0; a < opt.sweep.size(); ++a) {
        os << "\"" << json_escaped(opt.sweep[a].key) << "\": "
           << json_double_exact(opt.sweep[a].lo + idx[a] * opt.sweep[a].step)
           << ", ";
      }
      os << "\"max_clock_us\": " << json_double_exact(r.max_clock())
         << ", \"serial_us\": " << json_double_exact(serial_us)
         << ", \"speedup\": " << json_double_exact(speedup)
         << ", \"efficiency\": " << json_double_exact(efficiency) << "}";
      first = false;

      // Odometer increment over the axis grid.
      std::size_t a = 0;
      for (; a < opt.sweep.size(); ++a) {
        if (++idx[a] < axis_steps(opt.sweep[a])) break;
        idx[a] = 0;
      }
      done = a == opt.sweep.size();
    }
    os << "\n    ]\n  }";
  }

  if (opt.iso) {
    const double E = opt.iso_efficiency;
    // Serial reference times by recorded n, under the same overrides.
    std::map<double, double> serial_time;
    for (const auto& [n, log] : serial_by_n) {
      serial_time[n] = replay_log(*log, target_for(*log)).max_clock();
    }
    // Measured efficiency grid: procs -> sorted (n, efficiency).
    struct GridPoint {
      double n = 0.0;
      double efficiency = 0.0;
      double max_clock = 0.0;
      bool busy_estimate = false;
    };
    std::map<int, std::vector<GridPoint>> by_p;
    double iso_c = 0.0;
    for (const EventLog& log : logs) {
      if (log.nprocs <= 1) continue;
      if (iso_c == 0.0) iso_c = log.iso_c;
      const mpsim::ClockFold r = replay_log(log, target_for(log));
      GridPoint pt;
      pt.n = log.n;
      pt.max_clock = r.max_clock();
      const auto it = serial_time.find(log.n);
      const double serial_us =
          it != serial_time.end() ? it->second : r.busy_total();
      pt.busy_estimate = it == serial_time.end();
      pt.efficiency = r.max_clock() > 0.0
                          ? serial_us / (log.nprocs * r.max_clock())
                          : 0.0;
      by_p[log.nprocs].push_back(pt);
    }
    os << ",\n  \"iso\": {\n    \"efficiency\": " << json_double_exact(E)
       << ",\n    \"iso_c\": " << json_double_exact(iso_c)
       << ",\n    \"points\": [";
    bool first = true;
    for (auto& [p, grid] : by_p) {
      std::sort(grid.begin(), grid.end(),
                [](const GridPoint& a, const GridPoint& b) { return a.n < b.n; });
      // Efficiency grows with n: find the bracketing pair around the
      // target and interpolate the measured isoefficiency point.
      double measured = 0.0;
      bool bracketed = false;
      std::size_t k = 0;
      while (k < grid.size() && grid[k].efficiency < E) ++k;
      if (k == 0) {
        measured = grid.empty() ? 0.0 : grid.front().n;
      } else if (k == grid.size()) {
        measured = grid.back().n;
      } else {
        const GridPoint& a = grid[k - 1];
        const GridPoint& b = grid[k];
        const double span = b.efficiency - a.efficiency;
        measured = span > 0.0
                       ? a.n + (E - a.efficiency) * (b.n - a.n) / span
                       : b.n;
        bracketed = true;
      }
      const double analytic =
          E < 1.0 ? E / (1.0 - E) * iso_c * p * mpsim::ceil_log2(p) : 0.0;
      os << (first ? "" : ",") << "\n      {\"procs\": " << p
         << ", \"measured_n\": " << json_double_exact(measured)
         << ", \"analytic_n\": " << json_double_exact(analytic)
         << ", \"error_pct\": "
         << json_double_exact(analytic > 0.0
                                  ? 100.0 * (measured - analytic) / analytic
                                  : 0.0)
         << ", \"bracketed\": " << (bracketed ? "true" : "false")
         << ", \"grid\": [";
      for (std::size_t i = 0; i < grid.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "{\"n\": "
           << json_double_exact(grid[i].n) << ", \"efficiency\": "
           << json_double_exact(grid[i].efficiency) << ", \"max_clock_us\": "
           << json_double_exact(grid[i].max_clock) << ", \"busy_estimate\": "
           << (grid[i].busy_estimate ? "true" : "false") << "}";
      }
      os << "]}";
      first = false;
    }
    os << "\n    ]\n  }";
  }

  os << "\n}\n";
  return check_ok ? 0 : 1;
}

}  // namespace pdt::tools
