#include "obs/export.hpp"

#include <algorithm>
#include <string>
#include <thread>

#include "obs/fingerprint.hpp"

namespace pdt::obs {

// ------------------------------------------------------------ Perfetto --

void write_perfetto_trace(std::ostream& os, const PhaseProfiler& profiler,
                          const std::vector<mpsim::TraceEvent>& collectives) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.kv("generator", "pdtree obs");
  w.kv("clock", "virtual microseconds (mpsim)");
  w.kv("truncated", profiler.truncated());
  w.end_object();
  w.key("traceEvents").begin_array();

  // Track metadata: one process, one named thread per rank.
  w.begin_object();
  w.kv("ph", "M").kv("pid", 0).kv("tid", 0).kv("name", "process_name");
  w.key("args").begin_object().kv("name", "mpsim machine").end_object();
  w.end_object();
  for (int r = 0; r < profiler.num_ranks(); ++r) {
    w.begin_object();
    w.kv("ph", "M").kv("pid", 0).kv("tid", r).kv("name", "thread_name");
    w.key("args")
        .begin_object()
        .kv("name", "rank " + std::to_string(r))
        .end_object();
    w.end_object();
  }

  // Phase slices: complete duration events on the rank's track. "ts" is
  // already in microseconds — the virtual clock's unit.
  for (const Slice& s : profiler.slices()) {
    w.begin_object();
    w.kv("ph", "X").kv("pid", 0).kv("tid", s.rank);
    w.kv("ts", s.start).kv("dur", s.dur);
    w.kv("name", std::string(profiler.phase_name(s.phase)) + "/" +
                     mpsim::to_string(s.kind));
    w.kv("cat", mpsim::to_string(s.kind));
    w.key("args").begin_object();
    w.kv("level", s.level);
    w.kv("phase", profiler.phase_name(s.phase));
    w.end_object();
    w.end_object();
  }

  // Collectives as flow arrows from the group's first to its last rank at
  // the completion time (a point-tied visual cue of who synchronized).
  std::uint64_t flow_id = 1;
  for (const mpsim::TraceEvent& ev : collectives) {
    if (ev.group_size <= 1) continue;
    const int first = ev.group_base;
    const int last = ev.group_base + ev.group_size - 1;
    w.begin_object();
    w.kv("ph", "s").kv("id", flow_id).kv("pid", 0).kv("tid", first);
    w.kv("ts", ev.time).kv("name", mpsim::to_string(ev.kind));
    w.kv("cat", "collective");
    w.key("args").begin_object();
    w.kv("words", ev.words).kv("detail", ev.detail);
    w.end_object();
    w.end_object();
    w.begin_object();
    w.kv("ph", "f").kv("bp", "e").kv("id", flow_id).kv("pid", 0);
    w.kv("tid", last).kv("ts", ev.time);
    w.kv("name", mpsim::to_string(ev.kind)).kv("cat", "collective");
    w.end_object();
    ++flow_id;
  }

  w.end_array();
  w.end_object();
  os << '\n';
}

// ------------------------------------------------------------- metrics --

namespace {

void write_totals_fields(JsonWriter& w, const PhaseTotals& t) {
  w.kv("compute_us", t.compute);
  w.kv("comm_us", t.comm);
  w.kv("io_us", t.io);
  w.kv("idle_us", t.idle);
  w.kv("words_sent", t.words_sent);
  w.kv("words_received", t.words_received);
  w.kv("charges", t.charges);
}

}  // namespace

void write_metrics(JsonWriter& w, const Observability& o) {
  const PhaseProfiler& prof = o.profiler();
  w.begin_object();
  w.kv("schema", "pdt-metrics-v1");
  w.kv("num_ranks", prof.num_ranks());
  w.kv("max_level", prof.max_level());

  // Per-(phase, level, rank) breakdown — the full attribution table.
  w.key("phases").begin_array();
  {
    const auto rows = prof.rows();
    // Group rows by (phase, level); rows() is sorted that way already.
    std::size_t i = 0;
    while (i < rows.size()) {
      const PhaseId phase = rows[i].phase;
      const int level = rows[i].level;
      w.begin_object();
      w.kv("phase", prof.phase_name(phase));
      w.kv("level", level);
      PhaseTotals sum;
      w.key("per_rank").begin_array();
      for (; i < rows.size() && rows[i].phase == phase &&
             rows[i].level == level;
           ++i) {
        sum += rows[i].totals;
        w.begin_object();
        w.kv("rank", rows[i].rank);
        write_totals_fields(w, rows[i].totals);
        w.end_object();
      }
      w.end_array();
      write_totals_fields(w, sum);
      w.end_object();
    }
  }
  w.end_array();

  // Per-level rollup across phases: the Section-5 "where did the time go
  // at this depth" view, with the derived balance factors.
  w.key("levels").begin_array();
  for (int level = -1; level <= prof.max_level(); ++level) {
    const std::vector<PhaseTotals> per_rank = prof.level_rank_totals(level);
    PhaseTotals sum;
    for (const PhaseTotals& t : per_rank) sum += t;
    if (sum.charges == 0) continue;
    w.begin_object();
    w.kv("level", level);
    write_totals_fields(w, sum);
    w.kv("load_imbalance", prof.load_imbalance(level));
    w.kv("comm_to_compute",
         sum.compute > 0.0 ? sum.comm / sum.compute : 0.0);
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

// ---------------------------------------------------------------- comm --

namespace {

void write_ledger_totals_fields(JsonWriter& w,
                                const mpsim::CommLedger::Totals& t) {
  w.kv("calls", t.calls);
  w.kv("words", t.words);
  w.kv("predicted_us", t.predicted_us);
  w.kv("measured_us", t.measured_us);
  w.kv("delta_us", t.delta_us());
  w.kv("io_us", t.io_us);
  w.kv("messages", t.messages);
  // Transient-retry waste attributed to this slice; omitted when zero so
  // fault-free artifacts keep their pre-retry byte layout.
  if (t.retries > 0) {
    w.kv("retry_us", t.retry_us);
    w.kv("retries", t.retries);
  }
}

std::string comm_phase_name(const PhaseProfiler* profiler, PhaseId phase) {
  if (profiler != nullptr &&
      static_cast<std::size_t>(phase) < profiler->phase_names().size()) {
    return std::string(profiler->phase_name(phase));
  }
  return "phase" + std::to_string(phase);
}

}  // namespace

void write_comm(JsonWriter& w, const mpsim::CommLedger& ledger,
                const CriticalPathTracer* critical,
                const PhaseProfiler* profiler, int top_k) {
  w.begin_object();
  w.kv("schema", "pdt-comm-v1");
  w.kv("num_ranks", ledger.num_ranks());
  w.kv("num_collective_calls",
       static_cast<std::uint64_t>(ledger.entries().size()));

  // Aggregates per collective kind; kinds never called are omitted.
  w.key("collectives").begin_array();
  for (int k = 0; k < mpsim::kNumCollectiveKinds; ++k) {
    const auto kind = static_cast<mpsim::CollectiveKind>(k);
    const mpsim::CommLedger::Totals t = ledger.kind_totals(kind);
    if (t.calls == 0) continue;
    w.begin_object();
    w.kv("kind", mpsim::to_string(kind));
    write_ledger_totals_fields(w, t);
    w.end_object();
  }
  w.end_array();

  // Aggregates per tree level (-1 = outside any level scope).
  w.key("levels").begin_array();
  for (int level = -1; level <= ledger.max_level(); ++level) {
    const mpsim::CommLedger::Totals t = ledger.level_totals(level);
    if (t.calls == 0) continue;
    w.begin_object();
    w.kv("level", level);
    write_ledger_totals_fields(w, t);
    w.end_object();
  }
  w.end_array();

  // Rank x rank traffic (row = sender). Words are 4-byte wire words, so
  // bytes = 4 * words.
  const int n = ledger.num_ranks();
  w.key("matrix").begin_object();
  w.key("bytes").begin_array();
  for (int f = 0; f < n; ++f) {
    w.begin_array();
    for (int t = 0; t < n; ++t) w.value(4.0 * ledger.words(f, t));
    w.end_array();
  }
  w.end_array();
  w.key("messages").begin_array();
  for (int f = 0; f < n; ++f) {
    w.begin_array();
    for (int t = 0; t < n; ++t) w.value(ledger.messages(f, t));
    w.end_array();
  }
  w.end_array();
  w.end_object();

  if (critical != nullptr) {
    const CriticalPathTracer::Path path = critical->path();
    w.key("critical_path").begin_object();
    w.kv("max_clock_us", path.max_clock_us);
    w.kv("end_rank", path.end_rank);
    w.kv("handoffs", path.handoffs);
    w.kv("barriers", critical->barriers());
    w.kv("num_segments", static_cast<std::uint64_t>(path.segments.size()));

    // Time along the path by charge kind, and by phase.
    mpsim::Time by_kind[4] = {0.0, 0.0, 0.0, 0.0};
    std::vector<mpsim::Time> by_phase;
    for (const PathSegment& s : path.segments) {
      by_kind[static_cast<int>(s.kind)] += s.dur_us();
      if (static_cast<std::size_t>(s.phase) >= by_phase.size()) {
        by_phase.resize(static_cast<std::size_t>(s.phase) + 1, 0.0);
      }
      by_phase[static_cast<std::size_t>(s.phase)] += s.dur_us();
    }
    w.key("by_kind").begin_object();
    w.kv("compute_us", by_kind[static_cast<int>(mpsim::ChargeKind::Compute)]);
    w.kv("comm_us", by_kind[static_cast<int>(mpsim::ChargeKind::Comm)]);
    w.kv("io_us", by_kind[static_cast<int>(mpsim::ChargeKind::Io)]);
    w.kv("idle_us", by_kind[static_cast<int>(mpsim::ChargeKind::Idle)]);
    w.end_object();
    w.key("by_phase").begin_array();
    for (std::size_t p = 0; p < by_phase.size(); ++p) {
      if (by_phase[p] == 0.0) continue;
      w.begin_object();
      w.kv("phase", comm_phase_name(profiler, static_cast<PhaseId>(p)));
      w.kv("us", by_phase[p]);
      w.kv("blame_pct", path.max_clock_us > 0.0
                            ? 100.0 * by_phase[p] / path.max_clock_us
                            : 0.0);
      w.end_object();
    }
    w.end_array();

    // Top-k segments by duration (ties broken by start time, so the
    // ordering — and the exported report — is deterministic).
    std::vector<const PathSegment*> by_dur;
    by_dur.reserve(path.segments.size());
    for (const PathSegment& s : path.segments) by_dur.push_back(&s);
    std::sort(by_dur.begin(), by_dur.end(),
              [](const PathSegment* a, const PathSegment* b) {
                if (a->dur_us() != b->dur_us()) return a->dur_us() > b->dur_us();
                return a->start_us < b->start_us;
              });
    if (top_k >= 0 && static_cast<std::size_t>(top_k) < by_dur.size()) {
      by_dur.resize(static_cast<std::size_t>(top_k));
    }
    w.key("top_segments").begin_array();
    for (const PathSegment* s : by_dur) {
      w.begin_object();
      w.kv("rank", s->rank);
      w.kv("phase", comm_phase_name(profiler, s->phase));
      w.kv("level", s->level);
      w.kv("kind", mpsim::to_string(s->kind));
      w.kv("start_us", s->start_us);
      w.kv("dur_us", s->dur_us());
      w.kv("blame_pct", path.max_clock_us > 0.0
                            ? 100.0 * s->dur_us() / path.max_clock_us
                            : 0.0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
}

// -------------------------------------------------------------- events --

namespace {

/// Compact per-event tag arrays keep million-event logs tractable. Tags:
///   ["cp", rank, dt, phase, level]                     compute charge
///   ["io", rank, dt, phase, level]                     io charge
///   ["cm", rank, dt, lat, ws, wr, msgs, phase, level]  comm charge
///   ["b",  what, [members]]                            barrier
///   ["to", dead, [survivors]]                          timeout
///   ["w",  rank, until]                                wait (absolute)
///   ["wf", rank, src]                                  wait-for (causal)
///   ["g",  kind, words, dim, [members]]                collective
///   ["rt", faulty, mult, [members]]                    transient retry
void write_event(JsonWriter& w, const mpsim::ExecEvent& e) {
  using Type = mpsim::ExecEvent::Type;
  w.begin_array();
  switch (e.type) {
    case Type::Charge:
      if (e.kind == mpsim::ChargeKind::Comm) {
        w.value("cm").value(e.rank).value(e.dt_us).value(e.latency_us);
        w.value(e.words_sent).value(e.words_received).value(e.messages);
        w.value(e.phase).value(e.level);
      } else {
        w.value(e.kind == mpsim::ChargeKind::Io ? "io" : "cp");
        w.value(e.rank).value(e.dt_us).value(e.phase).value(e.level);
      }
      break;
    case Type::Barrier:
      w.value("b").value(e.what);
      w.begin_array();
      for (const mpsim::Rank r : e.members) w.value(r);
      w.end_array();
      break;
    case Type::Timeout:
      w.value("to").value(e.rank);
      w.begin_array();
      for (const mpsim::Rank r : e.members) w.value(r);
      w.end_array();
      break;
    case Type::Wait:
      w.value("w").value(e.rank).value(e.until_us);
      break;
    case Type::WaitFor:
      w.value("wf").value(e.rank).value(e.peer);
      break;
    case Type::Collective:
      w.value("g").value(e.what).value(e.words).value(e.dim);
      w.begin_array();
      for (const mpsim::Rank r : e.members) w.value(r);
      w.end_array();
      break;
    case Type::Retry:
      w.value("rt").value(e.rank).value(e.mult);
      w.begin_array();
      for (const mpsim::Rank r : e.members) w.value(r);
      w.end_array();
      break;
  }
  w.end_array();
}

}  // namespace

namespace {

/// The compact host overlay shared by the events log and any envelope
/// that wants a one-object wall-clock summary: totals and a per-phase
/// host-vs-virtual rollup.
void write_host_overlay(JsonWriter& w, const HostProfiler& host) {
  w.begin_object();
  w.kv("clock", host.clock_name());
  w.kv("total_ns", host.total_ns());
  w.kv("samples", host.samples());

  const PhaseProfiler* prof = host.stamps();
  w.key("by_phase").begin_array();
  for (PhaseId p = 0; p < host.num_phases(); ++p) {
    const HostTotals h = host.phase_totals(p, 0, /*any_level=*/true);
    if (h.samples == 0) continue;
    w.begin_object();
    w.kv("phase", comm_phase_name(prof, p));
    w.kv("host_ns", h.total_ns());
    if (prof != nullptr) {
      w.kv("virtual_us", prof->phase_totals(p, 0, /*any_level=*/true).total());
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void write_events(JsonWriter& w, const mpsim::EventRecorder& rec,
                  const EventLogMeta& meta, const HostProfiler* host) {
  w.begin_object();
  w.kv("schema", "pdt-events-v1");
  w.kv("nprocs", rec.nprocs());

  const mpsim::CostModel& cm = rec.cost();
  w.key("cost_model").begin_object();
  w.kv("t_s", cm.t_s);
  w.kv("t_w", cm.t_w);
  w.kv("t_c", cm.t_c);
  w.kv("t_io", cm.t_io);
  w.kv("t_timeout", cm.t_timeout);
  w.end_object();

  w.key("meta").begin_object();
  w.kv("formulation", meta.formulation);
  w.kv("workload", meta.workload);
  w.kv("n", meta.n);
  w.kv("procs", meta.procs != 0 ? meta.procs : rec.nprocs());
  w.kv("iso_c", meta.iso_c);
  if (meta.fingerprint != nullptr) {
    w.key("fingerprint");
    write_fingerprint(w, *meta.fingerprint);
  }
  w.end_object();

  w.key("phases").begin_array();
  for (const std::string& name : rec.phase_names()) w.value(name);
  w.end_array();

  w.key("events").begin_array();
  for (const mpsim::ExecEvent& e : rec.events()) write_event(w, e);
  w.end_array();

  // The recorded ground truth the replay identity gate checks against:
  // shadow clocks equal the machine's clocks bit-exactly (json_double_exact
  // round-trips every double losslessly).
  w.key("final").begin_object();
  w.kv("max_clock_us", rec.max_clock());
  w.key("clocks").begin_array();
  for (const mpsim::Time c : rec.clocks()) w.value(c);
  w.end_array();
  w.end_object();

  // Measured wall-clock overlay (absent when no host profiler ran, so
  // pre-host logs stay byte-identical). pdt replay uses this to chart
  // predicted (virtual, re-priced) against measured (host) scaling.
  if (host != nullptr) {
    w.key("host");
    write_host_overlay(w, *host);
  }

  w.end_object();
}

void write_events_report(std::ostream& os, const mpsim::EventRecorder& rec,
                         const EventLogMeta& meta, const HostProfiler* host) {
  JsonWriter w(os);
  write_events(w, rec, meta, host);
  os << '\n';
}

// ---------------------------------------------------------------- host --

void write_host(JsonWriter& w, const HostProfiler& host) {
  const PhaseProfiler* prof = host.stamps();
  w.begin_object();
  w.kv("schema", "pdt-host-v1");
  w.kv("clock", host.clock_name());
  w.kv("total_ns", host.total_ns());
  w.kv("samples", host.samples());
  // Backwards clock steps are clamped to zero-length intervals; surface
  // the count when it happened (absent otherwise, so clean runs keep
  // their pre-counter bytes).
  if (host.clamped() > 0) w.kv("clamped", host.clamped());

  // One row per (phase, level) scope, paired with the virtual
  // microseconds the same (phase, level) holds. Their sum is the virtual
  // grand total paired against total_ns (for the report's headline
  // "1 virtual us cost X host ns on this machine" ratio).
  double virtual_total_us = 0.0;
  w.key("phases").begin_array();
  for (const HostProfiler::Row& row : host.rows()) {
    w.begin_object();
    w.kv("phase", comm_phase_name(prof, row.phase));
    w.kv("level", row.level);
    w.kv("total_ns", row.totals.total_ns());
    w.kv("samples", row.totals.samples);
    if (prof != nullptr) {
      const double vus = prof->phase_totals(row.phase, row.level).total();
      virtual_total_us += vus;
      w.kv("virtual_us", vus);
    }
    w.end_object();
  }
  w.end_array();
  w.kv("virtual_total_us", virtual_total_us);

  // Per-phase rollup: host share vs. virtual share of their respective
  // grand totals, and the signed divergence in percentage points — the
  // ranking pdt report uses to surface where the cost model and the host
  // disagree most.
  w.key("by_phase").begin_array();
  const std::int64_t host_total = host.total_ns();
  for (PhaseId p = 0; p < host.num_phases(); ++p) {
    const HostTotals h = host.phase_totals(p, 0, /*any_level=*/true);
    if (h.samples == 0) continue;
    w.begin_object();
    w.kv("phase", comm_phase_name(prof, p));
    w.kv("host_ns", h.total_ns());
    const double host_share =
        host_total > 0 ? 100.0 * static_cast<double>(h.total_ns()) /
                             static_cast<double>(host_total)
                       : 0.0;
    w.kv("host_share_pct", host_share);
    if (prof != nullptr) {
      const double vus = prof->phase_totals(p, 0, /*any_level=*/true).total();
      w.kv("virtual_us", vus);
      const double virtual_share =
          virtual_total_us > 0.0 ? 100.0 * vus / virtual_total_us : 0.0;
      w.kv("virtual_share_pct", virtual_share);
      w.kv("divergence_pp", host_share - virtual_share);
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

void write_host_report(std::ostream& os, const HostProfiler& host) {
  JsonWriter w(os);
  write_host(w, host);
  os << '\n';
}

// ------------------------------------------------------------- threads --

void write_threads_report(std::ostream& os, const Observability& /*o*/) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "pdt-threads-v1");
  w.kv("hardware_concurrency",
       static_cast<int>(std::thread::hardware_concurrency()));
  w.end_object();
  os << '\n';
}

// ----------------------------------------------------------------- mem --

void write_mem(JsonWriter& w, const std::vector<mpsim::MemStats>& per_rank,
               const mpsim::MemPredicted* predicted, const MemLedger* ledger,
               const PhaseProfiler* profiler, int top_k) {
  w.begin_object();
  w.kv("schema", "pdt-mem-v1");
  w.kv("num_ranks", static_cast<int>(per_rank.size()));

  // The memory bottleneck: the rank whose high-water mark is largest
  // (smallest such rank on ties, so the report is deterministic).
  std::int64_t max_peak = 0;
  std::int64_t total_peak = 0;
  int peak_rank = 0;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    total_peak += per_rank[r].peak_total;
    if (per_rank[r].peak_total > max_peak) {
      max_peak = per_rank[r].peak_total;
      peak_rank = static_cast<int>(r);
    }
  }
  w.kv("max_rank_peak_bytes", max_peak);
  w.kv("peak_rank", peak_rank);
  w.kv("total_peak_bytes", total_peak);

  if (predicted != nullptr && !predicted->empty()) {
    w.key("predicted").begin_object();
    w.kv("records_bytes", predicted->records_bytes);
    w.kv("histogram_bytes", predicted->histogram_bytes);
    w.kv("scratch_bytes", predicted->scratch_bytes);
    w.kv("total_bytes", predicted->total());
    // Relative error of the measured bottleneck against the analytic
    // per-rank bound (positive = measured above prediction).
    w.kv("max_rank_error_pct",
         100.0 *
             (static_cast<double>(max_peak) -
              static_cast<double>(predicted->total())) /
             static_cast<double>(predicted->total()));
    w.end_object();
  }

  w.key("per_rank").begin_array();
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const mpsim::MemStats& m = per_rank[r];
    w.begin_object();
    w.kv("rank", static_cast<int>(r));
    w.kv("live_bytes", m.live_total);
    w.kv("peak_bytes", m.peak_total);
    w.key("tags").begin_array();
    for (int t = 0; t < mpsim::kNumMemTags; ++t) {
      const auto tag = static_cast<mpsim::MemTag>(t);
      if (m.peak_for(tag) == 0) continue;
      w.begin_object();
      w.kv("tag", mpsim::to_string(tag));
      w.kv("live_bytes", m.live_for(tag));
      w.kv("peak_bytes", m.peak_for(tag));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  // Per-structure summary over ranks: is this structure's footprint
  // distributed (max-rank peak shrinks with P) or replicated (it
  // doesn't)? The report-side scalability verdict compares these across
  // runs at different P.
  w.key("tags").begin_array();
  for (int t = 0; t < mpsim::kNumMemTags; ++t) {
    const auto tag = static_cast<mpsim::MemTag>(t);
    std::int64_t tag_max = 0;
    std::int64_t tag_total = 0;
    for (const mpsim::MemStats& m : per_rank) {
      tag_max = std::max(tag_max, m.peak_for(tag));
      tag_total += m.peak_for(tag);
    }
    if (tag_total == 0) continue;
    w.begin_object();
    w.kv("tag", mpsim::to_string(tag));
    w.kv("max_rank_peak_bytes", tag_max);
    w.kv("total_peak_bytes", tag_total);
    w.end_object();
  }
  w.end_array();

  if (ledger != nullptr) {
    w.key("ledger").begin_object();
    w.kv("events", ledger->events());
    std::int64_t charged = 0;
    std::int64_t released = 0;
    for (int r = 0; r < ledger->num_ranks(); ++r) {
      charged += ledger->charged_bytes(r);
      released += ledger->released_bytes(r);
    }
    w.kv("charged_bytes", charged);
    w.kv("released_bytes", released);

    const std::vector<MemLedger::Row> rows = ledger->rows();
    w.key("segments").begin_array();
    for (const MemLedger::Row& row : rows) {
      if (row.peak == 0 && row.live == 0) continue;
      w.begin_object();
      w.kv("tag", mpsim::to_string(row.tag));
      w.kv("phase", comm_phase_name(profiler, row.phase));
      w.kv("level", row.level);
      w.kv("rank", row.rank);
      w.kv("live_bytes", row.live);
      w.kv("peak_bytes", row.peak);
      w.end_object();
    }
    w.end_array();

    // Top-k attribution cells by peak bytes (rows() order breaks ties,
    // so the list is deterministic).
    std::vector<MemLedger::Row> top = rows;
    std::stable_sort(top.begin(), top.end(),
                     [](const MemLedger::Row& a, const MemLedger::Row& b) {
                       return a.peak > b.peak;
                     });
    if (top_k >= 0 && static_cast<std::size_t>(top_k) < top.size()) {
      top.resize(static_cast<std::size_t>(top_k));
    }
    w.key("top_segments").begin_array();
    for (const MemLedger::Row& row : top) {
      if (row.peak == 0) continue;
      w.begin_object();
      w.kv("tag", mpsim::to_string(row.tag));
      w.kv("phase", comm_phase_name(profiler, row.phase));
      w.kv("level", row.level);
      w.kv("rank", row.rank);
      w.kv("peak_bytes", row.peak);
      w.kv("share_pct", max_peak > 0 ? 100.0 * static_cast<double>(row.peak) /
                                           static_cast<double>(max_peak)
                                     : 0.0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
}

}  // namespace pdt::obs
