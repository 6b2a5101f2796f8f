// Shared helpers for the figure-regeneration harnesses.
//
// Each fig*_ binary regenerates one figure of the paper's evaluation
// (Section 5) on the simulated SP-2. Dataset sizes default to 1/10 of the
// paper's (the simulator runs on one host core); set PDT_SCALE to change,
// e.g. PDT_SCALE=1.0 for the paper's full 0.8M/1.6M records.
//
// Besides the human-readable text, every harness emits a machine-readable
// JSON report ("pdt-bench-v1") next to its text output — <harness>.json
// in the working directory — and the instrumented sections dump
// Perfetto-loadable traces (<harness>.<tag>.trace.json). Set PDT_JSON=0
// to disable all file output, PDT_JSON_DIR=<dir> to redirect it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/metrics.hpp"
#include "dtree/serialize.hpp"
#include "obs/atomic_file.hpp"
#include "obs/export.hpp"
#include "obs/fingerprint.hpp"
#include "obs/observability.hpp"

namespace pdt::bench {

/// Global size multiplier from the PDT_SCALE env var (default 0.1).
/// Rejects non-numeric or non-positive values with a warning instead of
/// silently training on a 0-record dataset.
inline double scale() {
  const char* env = std::getenv("PDT_SCALE");
  if (env == nullptr || *env == '\0') return 0.1;
  char* end = nullptr;
  const double s = std::strtod(env, &end);
  while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
  if (end == env || *end != '\0' || !std::isfinite(s) || s <= 0.0) {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "warning: PDT_SCALE=\"%s\" is not a positive number; "
                   "using the default 0.1\n",
                   env);
    }
    return 0.1;
  }
  return s;
}

inline std::size_t scaled(double paper_n) {
  return static_cast<std::size_t>(paper_n * scale());
}

/// The paper's Figure 6/7 workload: Quest function 2 with the six
/// continuous attributes uniformly discretized (13/14/6/11/10/20 bins).
inline data::Dataset fig6_workload(std::size_t n, std::uint64_t seed = 1) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

/// The paper's Figure 8/9 workload: original continuous attributes with
/// SPEC-style per-node clustering discretization.
inline core::ParOptions fig8_options() {
  core::ParOptions opt;
  opt.grow.cont_split = dtree::ContSplit::KMeans;
  opt.grow.cont_bins = 32;
  opt.grow.per_node_bins = 8;
  opt.grow.min_records = 8;
  return opt;
}

inline void header(const char* fig, const char* what) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("simulated machine: IBM SP-2 cost model (t_s=%.0fus, "
              "t_w=%.2fus/word, t_c=%.2fus)\n",
              mpsim::CostModel::sp2().t_s, mpsim::CostModel::sp2().t_w,
              mpsim::CostModel::sp2().t_c);
  std::printf("dataset scale: %.2fx the paper's (PDT_SCALE to change)\n",
              scale());
  std::printf("================================================================\n");
}

/// Directory for JSON artifacts, or nullopt when disabled (PDT_JSON=0).
/// A PDT_JSON_DIR that does not exist yet is created recursively (the CI
/// repeat loops point fresh harness runs at per-repeat directories); a
/// failed creation warns once and lets the per-file opens report the
/// rest.
inline std::optional<std::string> json_dir() {
  const char* toggle = std::getenv("PDT_JSON");
  if (toggle != nullptr &&
      (std::string(toggle) == "0" || std::string(toggle) == "off")) {
    return std::nullopt;
  }
  const char* dir = std::getenv("PDT_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return std::string(".");
  static bool attempted = false;
  if (!attempted) {
    attempted = true;
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec)) {
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        std::fprintf(stderr,
                     "warning: cannot create PDT_JSON_DIR \"%s\": %s\n", dir,
                     ec.message().c_str());
      }
    }
  }
  return std::string(dir);
}

inline std::string json_path(const std::string& file) {
  return *json_dir() + "/" + file;
}

/// Host (wall-clock) profiling toggle: on by default — the profiler is
/// non-perturbing (the parity suite proves the virtual state identical) —
/// PDT_HOST=0 turns it off, PDT_HOST_COUNTERS=1 additionally asks for
/// perf_event_open cycle/instruction counters.
inline bool host_enabled() {
  const char* env = std::getenv("PDT_HOST");
  return env == nullptr ||
         (std::string(env) != "0" && std::string(env) != "off");
}

inline bool host_counters_requested() {
  const char* env = std::getenv("PDT_HOST_COUNTERS");
  return env != nullptr && std::string(env) == "1";
}

/// This process's environment fingerprint (git SHA, compiler, CPU,
/// PDT_* env) — collected once, stamped into every envelope and event
/// log so the pdt-trend registry can attribute any drift to a build or
/// machine change.
inline const obs::EnvFingerprint& fingerprint() {
  static const obs::EnvFingerprint fp = obs::EnvFingerprint::collect();
  return fp;
}

/// The harness's JSON report: an envelope object with run metadata and a
/// "sections" array that the harness appends section objects to through
/// writer(). All methods are safe no-ops when JSON output is disabled.
class BenchReport {
 public:
  explicit BenchReport(const char* harness) : harness_(harness) {
    if (!json_dir().has_value()) return;
    file_.emplace(json_path(std::string(harness) + ".json"));
    if (!file_->ok()) {
      std::fprintf(stderr, "warning: cannot write %s; JSON report disabled\n",
                   file_->path().c_str());
      file_.reset();
      return;
    }
    w_.emplace(file_->stream());
    w_->begin_object();
    w_->kv("schema", "pdt-bench-v1");
    w_->kv("harness", harness);
    w_->kv("scale", scale());
    w_->key("cost_model").begin_object();
    w_->kv("t_s", mpsim::CostModel::sp2().t_s);
    w_->kv("t_w", mpsim::CostModel::sp2().t_w);
    w_->kv("t_c", mpsim::CostModel::sp2().t_c);
    w_->kv("t_io", mpsim::CostModel::sp2().t_io);
    w_->end_object();
    w_->key("fingerprint");
    obs::write_fingerprint(*w_, fingerprint());
    w_->key("sections").begin_array();
  }

  ~BenchReport() {
    if (!w_.has_value()) return;
    w_->end_array();
    w_->end_object();
    file_->stream() << '\n';
    if (file_->commit()) {
      std::printf("\n[json] wrote %s\n", file_->path().c_str());
    } else {
      std::fprintf(stderr, "warning: failed to write %s\n",
                   file_->path().c_str());
    }
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Streaming writer positioned inside the "sections" array, or nullptr
  /// when JSON output is disabled.
  [[nodiscard]] obs::JsonWriter* writer() {
    return w_.has_value() ? &*w_ : nullptr;
  }
  [[nodiscard]] const char* harness() const { return harness_; }

 private:
  const char* harness_;
  std::optional<obs::AtomicFile> file_;
  std::optional<obs::JsonWriter> w_;
};

/// Workload provenance for the model artifacts: enough to regenerate the
/// training and held-out Quest datasets offline (`pdt-tree eval` relies
/// on exactly these fields ending up in the pdt-model-v1 meta).
struct ModelInfo {
  std::uint64_t train_seed = 1;
  int quest_function = 2;
  bool paper_bins = true;  ///< fig6 preprocessing; false = raw continuous
};

/// Held-out seeds live a fixed offset from the training seed, so the
/// eval sample is independent of training but fully determined by it.
inline constexpr std::uint64_t kEvalSeedOffset = 9000;

/// Held-out sample size for a training size: n/5 clamped to [1000, 20000]
/// (big enough for a stable accuracy, cheap enough for every run).
inline std::int64_t eval_rows_for(std::size_t train_n) {
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(train_n) / 5,
                                  1000, 20000);
}

/// The held-out dataset a ModelInfo describes (same generator pipeline
/// as training, eval seed).
inline data::Dataset model_eval_dataset(const ModelInfo& info,
                                        std::int64_t rows) {
  data::Dataset ds = data::quest_generate(
      static_cast<std::size_t>(rows),
      {.function = info.quest_function,
       .seed = info.train_seed + kEvalSeedOffset});
  if (info.paper_bins) {
    return data::discretize_uniform(ds, data::quest_paper_bins());
  }
  return ds;
}

/// Append a {"type":"model",...} section (content digest + tree shape +
/// held-out accuracy) and dump the full pdt-model-v1 artifact to
/// <harness>.<tag>.model.json (atomic). The digest covers only the
/// canonical tree bytes, never P or audit data, so serial and all three
/// formulations at any P must produce byte-identical digests — the CI
/// model-identity gate compares these files by hash.
inline void emit_model(BenchReport& rep, const char* tag,
                       const char* formulation, int procs,
                       const dtree::Tree& tree, std::size_t train_rows,
                       const ModelInfo& info,
                       const obs::SplitAudit* audit = nullptr) {
  obs::JsonWriter* w = rep.writer();
  if (w == nullptr) return;

  dtree::ModelMeta meta;
  meta.harness = rep.harness();
  meta.tag = tag;
  meta.formulation = formulation;
  meta.procs = procs;
  meta.quest_function = info.quest_function;
  meta.train_seed = info.train_seed;
  meta.train_rows = static_cast<std::int64_t>(train_rows);
  meta.paper_bins = info.paper_bins;
  meta.eval_seed = info.train_seed + kEvalSeedOffset;
  meta.eval_rows = eval_rows_for(train_rows);

  const data::Dataset eval_ds = model_eval_dataset(info, meta.eval_rows);
  const dtree::Evaluation ev = dtree::evaluate(tree, eval_ds);
  const std::string digest = dtree::model_digest(tree);

  w->begin_object();
  w->kv("type", "model");
  w->kv("tag", tag);
  w->kv("formulation", formulation);
  w->kv("procs", procs);
  w->kv("digest", digest);
  w->kv("nodes", static_cast<std::int64_t>(dtree::canonical_order(tree).size()));
  w->kv("leaves", static_cast<std::int64_t>(tree.num_leaves()));
  w->kv("depth", static_cast<std::int64_t>(tree.depth()));
  w->kv("eval_seed", meta.eval_seed);
  w->kv("eval_rows", meta.eval_rows);
  w->kv("accuracy", ev.accuracy());
  w->end_object();

  obs::AtomicFile model_file(json_path(
      std::string(rep.harness()) + "." + tag + ".model.json"));
  if (model_file.ok()) {
    model_file.stream() << dtree::model_json(
        tree, meta,
        audit != nullptr
            ? std::span<const dtree::SplitAuditEntry>(audit->entries())
            : std::span<const dtree::SplitAuditEntry>(),
        ev.accuracy());
    if (model_file.commit()) {
      std::printf("[json] wrote %s (inspect with pdt-tree)\n",
                  model_file.path().c_str());
    }
  }
}

/// Append a {"type":"speedup_series",...} section.
inline void emit_speedup_series(BenchReport& rep, const char* workload,
                                const char* formulation,
                                const std::vector<core::SpeedupPoint>& series) {
  obs::JsonWriter* w = rep.writer();
  if (w == nullptr) return;
  w->begin_object();
  w->kv("type", "speedup_series");
  w->kv("workload", workload);
  w->kv("formulation", formulation);
  w->key("points").begin_array();
  for (const core::SpeedupPoint& pt : series) {
    w->begin_object();
    w->kv("procs", pt.procs);
    w->kv("time_us", pt.time_us);
    w->kv("speedup", pt.speedup);
    w->kv("efficiency", pt.efficiency);
    w->kv("records_moved", pt.result.records_moved);
    w->kv("histogram_words", pt.result.histogram_words);
    w->end_object();
  }
  w->end_array();
  w->end_object();
}

/// Largest per-rank peak across a run's byte accounts.
inline std::int64_t max_rank_peak(const std::vector<mpsim::MemStats>& mem) {
  std::int64_t peak = 0;
  for (const mpsim::MemStats& m : mem) peak = std::max(peak, m.peak_total);
  return peak;
}

/// Append a {"type":"mem_scaling",...} section: one pdt-mem-v1 report per
/// processor count, taken from the byte accounts that ride along in each
/// SpeedupPoint's ParResult. This is the raw material for pdt-report's
/// memory-scalability verdict (per-rank peak vs P at fixed N).
inline void emit_mem_scaling(BenchReport& rep, const char* workload,
                             const char* formulation,
                             const std::vector<core::SpeedupPoint>& series) {
  obs::JsonWriter* w = rep.writer();
  if (w == nullptr) return;
  w->begin_object();
  w->kv("type", "mem_scaling");
  w->kv("workload", workload);
  w->kv("formulation", formulation);
  w->key("points").begin_array();
  for (const core::SpeedupPoint& pt : series) {
    w->begin_object();
    w->kv("procs", pt.procs);
    w->key("mem");
    obs::write_mem(*w, pt.result.mem, &pt.result.mem_predicted);
    w->end_object();
  }
  w->end_array();
  w->end_object();
}

/// Append a standalone {"type":"mem_run",...} section for a single build.
inline void emit_mem_run(BenchReport& rep, const char* tag, int procs,
                         const std::vector<mpsim::MemStats>& mem,
                         const mpsim::MemPredicted* predicted) {
  obs::JsonWriter* w = rep.writer();
  if (w == nullptr) return;
  w->begin_object();
  w->kv("type", "mem_run");
  w->kv("tag", tag);
  w->kv("procs", procs);
  w->key("mem");
  obs::write_mem(*w, mem, predicted);
  w->end_object();
}

/// Run one build with full observability attached and append an
/// {"type":"instrumented_run",...} section containing the pdt-metrics-v1
/// report (per-phase x per-level breakdown, load-imbalance factors,
/// registry metrics), the pdt-comm-v1 report (collective
/// measured-vs-predicted costs, traffic matrix, critical path), and the
/// pdt-mem-v1 report (per-rank byte accounts with the ledger's
/// phase x level attribution). Also dumps a Perfetto trace of the run to
/// <harness>.<tag>.trace.json and the complete execution log to
/// <harness>.<tag>.events.json (pdt-events-v1, the input of pdt-replay)
/// unless JSON output is disabled. `iso_c` is embedded in the event
/// log's meta so offline isoefficiency charts can draw the analytic
/// curve (pass core::isoefficiency_constant; 0 = not applicable).
///
/// Unless PDT_HOST=0, a HostProfiler rides the run and the section gains
/// a "host" member (pdt-host-v1: the wall-nanosecond account paired
/// cell-for-cell with the virtual breakdown), the events log gains a
/// "host" overlay, and <harness>.<tag>.host.json carries the standalone
/// report. All side files go through AtomicFile (temp + rename), so a
/// killed harness never leaves a torn artifact for the CI gates.
inline core::ParResult run_instrumented(BenchReport& rep, const char* tag,
                                        core::Formulation f,
                                        const data::Dataset& ds,
                                        core::ParOptions opt,
                                        double iso_c = 0.0,
                                        const ModelInfo* model = nullptr) {
  obs::Observability o(obs::ProfilerConfig{.timeline = true});
  o.enable_event_log();
  if (host_enabled()) {
    o.enable_host_profiler(
        obs::HostProfilerConfig{.counters = host_counters_requested()});
  }
  if (model != nullptr) o.enable_split_audit();
  opt.obs = &o;
  opt.trace = true;  // collective events feed the trace's flow arrows
  const core::ParResult res = core::build(f, ds, opt);

  obs::JsonWriter* w = rep.writer();
  if (w != nullptr) {
    w->begin_object();
    w->kv("type", "instrumented_run");
    w->kv("tag", tag);
    w->kv("formulation", core::to_string(f));
    w->kv("procs", opt.num_procs);
    w->kv("n", static_cast<std::int64_t>(ds.num_rows()));
    w->kv("max_clock_us", res.parallel_time);
    w->key("metrics");
    obs::write_metrics(*w, o);
    w->key("comm");
    obs::write_comm(*w, o.comm_ledger(), &o.critical_path(), &o.profiler());
    w->key("mem");
    obs::write_mem(*w, res.mem, &res.mem_predicted, &o.mem_ledger(),
                   &o.profiler());
    if (o.host_profiler() != nullptr) {
      w->key("host");
      obs::write_host(*w, *o.host_profiler());
    }
    w->end_object();

    obs::AtomicFile trace_file(json_path(
        std::string(rep.harness()) + "." + tag + ".trace.json"));
    if (trace_file.ok()) {
      obs::write_perfetto_trace(trace_file.stream(), o.profiler(), res.trace);
      if (trace_file.commit()) {
        std::printf("[json] wrote %s (load at https://ui.perfetto.dev)\n",
                    trace_file.path().c_str());
      }
    }

    if (o.event_log() != nullptr) {
      obs::AtomicFile events_file(json_path(
          std::string(rep.harness()) + "." + tag + ".events.json"));
      if (events_file.ok()) {
        obs::EventLogMeta meta;
        meta.formulation = core::to_string(f);
        meta.workload = tag;
        meta.n = static_cast<std::int64_t>(ds.num_rows());
        meta.procs = opt.num_procs;
        meta.iso_c = iso_c;
        meta.fingerprint = &fingerprint();
        obs::write_events_report(events_file.stream(), *o.event_log(), meta,
                                 o.host_profiler());
        if (events_file.commit()) {
          std::printf("[json] wrote %s (replay with pdt-replay)\n",
                      events_file.path().c_str());
        }
      }
    }

    if (o.host_profiler() != nullptr) {
      obs::AtomicFile host_file(json_path(
          std::string(rep.harness()) + "." + tag + ".host.json"));
      if (host_file.ok()) {
        obs::write_host_report(host_file.stream(), *o.host_profiler());
        if (host_file.commit()) {
          std::printf("[json] wrote %s (host wall-clock account)\n",
                      host_file.path().c_str());
        }
      }
    }

    if (model != nullptr) {
      emit_model(rep, tag, core::to_string(f), opt.num_procs, res.tree,
                 ds.num_rows(), *model, o.split_audit());
    }
  }
  return res;
}

}  // namespace pdt::bench
