// Paper-scale host benchmark: the measuring program.
//
// One process, one thread, one closed loop: each build starts when the
// previous one returns. The program generates every input from --seed
// (Quest function 2, the paper's 800k rows by default), runs its
// workload's build list again and again until --seconds have passed, and
// checks every model digest against the workload's P=1 build. Each layer
// is timed from outside, around calls into its public functions; nothing
// inside the library is instrumented for the benchmark.
//
//   pdt_perfbench --workload binned-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics;
// --trace 1 alternates plain and traced iterations, reports the per-layer
// metrics (medians of the traced iterations) plus the tracing overhead,
// and writes the traced iterations' spans to --spans-out.
//
// Options used by the self-test: --rows N shrinks the datasets, and
// --inject-digest-mismatch corrupts one digest in the first iteration.
// A build without optimisation refuses to run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/histogram.hpp"
#include "dtree/metrics.hpp"
#include "dtree/prune.hpp"
#include "dtree/serialize.hpp"
#include "dtree/slots.hpp"
#include "dtree/split.hpp"
#include "mpsim/group.hpp"
#include "mpsim/machine.hpp"
#include "obs/atomic_file.hpp"
#include "obs/export.hpp"
#include "obs/fingerprint.hpp"
#include "obs/observability.hpp"

#ifndef PDT_BENCH_BUILD_TYPE
#define PDT_BENCH_BUILD_TYPE ""
#endif

namespace {

using namespace pdt;
using Clock = std::chrono::steady_clock;

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  int iteration = 0;  ///< spans of one iteration share this id
  int parent = -1;    ///< index of the enclosing span, -1 at top level
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span log. Disabled by default, so the plain iterations pay
/// one branch per layer call; written out once, at the end of the run.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void begin_iteration(int iteration, bool on) {
    iteration_ = iteration;
    on_ = on;
  }

  int open(std::string name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), iteration_,
                      stack_.empty() ? -1 : stack_.back(),
                      seconds_since(origin_), 0.0});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  bool on_ = false;
  int iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Runs `fn` inside a span named `name` and returns its wall seconds.
template <typename Fn>
double timed(Tracer& tracer, std::string name, Fn&& fn) {
  struct Guard {
    Tracer& t;
    int id;
    ~Guard() { t.close(id); }
  } guard{tracer, tracer.open(std::move(name))};
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ------------------------------------------------------------ workloads

enum class Form { Serial, Sync, Partitioned, Hybrid };

const char* form_name(Form f) {
  switch (f) {
    case Form::Serial: return "serial";
    case Form::Sync: return "sync";
    case Form::Partitioned: return "partitioned";
    case Form::Hybrid: return "hybrid";
  }
  return "?";
}

struct BuildSpec {
  Form form;
  int procs;
  bool instrumented = false;  ///< built under the full obs sink

  [[nodiscard]] std::string name() const {
    return std::string(form_name(form)) + ".P" + std::to_string(procs);
  }
};

struct Workload {
  std::string name;
  bool binned = true;       ///< fig6 uniform paper bins; else raw continuous
  core::ParOptions base;
  std::vector<BuildSpec> builds;  ///< builds[0] is the P=1 reference
  std::size_t headline = 0;       ///< index into builds
  int reduce_procs = 1;           ///< P of the all-reduce probe
};

/// The fig8 grow options: SPEC-style k-means at every node.
core::ParOptions fig8_options() {
  core::ParOptions opt;
  opt.grow.cont_split = dtree::ContSplit::KMeans;
  opt.grow.cont_bins = 32;
  opt.grow.per_node_bins = 8;
  opt.grow.min_records = 8;
  return opt;
}

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "binned-sweep") {
    w.builds.push_back({Form::Serial, 1});
    for (const Form f : {Form::Sync, Form::Partitioned, Form::Hybrid}) {
      for (const int p : {4, 8, 16}) w.builds.push_back({f, p});
    }
    w.headline = w.builds.size() - 1;  // hybrid P16
    w.reduce_procs = 16;
  } else if (name == "continuous-kmeans") {
    w.binned = false;
    w.base = fig8_options();
    w.builds = {{Form::Serial, 1}, {Form::Hybrid, 16}, {Form::Hybrid, 128}};
    w.headline = 1;
    w.reduce_procs = 128;
  } else if (name == "instrumented") {
    w.builds = {{Form::Serial, 1},
                {Form::Hybrid, 8, true},
                {Form::Sync, 64, true}};
    w.headline = 1;
    w.reduce_procs = 64;
  } else {
    return std::nullopt;
  }
  return w;
}

// --------------------------------------------------------------- metrics

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},        {"train_s", "s"},
      {"model_s", "s"},        {"total_s", "s"},
      {"peak_rss_mib", "MiB"}, {"virtual_s", "s"},
  };
  return defs;
}

/// Every build any workload runs, for the core.build_s.* names.
const std::vector<std::string>& all_build_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const char* name :
         {"binned-sweep", "continuous-kmeans", "instrumented"}) {
      const std::optional<Workload> w = make_workload(name);
      for (const BuildSpec& b : w->builds) {
        if (std::find(out.begin(), out.end(), b.name()) == out.end()) {
          out.push_back(b.name());
        }
      }
    }
    return out;
  }();
  return names;
}

/// Per-layer metrics. A workload that does not exercise a layer reports
/// it as 0 (for example obs.* outside `instrumented`).
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"data.generate_s", "s"},
        {"data.discretize_s", "s"},
        {"dtree.accumulate_ns_per_update", "ns"},
        {"dtree.choose_split_us", "us"},
        {"dtree.prune_s", "s"},
        {"dtree.digest_s", "s"},
        {"dtree.model_json_s", "s"},
        {"dtree.evaluate_rows_per_s", "rows/s"},
        {"dtree.nodes", "count"},
        {"dtree.depth", "count"},
    };
    for (const std::string& b : all_build_names()) {
      d.push_back({"core.build_s." + b, "s"});
    }
    for (const char* n : {"core.levels", "core.records_moved",
                          "core.histogram_words", "core.partition_splits",
                          "mpsim.messages", "mpsim.words_sent"}) {
      d.push_back({n, "count"});
    }
    for (const char* n : {"mpsim.comm_virtual_s", "mpsim.idle_virtual_s"}) {
      d.push_back({n, "s"});
    }
    d.push_back({"mpsim.all_reduce_us", "us"});
    for (const char* n : {"core.histogram_s", "core.split_eval_s",
                          "core.record_shuffle_s", "core.load_balance_s",
                          "mpsim.all_reduce_s"}) {
      d.push_back({n, "s"});
    }
    for (const char* b : {"hybrid.P8", "sync.P64"}) {
      d.push_back({std::string("obs.overhead_ratio.") + b, "ratio"});
      d.push_back({std::string("obs.base_s.") + b, "s"});
    }
    d.push_back({"obs.events", "count"});
    d.push_back({"obs.export_s", "s"});
    d.push_back({"obs.artifact_bytes", "bytes"});
    d.push_back({"bench.trace_overhead", "s"});
    return d;
  }();
  return defs;
}

/// One iteration's value of each metric it measured; a run reports the
/// median over its iterations.
using Samples = std::map<std::string, double>;

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t rows = 800000;
  std::string scratch = ".bench_build/scratch";
  std::string spans_out;
  bool inject_mismatch = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: pdt_perfbench --workload "
               "binned-sweep|continuous-kmeans|instrumented --seed N "
               "--seconds S --trace 0|1 [--rows N] [--scratch DIR] "
               "[--spans-out FILE] [--inject-digest-mismatch]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = next();
      else if (k == "--seed") a.seed = std::stoull(next());
      else if (k == "--seconds") a.seconds = std::stod(next());
      else if (k == "--trace") a.trace = next() != "0";
      else if (k == "--rows") a.rows = std::stoull(next());
      else if (k == "--scratch") a.scratch = next();
      else if (k == "--spans-out") a.spans_out = next();
      else if (k == "--inject-digest-mismatch") a.inject_mismatch = true;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.rows < 1000) usage("--rows must be at least 1000");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------- inputs

struct Inputs {
  data::Dataset train;
  data::Dataset eval;  ///< held-out sample, same pipeline, seed + 9000
};

/// Generator seed of the training population: the figure harnesses'
/// default. The tree grown from a Quest draw changes size by up to half
/// from one generator seed to the next, so the workload seed permutes a
/// fixed population instead of drawing a new one.
constexpr std::uint64_t kPopulationSeed = 1;

/// Held-out rows for a training size: n/5 clamped to [1000, 20000].
std::size_t eval_rows_for(std::size_t n) {
  return std::clamp<std::size_t>(n / 5, 1000, 20000);
}

/// `ds` with its rows in a seeded Fisher-Yates order. Row order changes
/// which records each simulated processor holds, never the tree.
data::Dataset permuted(const data::Dataset& ds, std::uint64_t seed) {
  std::vector<std::size_t> order(ds.num_rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  data::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  data::Dataset out(ds.schema(), ds.num_rows());
  for (const std::size_t src : order) {
    const std::size_t row = out.add_row(ds.label(src));
    for (int a = 0; a < ds.num_attributes(); ++a) {
      if (ds.schema().attr(a).is_categorical()) {
        out.set_cat(a, row, ds.cat(a, src));
      } else {
        out.set_cont(a, row, ds.cont(a, src));
      }
    }
  }
  return out;
}

/// Generate (and, for binned workloads, discretize) the inputs, timing
/// the two layers separately. The training rows are still in generator
/// order; main() permutes them once, outside every timing.
Inputs make_inputs(const Workload& w, const Args& a, Tracer& tr,
                   double* generate_s, double* discretize_s) {
  Inputs in;
  *generate_s = timed(tr, "data.quest_generate", [&] {
    in.train = data::quest_generate(
        a.rows, {.function = 2, .seed = kPopulationSeed});
    in.eval = data::quest_generate(eval_rows_for(a.rows),
                                   {.function = 2, .seed = a.seed + 9000});
  });
  *discretize_s = 0.0;
  if (w.binned) {
    *discretize_s = timed(tr, "data.discretize_uniform", [&] {
      in.train = data::discretize_uniform(in.train, data::quest_paper_bins());
      in.eval = data::discretize_uniform(in.eval, data::quest_paper_bins());
    });
  }
  return in;
}

// ------------------------------------------------------------- iteration

struct Check {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

class Bench {
 public:
  Bench(const Workload& w, const Args& a, const Inputs& in, Tracer& tr)
      : w_(w), a_(a), in_(in), tr_(tr) {}

  /// One whole workload iteration: the build list, the model pipeline on
  /// the headline tree, and the layer probes. Returns its samples.
  Samples run(int iteration, bool traced, Check& check) {
    tr_.begin_iteration(iteration, traced);
    Samples s;
    const int root = tr_.open("iteration");
    const Clock::time_point t0 = Clock::now();

    double train_s = 0.0;
    double virtual_us = 0.0;
    mpsim::RankStats totals;
    std::string ref_digest;
    std::optional<core::ParResult> ref;
    std::optional<core::ParResult> headline;
    for (std::size_t i = 0; i < w_.builds.size(); ++i) {
      const BuildSpec& b = w_.builds[i];
      ++check.attempted;
      try {
        const double base_s = b.instrumented ? plain_build_s(b) : 0.0;
        double build_s = 0.0;
        const bool profile = traced && i == w_.headline;
        core::ParResult res = build(b, s, profile, &build_s);
        train_s += build_s;
        virtual_us += res.parallel_time;
        totals += res.totals;
        s["core.levels"] += res.levels;
        s["core.records_moved"] += static_cast<double>(res.records_moved);
        s["core.histogram_words"] += res.histogram_words;
        s["core.partition_splits"] += res.partition_splits;
        s["core.build_s." + b.name()] = build_s;
        if (b.instrumented) {
          s["obs.base_s." + b.name()] = base_s;
          s["obs.overhead_ratio." + b.name()] = build_s / base_s;
        }

        std::string digest;
        timed(tr_, "dtree.model_digest",
              [&] { digest = dtree::model_digest(res.tree); });
        if (i == 0) {
          ref_digest = digest;
        } else if (a_.inject_mismatch && iteration == 0 && i == 1) {
          digest[0] = digest[0] == '0' ? '1' : '0';
        }
        if (ref_digest.empty() || digest != ref_digest) {
          check.fail(w_.name + " " + b.name() + ": digest " + digest +
                     " differs from the P=1 digest " + ref_digest);
        }
        if (i == 0) ref = std::move(res);
        else if (i == w_.headline) headline = std::move(res);
      } catch (const std::exception& e) {
        check.fail(w_.name + " " + b.name() + ": " + e.what());
      }
    }
    s["train_s"] = train_s;
    s["virtual_s"] = virtual_us * 1e-6;
    s["mpsim.messages"] = static_cast<double>(totals.messages_sent);
    s["mpsim.words_sent"] = static_cast<double>(totals.words_sent);
    s["mpsim.comm_virtual_s"] = totals.comm_time * 1e-6;
    s["mpsim.idle_virtual_s"] = totals.idle_time * 1e-6;

    ++check.attempted;
    try {
      if (!ref.has_value() || !headline.has_value()) {
        throw std::runtime_error("no headline or P=1 tree to ship");
      }
      model(*headline, *ref, s);
    } catch (const std::exception& e) {
      check.fail(w_.name + " model: " + e.what());
    }

    ++check.attempted;
    try {
      probes(s);
    } catch (const std::exception& e) {
      check.fail(w_.name + " layer probes: " + e.what());
    }

    s["total_s"] = seconds_since(t0);
    tr_.close(root);
    return s;
  }

 private:
  core::ParOptions options(const BuildSpec& b) const {
    core::ParOptions opt = w_.base;
    opt.num_procs = b.procs;
    return opt;
  }

  static core::ParResult dispatch(const BuildSpec& b, const data::Dataset& ds,
                                  const core::ParOptions& opt) {
    switch (b.form) {
      case Form::Serial: return core::build_serial(ds, opt);
      case Form::Sync: return core::build(core::Formulation::Sync, ds, opt);
      case Form::Partitioned:
        return core::build(core::Formulation::Partitioned, ds, opt);
      case Form::Hybrid: return core::build(core::Formulation::Hybrid, ds, opt);
    }
    throw std::logic_error("unknown formulation");
  }

  /// The same configuration with opt.obs = nullptr: the overhead base.
  double plain_build_s(const BuildSpec& b) {
    core::ParResult res;
    return timed(tr_, "core.build " + b.name() + " plain",
                 [&] { res = dispatch(b, in_.train, options(b)); });
  }

  /// One build of the list. Instrumented builds carry the full obs sink
  /// (event log, host profiler, split audit) and export every artifact;
  /// a profiled build carries only the host profiler, for the phase split.
  core::ParResult build(const BuildSpec& b, Samples& s, bool profile,
                        double* build_s) {
    core::ParOptions opt = options(b);
    std::optional<obs::Observability> o;
    if (b.instrumented) {
      o.emplace(obs::ProfilerConfig{.timeline = true});
      o->enable_event_log();
      o->enable_host_profiler();
      o->enable_split_audit();
      opt.trace = true;
    } else if (profile) {
      o.emplace();
      o->enable_host_profiler();
    }
    if (o.has_value()) opt.obs = &*o;

    core::ParResult res;
    *build_s = timed(tr_, "core.build " + b.name(),
                     [&] { res = dispatch(b, in_.train, opt); });
    if (profile) host_phases(*o, s);
    if (b.instrumented) {
      s["obs.events"] += static_cast<double>(o->event_log()->events().size());
      export_artifacts(b, *o, res, s);
    }
    // The split audit dies with `o`; the returned tree must not call it.
    res.tree.set_split_observer(nullptr);
    return res;
  }

  /// The HostProfiler's per-phase host split of a profiled build. Interval
  /// pairing puts the host time before each charge on that charge's
  /// phase, so partitioning lands in split-eval.
  static void host_phases(const obs::Observability& o, Samples& s) {
    const obs::HostProfiler* h = o.host_profiler();
    const std::vector<std::string>& names = o.profiler().phase_names();
    const std::pair<const char*, const char*> map[] = {
        {"histogram", "core.histogram_s"},
        {"split-eval", "core.split_eval_s"},
        {"record-shuffle", "core.record_shuffle_s"},
        {"load-balance", "core.load_balance_s"},
        {"all-reduce", "mpsim.all_reduce_s"},
    };
    for (const auto& [phase, metric] : map) {
      double ns = 0.0;
      for (std::size_t p = 0; p < names.size(); ++p) {
        if (names[p] != phase) continue;
        ns = static_cast<double>(
            h->phase_totals(static_cast<obs::PhaseId>(p), obs::kNoLevel, true)
                .total_ns());
      }
      s[metric] = ns * 1e-9;
    }
  }

  /// Write every artifact the instrumented harness runs write, into the
  /// scratch directory, then remove them again.
  void export_artifacts(const BuildSpec& b, obs::Observability& o,
                        const core::ParResult& res, Samples& s) {
    namespace fs = std::filesystem;
    fs::create_directories(a_.scratch);
    const std::string stem = a_.scratch + "/" + w_.name + "." + b.name();
    std::vector<std::string> written;
    auto write = [&](const std::string& suffix, const char* what,
                     const std::function<void(std::ostream&)>& body) {
      timed(tr_, what, [&] {
        obs::AtomicFile f(stem + suffix);
        if (!f.ok()) throw std::runtime_error("cannot write " + f.path());
        body(f.stream());
        if (!f.commit()) throw std::runtime_error("cannot commit " + f.path());
      });
      written.push_back(stem + suffix);
    };

    const double export_s = timed(tr_, "obs.export", [&] {
      write(".report.json", "obs.write_metrics+comm+mem+host",
            [&](std::ostream& os) {
              obs::JsonWriter jw(os);
              jw.begin_object();
              jw.key("metrics");
              obs::write_metrics(jw, o);
              jw.key("comm");
              obs::write_comm(jw, o.comm_ledger(), &o.critical_path(),
                              &o.profiler());
              jw.key("mem");
              obs::write_mem(jw, res.mem, &res.mem_predicted, &o.mem_ledger(),
                             &o.profiler());
              jw.key("host");
              obs::write_host(jw, *o.host_profiler());
              jw.end_object();
            });
      write(".trace.json", "obs.write_perfetto_trace", [&](std::ostream& os) {
        obs::write_perfetto_trace(os, o.profiler(), res.trace);
      });
      write(".events.json", "obs.write_events_report", [&](std::ostream& os) {
        obs::EventLogMeta meta;
        meta.formulation = form_name(b.form);
        meta.workload = w_.name;
        meta.n = static_cast<std::int64_t>(in_.train.num_rows());
        meta.procs = b.procs;
        obs::write_events_report(os, *o.event_log(), meta, o.host_profiler());
      });
      write(".host.json", "obs.write_host_report", [&](std::ostream& os) {
        obs::write_host_report(os, *o.host_profiler());
      });
      write(".threads.json", "obs.write_threads_report",
            [&](std::ostream& os) { obs::write_threads_report(os, o); });
      write(".model.json", "dtree.model_json", [&](std::ostream& os) {
        os << dtree::model_json(res.tree, meta(b),
                                o.split_audit()->entries());
      });
    });

    double bytes = 0.0;
    for (const std::string& f : written) {
      bytes += static_cast<double>(fs::file_size(f));
      fs::remove(f);
    }
    s["obs.export_s"] += export_s;
    s["obs.artifact_bytes"] += bytes;
  }

  dtree::ModelMeta meta(const BuildSpec& b) const {
    dtree::ModelMeta m;
    m.harness = "perfbench";
    m.tag = w_.name;
    m.formulation = form_name(b.form);
    m.procs = b.procs;
    m.train_seed = a_.seed;
    m.train_rows = static_cast<std::int64_t>(in_.train.num_rows());
    m.paper_bins = w_.binned;
    m.eval_seed = a_.seed + 9000;
    m.eval_rows = static_cast<std::int64_t>(in_.eval.num_rows());
    return m;
  }

  /// Turn the headline tree into a shipped model (model_s), after checking
  /// its held-out accuracy against the P=1 tree's.
  void model(const core::ParResult& head, const core::ParResult& ref,
             Samples& s) {
    const dtree::Evaluation head_ev = dtree::evaluate(head.tree, in_.eval);
    const dtree::Evaluation ref_ev = dtree::evaluate(ref.tree, in_.eval);
    if (head_ev.correct != ref_ev.correct) {
      throw std::runtime_error("held-out accuracy " +
                               num(head_ev.accuracy()) + " differs from P=1 " +
                               num(ref_ev.accuracy()));
    }
    s["dtree.nodes"] = head.tree.num_nodes();
    s["dtree.depth"] = head.tree.depth();

    // The pipeline is short, so it runs three times and each timing
    // reports its median.
    const BuildSpec& b = w_.builds[w_.headline];
    std::vector<double> model_s, prune_s, digest_s, json_s, eval_s;
    for (int rep = 0; rep < 3; ++rep) {
      model_s.push_back(timed(tr_, "model", [&] {
        dtree::Tree tree = head.tree;
        prune_s.push_back(
            timed(tr_, "dtree.prune", [&] { dtree::prune(tree); }));
        std::string digest;
        digest_s.push_back(timed(tr_, "dtree.model_digest",
                                 [&] { digest = dtree::model_digest(tree); }));
        dtree::Evaluation ev;
        eval_s.push_back(timed(tr_, "dtree.evaluate",
                               [&] { ev = dtree::evaluate(tree, in_.eval); }));
        std::string doc;
        json_s.push_back(timed(tr_, "dtree.model_json", [&] {
          doc = dtree::model_json(tree, meta(b), {}, ev.accuracy());
        }));
        if (doc.find(digest) == std::string::npos) {
          throw std::runtime_error("model document lacks its digest");
        }
      }));
    }
    s["model_s"] = median(model_s);
    s["dtree.prune_s"] = median(prune_s);
    s["dtree.digest_s"] = median(digest_s);
    s["dtree.model_json_s"] = median(json_s);
    s["dtree.evaluate_rows_per_s"] =
        static_cast<double>(in_.eval.num_rows()) / median(eval_s);
  }

  /// Single-layer probes on the workload's own dataset and grow options:
  /// the root histogram, the root split decision, one buffer flush.
  void probes(Samples& s) {
    const dtree::GrowOptions& grow = w_.base.grow;
    const data::Dataset& ds = in_.train;
    const dtree::AttrLayout layout(ds.schema(), grow.cont_bins);
    const dtree::SlotMapper mapper(ds, grow.cont_bins);
    std::vector<data::RowId> rows(ds.num_rows());
    std::iota(rows.begin(), rows.end(), data::RowId{0});
    std::vector<std::int64_t> hist(static_cast<std::size_t>(layout.total()));

    std::vector<double> acc;
    for (int rep = 0; rep < 3; ++rep) {
      std::fill(hist.begin(), hist.end(), 0);
      acc.push_back(timed(tr_, "dtree.accumulate",
                          [&] { dtree::accumulate(hist, layout, mapper, rows); }));
    }
    const double updates = static_cast<double>(ds.num_rows()) *
                           static_cast<double>(ds.num_attributes());
    s["dtree.accumulate_ns_per_update"] = median(acc) * 1e9 / updates;

    constexpr int kSplitCalls = 20;
    std::vector<double> split;
    for (int rep = 0; rep < 5; ++rep) {
      split.push_back(timed(tr_, "dtree.choose_split x20", [&] {
        for (int k = 0; k < kSplitCalls; ++k) {
          const dtree::SplitDecision d =
              dtree::choose_split(hist, layout, ds.schema(), mapper, grow);
          if (d.test.is_leaf()) throw std::runtime_error("root is a leaf");
        }
      }) / kSplitCalls);
    }
    s["dtree.choose_split_us"] = median(split) * 1e6;

    // One histogram-buffer flush at the workload's largest P.
    mpsim::Machine machine(w_.reduce_procs, w_.base.cost);
    const mpsim::Group group = mpsim::Group::whole(machine);
    const std::size_t len = static_cast<std::size_t>(w_.base.comm_buffer_nodes) *
                            static_cast<std::size_t>(layout.total());
    std::vector<std::vector<std::int64_t>> bufs(
        static_cast<std::size_t>(w_.reduce_procs),
        std::vector<std::int64_t>(len));
    std::vector<std::int64_t*> ptrs;
    for (auto& buf : bufs) ptrs.push_back(buf.data());
    std::vector<double> reduce;
    for (int rep = 0; rep < 5; ++rep) {
      for (auto& buf : bufs) std::fill(buf.begin(), buf.end(), 1);
      reduce.push_back(timed(tr_, "mpsim.all_reduce_sum",
                             [&] { group.all_reduce_sum(ptrs, len); }));
    }
    s["mpsim.all_reduce_us"] = median(reduce) * 1e6;
  }

  const Workload& w_;
  const Args& a_;
  const Inputs& in_;
  Tracer& tr_;
};

// ---------------------------------------------------------------- output

double peak_rss_mib() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string env_stamp() {
  const obs::EnvFingerprint fp = obs::EnvFingerprint::collect();
  std::ostringstream os;
  os << "{\"git_sha\":\"" << json_escape(fp.git_sha) << "\",\"git_dirty\":"
     << (fp.git_dirty ? "true" : "false") << ",\"compiler\":\""
     << json_escape(fp.compiler) << "\",\"flags\":\"" << json_escape(fp.flags)
     << "\",\"cpu\":\"" << json_escape(fp.cpu) << "\",\"cores\":" << fp.cores
     << ",\"build_type\":\"" << json_escape(PDT_BENCH_BUILD_TYPE)
     << "\",\"optimized\":" << (kOptimized ? "true" : "false") << "}";
  return os.str();
}

void write_spans(const std::string& path, const Tracer& tr,
                 const std::string& env) {
  if (path.empty()) return;
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os(path);
  os << "{\"schema\":\"perfbench-spans-v1\",\"env\":" << env
     << ",\"spans\":[";
  const std::vector<Span>& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    os << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
       << json_escape(sp.name) << "\",\"iteration\":" << sp.iteration
       << ",\"parent\":" << sp.parent << ",\"start_s\":" << num(sp.start_s)
       << ",\"end_s\":" << num(sp.end_s) << "}";
  }
  os << "\n]}\n";
  if (!os) std::fprintf(stderr, "warning: could not write spans to %s\n",
                        path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::optional<Workload> wl = make_workload(args.workload);
  if (!wl.has_value()) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wl;

  const std::string env = env_stamp();
  std::printf("env %s\n", env.c_str());
  if (!kOptimized) {
    std::fprintf(stderr,
                 "error: this benchmark was compiled without optimisation "
                 "(build type \"%s\"); its timings would be meaningless. "
                 "Configure with -DCMAKE_BUILD_TYPE=Release.\n",
                 PDT_BENCH_BUILD_TYPE);
    return 3;
  }

  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);
  Check check;

  // Set-up at least five times and for at least a second (a raw
  // continuous set-up takes ~65 ms); the last inputs are kept. Each round
  // drops the previous inputs first, so peak memory holds one set.
  // Discretizing is per row, so permuting after it gives the same rows as
  // before it.
  std::vector<double> setup, generate, discretize;
  Inputs inputs;
  tracer.begin_iteration(-1, args.trace);
  const Clock::time_point setup_start = Clock::now();
  for (int k = 0; k < 50 && (k < 5 || seconds_since(setup_start) < 1.0);
       ++k) {
    inputs = Inputs{};
    double gen = 0.0, disc = 0.0;
    timed(tracer, "setup",
          [&] { inputs = make_inputs(w, args, tracer, &gen, &disc); });
    setup.push_back(gen + disc);
    generate.push_back(gen);
    discretize.push_back(disc);
  }
  timed(tracer, "bench.permute_rows",
        [&] { inputs.train = permuted(inputs.train, args.seed); });

  Bench bench(w, args, inputs, tracer);
  std::vector<Samples> plain_iters, traced_iters;
  const Clock::time_point loop_start = Clock::now();
  for (int it = 0;; ++it) {
    const bool traced = args.trace && it % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    Samples s = bench.run(it, traced, check);
    std::printf("iteration %d%s: total_s %.4f train_s %.4f model_s %.4f\n", it,
                traced ? " (traced)" : "", s["total_s"], s["train_s"],
                s["model_s"]);
    (traced ? traced_iters : plain_iters).push_back(std::move(s));
    const double elapsed = seconds_since(loop_start);
    const double last = seconds_since(t0);
    const bool enough = !args.trace || !traced_iters.empty();
    // Stop once the time is up, or before an iteration that would run
    // past the process's time limit.
    if (enough && (elapsed >= args.seconds || elapsed + last > 150.0)) break;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.scratch, ec);

  auto med = [](const std::vector<Samples>& iters, const std::string& key) {
    std::vector<double> v;
    for (const Samples& s : iters) {
      const auto found = s.find(key);
      if (found != s.end()) v.push_back(found->second);
    }
    return median(v);
  };

  std::map<std::string, double> values;
  const std::vector<Samples>& main_iters = args.trace ? traced_iters : plain_iters;
  const std::vector<MetricDef>& defs =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) values[d.name] = med(main_iters, d.name);
  if (args.trace) {
    values["data.generate_s"] = median(generate);
    values["data.discretize_s"] = median(discretize);
    values["bench.trace_overhead"] =
        med(traced_iters, "total_s") - med(plain_iters, "total_s");
  } else {
    // The median build times, summed: a slow spell in one build of one
    // iteration does not move the sum.
    values["train_s"] = 0.0;
    for (const BuildSpec& b : w.builds) {
      values["train_s"] += med(plain_iters, "core.build_s." + b.name());
    }
    values["setup_s"] = median(setup);
    values["peak_rss_mib"] = peak_rss_mib();
  }

  std::printf("workload %s seed %llu rows %zu: %zu plain + %zu traced "
              "iterations, %lld/%lld failed\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.rows, plain_iters.size(), traced_iters.size(),
              static_cast<long long>(check.failed),
              static_cast<long long>(check.attempted));
  for (const MetricDef& d : defs) {
    std::printf("  %-36s %18.6f %s\n", d.name.c_str(), values[d.name],
                d.unit.c_str());
  }
  write_spans(args.spans_out, tracer, env);

  std::string out = "{\"correct\": ";
  out += check.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(check.attempted);
  out += ", \"failed\": " + std::to_string(check.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + defs[i].name + "\": {\"value\": " +
           num(values[defs[i].name]) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
