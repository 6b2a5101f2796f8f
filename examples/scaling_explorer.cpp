// Interactive scaling exploration: pick a formulation, dataset size, and
// processor count range, and see where each formulation's time goes
// (compute / communication / idle) — the breakdown behind Figure 6.
//
// Build & run:  ./build/examples/scaling_explorer [sync|part|hybrid] [N] [Pmax]
//
// Host profiling (DESIGN.md §9):
//   --host                  pair every simulated phase with the wall time
//                           this host actually spent, and rank where the
//                           cost model and the host disagree the most
//
// Fault injection (DESIGN.md §7) — any of these arms checkpoint/recovery:
//   --fail=R@L              rank R fail-stops when its group enters level L
//   --straggler=R@L0:L1:F   rank R's charges cost Fx over levels [L0, L1]
//   --delay=A-BxF           link A<->B costs Fx
//   PDT_FAULT_SEED=<seed>   seeded random single-failure scenario per P
//
// Durable checkpoints + crash-restart (DESIGN.md §13):
//   --ckpt-dir=DIR          write a pdt-ckpt-v1 epoch per level to DIR/P<p>
//   --resume                resume each P>1 run from its latest valid epoch
//   --resume-epoch=N        cap the resume at epoch N (later epochs ignored)
//   --crash-after=N         _Exit(137) right after committing epoch N — the
//                           crash half of the CI kill-and-resume gate
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <system_error>
#include <string>
#include <vector>

#include <fstream>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/metrics.hpp"
#include "dtree/serialize.hpp"
#include "mpsim/fault.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"

using namespace pdt;

// The three longest critical-path segments: where did the time this run
// could not parallelize away actually go?
static void print_top_segments(const obs::Observability& o) {
  const auto path = o.critical_path().path();
  if (path.segments.empty() || path.max_clock_us <= 0.0) return;
  auto top = path.segments;
  std::sort(top.begin(), top.end(),
            [](const obs::PathSegment& a, const obs::PathSegment& b) {
              if (a.dur_us() != b.dur_us()) return a.dur_us() > b.dur_us();
              return a.start_us < b.start_us;
            });
  std::printf("     critical path (%zu segments, %llu handoffs), top 3:\n",
              path.segments.size(),
              static_cast<unsigned long long>(path.handoffs));
  for (std::size_t i = 0; i < top.size() && i < 3; ++i) {
    const obs::PathSegment& s = top[i];
    const std::string phase(o.profiler().phase_name(s.phase));
    std::printf("       %4.1f%%  rank %d  %s",
                100.0 * s.dur_us() / path.max_clock_us, s.rank,
                phase.c_str());
    if (s.level != obs::kNoLevel) std::printf(" (level %d)", s.level);
    std::printf("  %s  %.1f ms\n", mpsim::to_string(s.kind),
                s.dur_us() / 1000.0);
  }
}

// The three heaviest idle-blame edges: who was everyone waiting on, and
// during which of the holder's phases? (See DESIGN.md §8.)
static void print_top_blame(const obs::Observability& o) {
  const mpsim::EventRecorder* rec = o.event_log();
  if (rec == nullptr) return;
  mpsim::ClockFold fold(rec->nprocs(), rec->cost(), rec->cost(),
                        /*blame=*/true);
  for (const mpsim::ExecEvent& e : rec->events()) fold.apply(e);
  const std::vector<mpsim::BlameEdge> edges = fold.blame();
  if (edges.empty()) return;
  std::printf("     wait-for blame, top 3:\n");
  for (std::size_t i = 0; i < edges.size() && i < 3; ++i) {
    const mpsim::BlameEdge& e = edges[i];
    std::string held;
    if (e.holder_phase == mpsim::kRankFailurePhase) {
      held = "(rank failure)";
    } else {
      held = rec->phase_names()[static_cast<std::size_t>(e.holder_phase)];
    }
    std::printf("       %4.1f%%  rank %d (level %d) waits on rank %d  %s  "
                "%.1f ms\n",
                e.idle_pct, e.idler, e.idler_level, e.holder, held.c_str(),
                e.idle_us / 1000.0);
  }
}

// The --host view: total wall time this host spent inside the run, the
// per-phase host/virtual share split, and the three (phase, level)
// segments where the cost model and the host diverge the most. Host and
// virtual cells share (phase, level) keys (DESIGN.md §9), so the
// pairing is exact, not heuristic.
static void print_host_summary(const obs::Observability& o) {
  const obs::HostProfiler* h = o.host_profiler();
  if (h == nullptr || h->total_ns() <= 0) return;
  const std::vector<std::string>& names = o.profiler().phase_names();
  const double host_total = static_cast<double>(h->total_ns());

  // Per-phase split (levels summed), virtual shares alongside.
  double virt_total = 0.0;
  std::vector<double> virt_us(names.size(), 0.0);
  std::vector<double> host_ns(names.size(), 0.0);
  for (std::size_t p = 0; p < names.size(); ++p) {
    const obs::PhaseId id = static_cast<obs::PhaseId>(p);
    virt_us[p] = o.profiler().phase_totals(id, obs::kNoLevel, true).total();
    virt_total += virt_us[p];
    host_ns[p] = static_cast<double>(
        h->phase_totals(id, obs::kNoLevel, true).total_ns());
  }
  std::printf("     host wall time %.2f ms (%s), per phase:\n",
              host_total / 1e6, h->clock_name());
  for (std::size_t p = 0; p < names.size(); ++p) {
    if (host_ns[p] <= 0.0 && virt_us[p] <= 0.0) continue;
    std::printf("       %-18s %8.2f ms  %5.1f%% host | %5.1f%% virtual\n",
                names[p].c_str(), host_ns[p] / 1e6,
                100.0 * host_ns[p] / host_total,
                virt_total > 0.0 ? 100.0 * virt_us[p] / virt_total : 0.0);
  }

  // Divergence ranking over (phase, level) segments: + means the segment
  // is dearer on this host than the cost model says.
  struct Seg {
    obs::PhaseId phase = 0;
    int level = obs::kNoLevel;
    double host_ns = 0.0;
    double pp = 0.0;  // host share minus virtual share, in points
  };
  std::vector<Seg> segs;
  for (const obs::HostProfiler::Row& row : h->rows()) {
    const double ns = static_cast<double>(row.totals.total_ns());
    const double vus = o.profiler().phase_totals(row.phase, row.level).total();
    const double virt_share =
        virt_total > 0.0 ? 100.0 * vus / virt_total : 0.0;
    segs.push_back({row.phase, row.level, ns,
                    100.0 * ns / host_total - virt_share});
  }
  std::stable_sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
    return std::fabs(a.pp) > std::fabs(b.pp);
  });
  std::printf("     top simulated-vs-real divergence (+ = dearer on this "
              "host):\n");
  for (std::size_t i = 0; i < segs.size() && i < 3; ++i) {
    const Seg& s = segs[i];
    const std::string phase(o.profiler().phase_name(s.phase));
    std::printf("       %+5.1fpp  %s", s.pp, phase.c_str());
    if (s.level != obs::kNoLevel) std::printf(" (level %d)", s.level);
    std::printf("  %.2f ms host\n", s.host_ns / 1e6);
  }
}

// The heaviest-loaded rank's memory and its three largest (phase, level)
// segments: which structure, during which phase, owns the footprint?
static void print_top_memory(const obs::Observability& o,
                             const core::ParResult& res) {
  int peak_rank = 0;
  for (std::size_t r = 1; r < res.mem.size(); ++r) {
    if (res.mem[r].peak_total > res.mem[peak_rank].peak_total) {
      peak_rank = static_cast<int>(r);
    }
  }
  const std::int64_t peak = res.mem[peak_rank].peak_total;
  if (peak <= 0) return;
  std::printf("     peak memory %.0f KiB on rank %d, top segments:\n",
              static_cast<double>(peak) / 1024.0, peak_rank);
  for (const obs::MemLedger::Row& s :
       o.mem_ledger().top_segments(peak_rank, 3)) {
    const std::string phase(o.profiler().phase_name(s.phase));
    std::printf("       %4.1f%%  %-16s %s",
                100.0 * static_cast<double>(s.peak) /
                    static_cast<double>(peak),
                mpsim::to_string(s.tag), phase.c_str());
    if (s.level != obs::kNoLevel) std::printf(" (level %d)", s.level);
    std::printf("  %.1f KiB\n", static_cast<double>(s.peak) / 1024.0);
  }
}

// One-line model identity after each run: the content digest must match
// across every formulation and P growing this workload (pdt tree diff
// turns a mismatch into a failing gate), alongside shape and held-out
// accuracy. PDT_MODEL_OUT=<prefix> additionally dumps the pdt-model-v1
// document to <prefix>.P<p>.model.json for offline pdt tree runs.
static void print_model_line(const core::ParResult& res, core::Formulation f,
                             int p, std::size_t n,
                             const data::Dataset& eval_ds,
                             std::uint64_t eval_seed,
                             std::span<const dtree::SplitAuditEntry> audit) {
  const dtree::Evaluation ev = dtree::evaluate(res.tree, eval_ds);
  const std::string digest = dtree::model_digest(res.tree);
  std::printf("     model %.12s...  %d nodes, %d leaves, depth %d, "
              "held-out accuracy %.4f\n",
              digest.c_str(), res.tree.num_nodes(), res.tree.num_leaves(),
              res.tree.depth(), ev.accuracy());
  const char* model_out = std::getenv("PDT_MODEL_OUT");
  if (model_out == nullptr || *model_out == '\0') return;
  dtree::ModelMeta meta;
  meta.harness = "scaling_explorer";
  meta.tag = "P" + std::to_string(p);
  meta.formulation = core::to_string(f);
  meta.procs = p;
  meta.quest_function = 2;
  meta.train_seed = 7;
  meta.train_rows = static_cast<std::int64_t>(n);
  meta.paper_bins = true;
  meta.eval_seed = eval_seed;
  meta.eval_rows = static_cast<std::int64_t>(eval_ds.num_rows());
  const std::string path =
      std::string(model_out) + ".P" + std::to_string(p) + ".model.json";
  std::ofstream ms(path);
  if (ms) {
    ms << dtree::model_json(res.tree, meta, audit, ev.accuracy());
    std::printf("     [json] wrote %s (inspect with pdt tree)\n",
                path.c_str());
  }
}

int main(int argc, char** argv) {
  // Split fault/host flags from positional arguments.
  mpsim::FaultPlan flag_plan;
  bool host = false;
  std::string ckpt_dir;
  bool resume = false;
  int resume_epoch = -1;
  int crash_after = -1;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    int a = 0;
    int b = 0;
    int c = 0;
    double factor = 0.0;
    if (std::strcmp(argv[i], "--host") == 0) {
      host = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strncmp(argv[i], "--ckpt-dir=", 11) == 0) {
      ckpt_dir = argv[i] + 11;
    } else if (std::sscanf(argv[i], "--resume-epoch=%d", &a) == 1) {
      resume_epoch = a;
    } else if (std::sscanf(argv[i], "--crash-after=%d", &a) == 1) {
      crash_after = a;
    } else if (std::sscanf(argv[i], "--fail=%d@%d", &a, &b) == 2) {
      flag_plan.fail_stop(a, b);
    } else if (std::sscanf(argv[i], "--straggler=%d@%d:%d:%lf", &a, &b, &c,
                           &factor) == 4) {
      flag_plan.straggler(a, b, c, factor);
    } else if (std::sscanf(argv[i], "--delay=%d-%dx%lf", &a, &b, &factor) ==
               3) {
      flag_plan.delay_link(a, b, factor);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr,
                   "usage: %s [sync|part|hybrid] [N] [Pmax] [--host] "
                   "[--fail=R@L] [--straggler=R@L0:L1:F] [--delay=A-BxF] "
                   "[--ckpt-dir=DIR] [--resume] [--resume-epoch=N] "
                   "[--crash-after=N]\n",
                   argv[0]);
      return 2;
    } else {
      pos.push_back(argv[i]);
    }
  }
  const char* seed_env = std::getenv("PDT_FAULT_SEED");
  const bool have_seed = seed_env != nullptr && *seed_env != '\0';
  const std::uint64_t fault_seed =
      have_seed ? std::strtoull(seed_env, nullptr, 10) : 0;

  core::Formulation f = core::Formulation::Hybrid;
  if (!pos.empty()) {
    if (std::strcmp(pos[0], "sync") == 0) {
      f = core::Formulation::Sync;
    } else if (std::strcmp(pos[0], "part") == 0) {
      f = core::Formulation::Partitioned;
    } else if (std::strcmp(pos[0], "hybrid") == 0) {
      f = core::Formulation::Hybrid;
    } else {
      std::fprintf(stderr, "usage: %s [sync|part|hybrid] [N] [Pmax]\n",
                   argv[0]);
      return 2;
    }
  }
  const std::size_t n =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1])) : 40000;
  const int pmax = pos.size() > 2 ? std::atoi(pos[2]) : 32;

  std::printf("formulation: %s | N = %zu | simulated IBM SP-2 cost model\n",
              core::to_string(f), n);
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = 7}),
      data::quest_paper_bins());

  core::ParOptions base;
  const core::ParResult serial = core::build_serial(ds, base);
  std::printf("serial baseline: %.1f ms | tree %d nodes, depth %d\n\n",
              serial.parallel_time / 1000.0, serial.tree.num_nodes(),
              serial.tree.depth());

  // Held-out sample for the per-run model line: same generator pipeline,
  // offset seed (mirrors the bench harnesses' eval provenance).
  const std::uint64_t eval_seed = 7 + 9000;
  const std::size_t eval_rows = static_cast<std::size_t>(
      std::clamp<std::int64_t>(static_cast<std::int64_t>(n) / 5, 1000,
                               20000));
  const data::Dataset eval_ds = data::discretize_uniform(
      data::quest_generate(eval_rows, {.function = 2, .seed = eval_seed}),
      data::quest_paper_bins());

  std::printf("%4s %12s %8s %6s | %9s %9s %9s | %7s %7s\n", "P",
              "time(ms)", "speedup", "eff", "compute%", "comm%", "idle%",
              "splits", "moved");
  for (int p = 1; p <= pmax; p *= 2) {
    core::ParOptions opt;
    opt.num_procs = p;
    obs::Observability o;  // fresh ledger + tracer per processor count
    o.enable_event_log();  // feeds the wait-for blame analysis below
    if (host) o.enable_host_profiler();
    // Audit split decisions only when the run will be dumped — the model
    // dump then records per-rank feeds and winner/runner-up margins.
    const char* model_out = std::getenv("PDT_MODEL_OUT");
    if (model_out != nullptr && *model_out != '\0') o.enable_split_audit();
    if (p > 1) opt.obs = &o;
    // Seeded random scenario is drawn per processor count (the victim
    // rank must exist); explicit flags ride along unchanged.
    mpsim::FaultPlan plan =
        have_seed ? mpsim::FaultPlan::random(fault_seed, p, 6)
                  : mpsim::FaultPlan();
    for (const mpsim::FailStop& fs : flag_plan.fail_stops()) {
      plan.fail_stop(fs.rank, fs.level);
    }
    for (const mpsim::Straggler& s : flag_plan.stragglers()) {
      plan.straggler(s.rank, s.from_level, s.to_level, s.factor);
    }
    for (const mpsim::LinkDelay& d : flag_plan.link_delays()) {
      plan.delay_link(d.a, d.b, d.factor);
    }
    if (p > 1 && !plan.empty()) opt.fault = &plan;
    if (p > 1 && !ckpt_dir.empty()) {
      // Per-P subdirectory: the loop reruns the same workload at every
      // processor count, and mixing their epoch sequences in one
      // directory would make resume pick up another run's frontier.
      opt.ckpt_dir = ckpt_dir + "/P" + std::to_string(p);
      std::error_code ec;
      std::filesystem::create_directories(opt.ckpt_dir, ec);
      opt.resume = resume;
      opt.resume_epoch = resume_epoch;
      opt.ckpt_crash_epoch = crash_after;
    }
    const core::ParResult res =
        p == 1 ? serial : core::build(f, ds, opt);
    const double busy_total = res.totals.compute_time +
                              res.totals.comm_time + res.totals.idle_time;
    std::printf("%4d %12.1f %8.2f %5.0f%% | %8.1f%% %8.1f%% %8.1f%% | %7d %7lld\n",
                p, res.parallel_time / 1000.0,
                serial.parallel_time / res.parallel_time,
                serial.parallel_time / res.parallel_time / p * 100.0,
                res.totals.compute_time / busy_total * 100.0,
                res.totals.comm_time / busy_total * 100.0,
                res.totals.idle_time / busy_total * 100.0,
                res.partition_splits,
                static_cast<long long>(res.records_moved));
    print_model_line(res, f, p, n, eval_ds, eval_seed,
                     p > 1 && o.split_audit() != nullptr
                         ? std::span<const dtree::SplitAuditEntry>(
                               o.split_audit()->entries())
                         : std::span<const dtree::SplitAuditEntry>{});
    if (p > 1) {
      if (opt.fault != nullptr) {
        std::printf("     fault plan: %s\n", opt.fault->describe().c_str());
        const core::RecoveryStats& rc = res.recovery;
        std::printf("     recovery: %d checkpoints (%.0f KiB, %.1f ms io), "
                    "%d failures, detect %.1f ms, recover %.1f ms, "
                    "%lld records redistributed, tree %s serial\n",
                    rc.checkpoints,
                    static_cast<double>(rc.checkpoint_bytes) / 1024.0,
                    rc.checkpoint_io_us / 1000.0, rc.failures,
                    rc.detect_us / 1000.0, rc.recovery_us / 1000.0,
                    static_cast<long long>(rc.records_redistributed),
                    res.tree.same_as(serial.tree) ? "matches" : "DIFFERS from");
      }
      if (!opt.ckpt_dir.empty()) {
        const core::RecoveryStats& rc = res.recovery;
        std::printf("     durable: %d epoch(s) (%.0f KiB, %.1f ms io) -> %s\n",
                    rc.durable_checkpoints,
                    static_cast<double>(rc.durable_bytes) / 1024.0,
                    rc.durable_io_us / 1000.0, opt.ckpt_dir.c_str());
        if (rc.resumed) {
          std::printf("     resumed from epoch %d (%d skipped, %lld records, "
                      "%.1f ms io), tree %s serial\n",
                      rc.resume_epoch, rc.resume_skipped,
                      static_cast<long long>(rc.resume_records),
                      rc.resume_io_us / 1000.0,
                      res.tree.same_as(serial.tree) ? "matches"
                                                    : "DIFFERS from");
        } else if (resume) {
          std::printf("     resume requested but no valid checkpoint found; "
                      "started fresh\n");
        }
      }
      print_top_segments(o);
      print_top_blame(o);
      print_top_memory(o, res);
      if (host) print_host_summary(o);
      // PDT_EVENTS_OUT=<prefix> dumps each run's pdt-events-v1 log to
      // <prefix>.P<p>.events.json for offline pdt replay what-ifs.
      const char* events_out = std::getenv("PDT_EVENTS_OUT");
      if (events_out != nullptr && *events_out != '\0' &&
          o.event_log() != nullptr) {
        const std::string path =
            std::string(events_out) + ".P" + std::to_string(p) +
            ".events.json";
        std::ofstream es(path);
        if (es) {
          obs::EventLogMeta meta;
          meta.formulation = core::to_string(f);
          meta.workload = "scaling_explorer";
          meta.n = static_cast<std::int64_t>(ds.num_rows());
          meta.procs = p;
          obs::write_events_report(es, *o.event_log(), meta);
          std::printf("     [json] wrote %s (replay with pdt replay)\n",
                      path.c_str());
        }
      }
    }
  }
  std::printf("\n(compute/comm/idle are shares of total processor-time)\n");
  return 0;
}
