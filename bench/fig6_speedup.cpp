// Figure 6: speedup comparison of the three parallel formulations on
// function-2 data with uniformly discretized attributes, for 0.8M and
// 1.6M training cases (scaled by PDT_SCALE) on 1..16 processors.
//
// Expected shape (paper): the synchronous approach speeds up at P=2 but
// flattens or degrades for P>=4; the partitioned approach does better but
// loses efficiency at 8-16; the hybrid keeps improving and dominates.
//
// Also emits fig6_speedup.json (pdt-bench-v1) and, per formulation, a
// Perfetto trace of an instrumented P=8 run on the smaller workload.
#include <tuple>

#include "bench_util.hpp"
#include "core/cost_analysis.hpp"

using namespace pdt;

namespace {

void run_size(bench::BenchReport& rep, double paper_n, std::uint64_t seed) {
  const std::size_t n = bench::scaled(paper_n);
  std::printf("\n--- %.1fM paper-scale examples (simulated with N = %zu) ---\n",
              paper_n / 1e6, n);
  const data::Dataset ds = bench::fig6_workload(n, seed);
  const std::vector<int> procs{1, 2, 4, 8, 16};
  char workload[32];
  std::snprintf(workload, sizeof workload, "%.1fM", paper_n / 1e6);

  core::ParOptions base;
  std::printf("%-13s", "speedup at P:");
  for (const int p : procs) std::printf(" %8d", p);
  std::printf("\n");

  int tree_nodes = 0;
  for (const core::Formulation f :
       {core::Formulation::Sync, core::Formulation::Partitioned,
        core::Formulation::Hybrid}) {
    const auto series = core::speedup_series(f, ds, base, procs);
    std::printf("%-13s", core::to_string(f));
    for (const auto& pt : series) std::printf(" %8.2f", pt.speedup);
    std::printf("\n%-13s", "  peak KiB/P:");
    for (const auto& pt : series) {
      std::printf(" %8.0f",
                  static_cast<double>(bench::max_rank_peak(pt.result.mem)) /
                      1024.0);
    }
    std::printf("\n");
    tree_nodes = series.front().result.tree.num_nodes();
    bench::emit_speedup_series(rep, workload, core::to_string(f), series);
    bench::emit_mem_scaling(rep, workload, core::to_string(f), series);
  }
  std::printf("(tree: %d nodes; peak KiB/P = largest per-rank memory "
              "footprint, Section 4's O(N/P) term)\n", tree_nodes);

  // The Section-4 model at the paper's full scale, for comparison.
  core::AnalysisInput in;
  in.N = paper_n;
  in.A_d = 9;
  in.C = 2;
  in.M = 12;
  in.L1 = 24;
  std::printf("%-13s", "model hybrid:");
  for (const int p : procs) {
    in.P = p;
    std::printf(" %8.2f", core::predicted_serial_time(in) /
                              core::predicted_hybrid_time(in, 10.0));
  }
  std::printf("  (closed-form, full %.1fM records)\n", paper_n / 1e6);
  std::printf("%-13s", "model sync:");
  for (const int p : procs) {
    in.P = p;
    std::printf(" %8.2f", core::predicted_serial_time(in) /
                              core::predicted_sync_time(in));
  }
  std::printf("\n");
}

// One fully-instrumented P=8 run per formulation on the smaller workload:
// the JSON report gets the per-phase x per-level time breakdown plus the
// load-imbalance factors, and each run dumps a Perfetto trace.
void instrumented_runs(bench::BenchReport& rep, double paper_n,
                       std::uint64_t seed) {
  const data::Dataset ds = bench::fig6_workload(bench::scaled(paper_n), seed);
  std::printf("\n--- instrumented P=8 runs (%.1fM paper-scale) ---\n",
              paper_n / 1e6);
  // hybrid.P1 anchors the host-time speedup table (pdt report needs at
  // least two P values of one formulation to form a host-ns ratio).
  for (const auto& [f, procs, tag] :
       {std::tuple{core::Formulation::Sync, 8, "sync.P8"},
        std::tuple{core::Formulation::Partitioned, 8, "partitioned.P8"},
        std::tuple{core::Formulation::Hybrid, 8, "hybrid.P8"},
        std::tuple{core::Formulation::Hybrid, 1, "hybrid.P1"}}) {
    core::ParOptions opt;
    opt.num_procs = procs;
    const bench::ModelInfo model{.train_seed = seed, .paper_bins = true};
    const core::ParResult res =
        bench::run_instrumented(rep, tag, f, ds, opt, 0.0, &model);
    std::printf("%-13s P=%d %10.1f ms\n", core::to_string(f), procs,
                res.parallel_time / 1000.0);
  }
}

}  // namespace

int main() {
  bench::header("Figure 6", "speedup of the three parallel formulations");
  bench::BenchReport rep("fig6_speedup");
  run_size(rep, 0.8e6, 1);
  run_size(rep, 1.6e6, 2);
  instrumented_runs(rep, 0.8e6, 1);
  return 0;
}
