// Isoefficiency grid (Section 4.3): record fully-instrumented hybrid
// runs over a (P, N) grid — plus the P=1 serial baseline at every N —
// each with its complete pdt-events-v1 execution log, so that
//
//   pdt replay --iso --efficiency 0.8 isoefficiency.*.events.json
//
// can chart the *measured* isoefficiency curve (the N at which each P
// reaches the target efficiency, interpolated from the grid) against
// the analytic N = E/(1-E) * iso_c * P log2 P. The calibrated constant
// iso_c = c_comm/c_comp rides along in every log's meta.
//
// Also prints the measured efficiency table and the analytic curve
// directly, and emits an {"type":"iso_grid",...} section in
// isoefficiency.json.
#include "bench_util.hpp"
#include "core/cost_analysis.hpp"

using namespace pdt;

namespace {

core::AnalysisInput fig6_analysis() {
  core::AnalysisInput in;
  in.A_d = 9;
  in.C = 2;
  in.M = 12;
  in.L1 = 24;
  return in;
}

}  // namespace

int main() {
  bench::header("Isoefficiency", "efficiency over a (P, N) grid, hybrid");
  bench::BenchReport rep("isoefficiency");

  const std::vector<double> paper_ns{0.1e6, 0.2e6, 0.4e6, 0.8e6};
  const std::vector<int> procs{2, 4, 8};
  const double iso_c = core::isoefficiency_constant(fig6_analysis());
  std::printf("calibrated iso_c = c_comm/c_comp = %.4f\n\n", iso_c);

  // serial_time[i] is the P=1 virtual runtime at paper_ns[i].
  std::vector<double> serial_time;
  std::vector<std::vector<double>> time_at;  // [p index][n index]
  time_at.assign(procs.size(), {});

  for (std::size_t ni = 0; ni < paper_ns.size(); ++ni) {
    const std::size_t n = bench::scaled(paper_ns[ni]);
    const data::Dataset ds = bench::fig6_workload(n, 1 + ni);
    char tag[48];

    const bench::ModelInfo model{.train_seed = 1 + ni, .paper_bins = true};

    std::snprintf(tag, sizeof tag, "serial.N%zu", n);
    core::ParOptions sopt;
    sopt.num_procs = 1;
    const core::ParResult serial = bench::run_instrumented(
        rep, tag, core::Formulation::Sync, ds, sopt, iso_c, &model);
    serial_time.push_back(serial.parallel_time);

    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      std::snprintf(tag, sizeof tag, "hybrid.P%d.N%zu", procs[pi], n);
      core::ParOptions opt;
      opt.num_procs = procs[pi];
      const core::ParResult res = bench::run_instrumented(
          rep, tag, core::Formulation::Hybrid, ds, opt, iso_c, &model);
      time_at[pi].push_back(res.parallel_time);
    }
  }

  std::printf("\nmeasured efficiency (hybrid, serial/(P*T)):\n%-10s", "N \\ P");
  for (const int p : procs) std::printf(" %8d", p);
  std::printf("\n");
  for (std::size_t ni = 0; ni < paper_ns.size(); ++ni) {
    std::printf("%-10zu", bench::scaled(paper_ns[ni]));
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      std::printf(" %8.3f", serial_time[ni] / (procs[pi] * time_at[pi][ni]));
    }
    std::printf("\n");
  }

  const double target = 0.8;
  core::AnalysisInput in = fig6_analysis();
  std::printf("\nanalytic isoefficiency (N to hold E=%.2f):\n", target);
  for (const int p : procs) {
    std::printf("  P=%-3d N = %.0f records\n", p,
                core::isoefficiency_records(in, p, target));
  }
  std::printf("(replay the recorded grid: pdt replay --iso --efficiency "
              "%.2f isoefficiency.*.events.json)\n", target);

  if (obs::JsonWriter* w = rep.writer()) {
    w->begin_object();
    w->kv("type", "iso_grid");
    w->kv("formulation", "hybrid");
    w->kv("iso_c", iso_c);
    w->key("points").begin_array();
    for (std::size_t ni = 0; ni < paper_ns.size(); ++ni) {
      for (std::size_t pi = 0; pi < procs.size(); ++pi) {
        w->begin_object();
        w->kv("n", static_cast<std::int64_t>(bench::scaled(paper_ns[ni])));
        w->kv("procs", procs[pi]);
        w->kv("time_us", time_at[pi][ni]);
        w->kv("serial_us", serial_time[ni]);
        w->kv("efficiency",
              serial_time[ni] / (procs[pi] * time_at[pi][ni]));
        w->end_object();
      }
    }
    w->end_array();
    w->end_object();
  }
  return 0;
}
