// The observability layer is passive: attaching it must not perturb the
// simulation by a single bit. These tests run every formulation with and
// without an Observability sink and require bit-identical virtual time
// and accounting — which also pins the disabled path to the pre-obs seed
// behaviour (the disabled path is the original code plus one branch).
// What the sink reports must also agree with the run's own accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "obs/observability.hpp"

namespace pdt::core {
namespace {

data::Dataset quest_binned(std::size_t n, std::uint64_t seed = 31) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

void expect_bit_identical(const ParResult& off, const ParResult& on,
                          const char* what) {
  EXPECT_EQ(off.parallel_time, on.parallel_time) << what << ": max_clock";
  EXPECT_EQ(off.totals.compute_time, on.totals.compute_time) << what;
  EXPECT_EQ(off.totals.comm_time, on.totals.comm_time) << what;
  EXPECT_EQ(off.totals.io_time, on.totals.io_time) << what;
  EXPECT_EQ(off.totals.idle_time, on.totals.idle_time) << what;
  EXPECT_EQ(off.totals.words_sent, on.totals.words_sent) << what;
  EXPECT_EQ(off.totals.messages_sent, on.totals.messages_sent) << what;
  EXPECT_EQ(off.records_moved, on.records_moved) << what;
  EXPECT_EQ(off.histogram_words, on.histogram_words) << what;
  EXPECT_EQ(off.levels, on.levels) << what;
  EXPECT_EQ(off.partition_splits, on.partition_splits) << what;
  EXPECT_EQ(off.rejoins, on.rejoins) << what;
  ASSERT_EQ(off.per_rank.size(), on.per_rank.size()) << what;
  for (std::size_t r = 0; r < off.per_rank.size(); ++r) {
    EXPECT_EQ(off.per_rank[r].busy_time(), on.per_rank[r].busy_time())
        << what << ": rank " << r;
    EXPECT_EQ(off.per_rank[r].idle_time, on.per_rank[r].idle_time)
        << what << ": rank " << r;
  }
  // The byte accounts are always-on in the Machine; attaching the ledger
  // must not change a single byte of them.
  ASSERT_EQ(off.mem.size(), on.mem.size()) << what;
  for (std::size_t r = 0; r < off.mem.size(); ++r) {
    EXPECT_EQ(off.mem[r].peak_total, on.mem[r].peak_total)
        << what << ": mem peak, rank " << r;
    EXPECT_EQ(off.mem[r].live_total, on.mem[r].live_total)
        << what << ": mem live, rank " << r;
    for (int t = 0; t < mpsim::kNumMemTags; ++t) {
      const auto tag = static_cast<mpsim::MemTag>(t);
      EXPECT_EQ(off.mem[r].peak_for(tag), on.mem[r].peak_for(tag))
          << what << ": rank " << r << " " << mpsim::to_string(tag);
    }
  }
  EXPECT_EQ(off.mem_predicted.total(), on.mem_predicted.total()) << what;
  EXPECT_TRUE(off.tree.same_as(on.tree)) << what << ": tree";
}

class ObsParity : public ::testing::TestWithParam<std::tuple<Formulation, int>> {
};

TEST_P(ObsParity, AttachingObservabilityNeverChangesTheRun) {
  const auto [f, procs] = GetParam();
  const data::Dataset ds = quest_binned(2500);
  ParOptions opt;
  opt.num_procs = procs;

  const ParResult off = build(f, ds, opt);

  obs::Observability o(obs::ProfilerConfig{.timeline = true});
  opt.obs = &o;
  const ParResult on = build(f, ds, opt);

  expect_bit_identical(off, on, to_string(f));

  // And the instrumented run did actually observe the machine.
  EXPECT_GT(o.profiler().phase_totals(0, obs::kNoLevel, /*any_level=*/true)
                    .charges +
                o.profiler().rows().size(),
            0u);
  const auto totals = o.profiler().level_rank_totals(obs::kNoLevel, true);
  double busy = 0.0;
  for (const auto& t : totals) busy += t.busy();
  EXPECT_DOUBLE_EQ(busy, on.totals.busy_time())
      << "profiler must account every busy microsecond";

  // The comm ledger and critical-path tracer were attached for the
  // instrumented run (which the parity check above proved is bit-identical
  // to the bare run) and both actually observed it.
  EXPECT_GT(o.comm_ledger().entries().size(), 0u);
  EXPECT_EQ(o.comm_ledger().num_ranks(), procs);
  const auto path = o.critical_path().path();
  ASSERT_GT(path.segments.size(), 0u);
  EXPECT_EQ(path.max_clock_us, on.parallel_time)
      << "critical path must end exactly at max_clock";
  EXPECT_GT(o.critical_path().barriers(), 0u);

  // The mem ledger rode along on the same (bit-identical) run and saw
  // every byte event the machine accounts saw.
  EXPECT_GT(o.mem_ledger().events(), 0u);
  ASSERT_EQ(o.mem_ledger().num_ranks(), procs);
  for (int r = 0; r < procs; ++r) {
    EXPECT_EQ(o.mem_ledger().peak_bytes(r), on.mem[static_cast<std::size_t>(r)]
                                                .peak_total)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormulations, ObsParity,
    ::testing::Combine(::testing::Values(Formulation::Sync,
                                         Formulation::Partitioned,
                                         Formulation::Hybrid),
                       ::testing::Values(4, 8)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_P" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ObsParity, ExactContinuousSortPhaseAlsoBitIdentical) {
  const data::Dataset ds = data::quest_generate(800, {.function = 2,
                                                      .seed = 5});
  ParOptions opt;
  opt.num_procs = 4;
  opt.exact_continuous = true;
  const ParResult off = build_sync(ds, opt);
  obs::Observability o;
  opt.obs = &o;
  const ParResult on = build_sync(ds, opt);
  expect_bit_identical(off, on, "sync exact-continuous");
  bool has_sort = false;
  for (const auto& n : o.profiler().phase_names()) has_sort |= (n == "sort");
  EXPECT_TRUE(has_sort) << "the parallel-sort phase must be annotated";
}

// The host profiler reads a wall clock and writes its own cells; the
// virtual run it rides must stay bit-identical, and all the virtual
// observers must see exactly what they saw without it.
TEST(ObsParity, HostProfilerNeverChangesTheVirtualRun) {
  const data::Dataset ds = quest_binned(2500);
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    ParOptions opt;
    opt.num_procs = 8;

    obs::Observability plain(obs::ProfilerConfig{.timeline = true});
    opt.obs = &plain;
    const ParResult off = build(f, ds, opt);

    obs::Observability hosted(obs::ProfilerConfig{.timeline = true});
    hosted.enable_host_profiler();
    opt.obs = &hosted;
    const ParResult on = build(f, ds, opt);

    expect_bit_identical(off, on, to_string(f));

    // The virtual profiler cells must be identical too — same rows, same
    // totals — because nothing about the attribution machinery changed.
    const auto off_rows = plain.profiler().rows();
    const auto on_rows = hosted.profiler().rows();
    ASSERT_EQ(off_rows.size(), on_rows.size()) << to_string(f);
    for (std::size_t i = 0; i < off_rows.size(); ++i) {
      EXPECT_EQ(off_rows[i].phase, on_rows[i].phase);
      EXPECT_EQ(off_rows[i].level, on_rows[i].level);
      EXPECT_EQ(off_rows[i].rank, on_rows[i].rank);
      EXPECT_EQ(off_rows[i].totals.total(), on_rows[i].totals.total());
      EXPECT_EQ(off_rows[i].totals.charges, on_rows[i].totals.charges);
    }

    // And the host profiler actually rode along: every (phase, level)
    // the virtual profiler charged was timed by the host too, and the
    // host cells add up to its total.
    const obs::HostProfiler* h = hosted.host_profiler();
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->samples(), 0u) << to_string(f);
    for (const auto& row : on_rows) {
      EXPECT_GT(h->phase_totals(row.phase, row.level).samples, 0u)
          << to_string(f) << ": virtual cell (" << row.phase << ", "
          << row.level << ") has no host twin";
    }
    std::int64_t host_sum = 0;
    for (const auto& row : h->rows()) host_sum += row.totals.total_ns();
    EXPECT_EQ(host_sum, h->total_ns()) << to_string(f);
  }
}

// enable_host_profiler is idempotent and the accessor reflects state.
TEST(ObsParity, HostProfilerAccessor) {
  obs::Observability o;
  EXPECT_EQ(o.host_profiler(), nullptr);
  o.enable_host_profiler();
  const obs::HostProfiler* h = o.host_profiler();
  ASSERT_NE(h, nullptr);
  o.enable_host_profiler();  // second call keeps the first profiler
  EXPECT_EQ(o.host_profiler(), h);
}

TEST(ObsParity, MetricsAgreeWithRunAccounting) {
  const data::Dataset ds = quest_binned(2500);
  ParOptions opt;
  opt.num_procs = 8;
  obs::Observability o;
  opt.obs = &o;
  const ParResult res = build(Formulation::Hybrid, ds, opt);

  // Every relocated row crossed the wire in a ledgered collective: the
  // moving phase's exchanges and the transfers of load balancing and
  // rejoins. A binned row is one word per attribute plus its label.
  const mpsim::CommLedger& ledger = o.comm_ledger();
  const double record_words = 1.0 + ds.num_attributes();
  ASSERT_GT(res.records_moved, 0);
  EXPECT_DOUBLE_EQ(
      ledger.kind_totals(mpsim::CollectiveKind::PairwiseExchange).words +
          ledger.kind_totals(mpsim::CollectiveKind::Transfers).words,
      static_cast<double>(res.records_moved) * record_words);

  // The profiler's rollup over every level is each rank's whole
  // timeline: its busy and its idle time. The slowest rank's total is
  // the run's completion time.
  const obs::PhaseProfiler& prof = o.profiler();
  const std::vector<obs::PhaseTotals> per_rank =
      prof.level_rank_totals(obs::kNoLevel, /*any_level=*/true);
  ASSERT_EQ(per_rank.size(), res.per_rank.size());
  mpsim::Time slowest = 0.0;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const mpsim::RankStats& s = res.per_rank[r];
    EXPECT_NEAR(per_rank[r].busy(), s.busy_time(), 1e-9 * s.busy_time())
        << "rank " << r;
    EXPECT_NEAR(per_rank[r].idle, s.idle_time, 1e-9 * res.parallel_time)
        << "rank " << r;
    slowest = std::max(slowest, per_rank[r].total());
  }
  EXPECT_NEAR(slowest, res.parallel_time, 1e-9 * res.parallel_time);

  // Every level that did work reports a balance factor of at least 1.
  int levels = 0;
  for (int level = 0; level <= prof.max_level(); ++level) {
    if (prof.load_imbalance(level) == 0.0) continue;
    ++levels;
    EXPECT_GE(prof.load_imbalance(level), 1.0) << "level " << level;
  }
  EXPECT_GT(levels, 0);

  // Synchronous never shrinks its group to one rank, so every histogram
  // word it counts went through a ledgered all-reduce.
  obs::Observability sync_obs;
  opt.obs = &sync_obs;
  const ParResult sync = build(Formulation::Sync, ds, opt);
  EXPECT_DOUBLE_EQ(
      sync_obs.comm_ledger().kind_totals(mpsim::CollectiveKind::AllReduce)
          .words,
      sync.histogram_words);
}

}  // namespace
}  // namespace pdt::core
