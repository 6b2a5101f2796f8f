// Invariants of the per-rank memory accounting and its MemLedger
// attribution, across all three parallel formulations:
//
//  * the peak is the running maximum of live bytes over the event stream,
//    and live bytes never go negative at any event;
//  * the ledger's (tag, phase, level) cell deltas telescope back to each
//    rank's live bytes;
//  * every byte charged over a run is released by teardown (live == 0);
//  * the analytic Section-4 prediction brackets the measured bottleneck
//    for the synchronous formulation;
//  * the per-rank peak shrinks as processors are added at fixed N — the
//    paper's memory-scalability claim, and the basis of pdt report's
//    verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alist/parallel.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "mpsim/machine.hpp"
#include "obs/observability.hpp"

namespace pdt::obs {
namespace {

data::Dataset quest_binned(std::size_t n, std::uint64_t seed = 31) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

std::int64_t max_rank_peak(const std::vector<mpsim::MemStats>& mem) {
  std::int64_t peak = 0;
  for (const mpsim::MemStats& m : mem) peak = std::max(peak, m.peak_total);
  return peak;
}

// ------------------------------------------------- machine-level stream --

/// Records every alloc/free the Machine emits, tracking the running
/// maximum of live_after per rank.
struct StreamRecorder : mpsim::ChargeObserver {
  struct PerRank {
    std::int64_t running_max = 0;
    std::int64_t min_live_after = 0;
    std::uint64_t events = 0;
  };
  std::vector<PerRank> ranks;

  void on_charge(mpsim::Rank, mpsim::ChargeKind, mpsim::Time, mpsim::Time,
                 double, double) override {}
  void see(mpsim::Rank r, std::int64_t live_after) {
    if (static_cast<std::size_t>(r) >= ranks.size()) {
      ranks.resize(static_cast<std::size_t>(r) + 1);
    }
    PerRank& pr = ranks[static_cast<std::size_t>(r)];
    pr.running_max = std::max(pr.running_max, live_after);
    pr.min_live_after = std::min(pr.min_live_after, live_after);
    ++pr.events;
  }
  void on_alloc(mpsim::Rank r, mpsim::MemTag, std::int64_t,
                std::int64_t live_after) override {
    see(r, live_after);
  }
  void on_free(mpsim::Rank r, mpsim::MemTag, std::int64_t,
               std::int64_t live_after) override {
    see(r, live_after);
  }
};

TEST(MemAccounts, PeakIsTheRunningMaxOfLiveAndLiveNeverGoesNegative) {
  mpsim::Machine m(2, mpsim::CostModel::sp2());
  StreamRecorder rec;
  m.set_observer(&rec);

  m.alloc_bytes(0, mpsim::MemTag::Records, 1000);
  m.alloc_bytes(0, mpsim::MemTag::Histogram, 400);
  m.free_bytes(0, mpsim::MemTag::Records, 600);
  m.alloc_bytes(0, mpsim::MemTag::Scratch, 100);
  m.free_bytes(0, mpsim::MemTag::Histogram, 400);
  m.free_bytes(0, mpsim::MemTag::Scratch, 100);
  m.free_bytes(0, mpsim::MemTag::Records, 400);
  m.alloc_bytes(1, mpsim::MemTag::CollectiveBuffer, 50);
  m.free_bytes(1, mpsim::MemTag::CollectiveBuffer, 50);

  EXPECT_EQ(m.mem(0).peak_total, 1400);
  EXPECT_EQ(m.mem(0).live_total, 0);
  EXPECT_EQ(m.mem(0).peak_for(mpsim::MemTag::Records), 1000);
  EXPECT_EQ(m.mem(1).peak_total, 50);
  ASSERT_EQ(rec.ranks.size(), 2u);
  EXPECT_EQ(rec.ranks[0].running_max, m.mem(0).peak_total);
  EXPECT_EQ(rec.ranks[1].running_max, m.mem(1).peak_total);
  for (const StreamRecorder::PerRank& pr : rec.ranks) {
    EXPECT_GE(pr.min_live_after, 0) << "live bytes dipped below zero";
  }
  EXPECT_EQ(rec.ranks[0].events, 7u);
  EXPECT_EQ(m.max_peak_bytes(), 1400);
}

TEST(MemAccounts, ZeroByteEventsAreDropped) {
  mpsim::Machine m(1, mpsim::CostModel::sp2());
  StreamRecorder rec;
  m.set_observer(&rec);
  m.alloc_bytes(0, mpsim::MemTag::Records, 0);
  m.free_bytes(0, mpsim::MemTag::Records, 0);
  EXPECT_TRUE(rec.ranks.empty()) << "zero-byte events must not reach observers";
  EXPECT_EQ(m.mem(0).live_total, 0);
  EXPECT_EQ(m.mem(0).peak_total, 0);
}

// ------------------------------------------------------- run invariants --

class MemLedgerRun
    : public ::testing::TestWithParam<std::tuple<core::Formulation, int>> {};

TEST_P(MemLedgerRun, ChargesTelescopeAndEveryByteIsReleased) {
  const auto [f, procs] = GetParam();
  const data::Dataset ds = quest_binned(2500);
  core::ParOptions opt;
  opt.num_procs = procs;
  Observability o;
  opt.obs = &o;
  const core::ParResult res = core::build(f, ds, opt);

  // Machine accounts: the run returned every byte it charged, on every
  // rank and for every structure, and peaked above the steady state.
  ASSERT_EQ(res.mem.size(), static_cast<std::size_t>(procs));
  std::int64_t sum_peaks = 0;
  for (int r = 0; r < procs; ++r) {
    const mpsim::MemStats& m = res.mem[static_cast<std::size_t>(r)];
    EXPECT_EQ(m.live_total, 0) << "rank " << r << " leaked bytes";
    EXPECT_GT(m.peak_total, 0) << "rank " << r << " never held memory";
    for (int t = 0; t < mpsim::kNumMemTags; ++t) {
      const auto tag = static_cast<mpsim::MemTag>(t);
      EXPECT_EQ(m.live_for(tag), 0)
          << "rank " << r << " leaked " << mpsim::to_string(tag);
      EXPECT_GE(m.peak_for(tag), 0);
    }
    sum_peaks += m.peak_total;
  }
  // All P ranks together must at some point have held at least the whole
  // dataset's records.
  const MemLedger& ledger = o.mem_ledger();
  EXPECT_GT(sum_peaks, 0);
  EXPECT_GT(ledger.events(), 0u);

  // Ledger mirror: same event stream, so same live/peak per rank; total
  // charged equals total released at teardown.
  ASSERT_EQ(ledger.num_ranks(), procs);
  for (int r = 0; r < procs; ++r) {
    EXPECT_EQ(ledger.live_bytes(r), 0) << "rank " << r;
    EXPECT_EQ(ledger.peak_bytes(r),
              res.mem[static_cast<std::size_t>(r)].peak_total)
        << "ledger peak must equal the machine's high-water mark, rank " << r;
    EXPECT_GT(ledger.charged_bytes(r), 0) << "rank " << r;
    EXPECT_EQ(ledger.charged_bytes(r), ledger.released_bytes(r))
        << "rank " << r << ": bytes charged != bytes released";
  }

  // Telescoping: the per-(tag, phase, level) cell deltas sum back to each
  // rank's live bytes (zero at teardown), and no cell's peak is below its
  // final live value.
  std::vector<std::int64_t> live_by_rank(static_cast<std::size_t>(procs), 0);
  for (const MemLedger::Row& row : ledger.rows()) {
    ASSERT_GE(row.rank, 0);
    ASSERT_LT(row.rank, procs);
    live_by_rank[static_cast<std::size_t>(row.rank)] += row.live;
    EXPECT_GE(row.peak, row.live);
  }
  for (int r = 0; r < procs; ++r) {
    EXPECT_EQ(live_by_rank[static_cast<std::size_t>(r)], 0)
        << "phase deltas must telescope to rank live bytes, rank " << r;
  }

  // top_segments is a size-limited, peak-descending view of the rows.
  const std::vector<MemLedger::Row> top = ledger.top_segments(0, 3);
  EXPECT_LE(top.size(), 3u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].peak, top[i].peak);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormulations, MemLedgerRun,
    ::testing::Combine(::testing::Values(core::Formulation::Sync,
                                         core::Formulation::Partitioned,
                                         core::Formulation::Hybrid),
                       ::testing::Values(4, 8)),
    [](const auto& info) {
      return std::string(core::to_string(std::get<0>(info.param))) + "_P" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ prediction & scaling --

// With a small histogram buffer the O(N/P) records term dominates, and
// the measured bottleneck must match the Section-4 analytic bound within
// a stated tolerance (the slack is real: LPT packing and hybrid moves
// make some rank hold more than the even N/P share for a while).
TEST(MemPrediction, SyncBottleneckMatchesSectionFourBound) {
  const data::Dataset ds = quest_binned(4000);
  for (const int procs : {4, 8}) {
    core::ParOptions opt;
    opt.num_procs = procs;
    opt.comm_buffer_nodes = 4;
    const core::ParResult res = core::build_sync(ds, opt);
    ASSERT_FALSE(res.mem_predicted.empty());
    const double measured = static_cast<double>(max_rank_peak(res.mem));
    const double predicted = static_cast<double>(res.mem_predicted.total());
    EXPECT_GT(predicted, 0.0);
    const double err = (measured - predicted) / predicted;
    EXPECT_LT(std::abs(err), 0.35)
        << "P=" << procs << ": measured " << measured << " vs predicted "
        << predicted;
    // The records term alone must be a lower bound: some rank holds at
    // least the even share of the dataset.
    EXPECT_GE(measured,
              static_cast<double>(res.mem_predicted.records_bytes));
  }
}

// Fixed N, growing P: the synchronous formulation's per-rank bottleneck
// must never grow, and must strictly shrink from P=1 to P=8 — the
// memory-scalability verdict the report renders, as a hard test.
TEST(MemScaling, SyncPerRankPeakShrinksWithProcessors) {
  const data::Dataset ds = quest_binned(4000);
  std::vector<std::int64_t> peaks;
  for (const int procs : {1, 2, 4, 8}) {
    core::ParOptions opt;
    opt.num_procs = procs;
    opt.comm_buffer_nodes = 4;
    const core::ParResult res = core::build_sync(ds, opt);
    peaks.push_back(max_rank_peak(res.mem));
  }
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    EXPECT_LE(peaks[i], peaks[i - 1])
        << "per-rank peak grew from P-step " << i - 1 << " to " << i;
  }
  EXPECT_LT(peaks.back(), peaks.front())
      << "max-rank peak must strictly decrease from P=1 to P=8";
}

// The SPRINT-vs-ScalParC contrast, now in measured bytes: the replicated
// hash table's per-rank peak is ~P times the distributed one's.
TEST(MemScaling, ReplicatedSprintHashTableDwarfsScalParC) {
  const data::Dataset raw =
      data::quest_generate(2000, {.function = 2, .seed = 9});
  alist::ParallelSprintOptions opt;
  opt.num_procs = 8;
  opt.grow.max_depth = 10;

  opt.scheme = alist::HashTableScheme::ReplicatedSprint;
  const auto sprint = alist::build_parallel_sprint(raw, opt);
  opt.scheme = alist::HashTableScheme::DistributedScalParC;
  const auto scalparc = alist::build_parallel_sprint(raw, opt);

  auto hash_peak = [](const alist::ParallelSprintResult& res) {
    std::int64_t peak = 0;
    for (const mpsim::MemStats& m : res.mem) {
      peak = std::max(peak, m.peak_for(mpsim::MemTag::HashTable));
    }
    return peak;
  };
  EXPECT_EQ(hash_peak(sprint), 8 * hash_peak(scalparc));
  // Both hold identical O(N/P) attribute-list sections.
  EXPECT_EQ(sprint.mem[0].peak_for(mpsim::MemTag::AttributeList),
            scalparc.mem[0].peak_for(mpsim::MemTag::AttributeList));
}

}  // namespace
}  // namespace pdt::obs
