#include "mpsim/group.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "mpsim/comm_ledger.hpp"

namespace pdt::mpsim {
namespace {

CostModel unit_cost() {
  CostModel cm;
  cm.t_s = 1.0;
  cm.t_w = 1.0;
  cm.t_c = 1.0;
  cm.t_io = 0.0;  // isolate wire costs; I/O charging has its own tests
  return cm;
}

TEST(Group, WholeMachineIsASubcubeForPow2) {
  Machine m(8);
  const Group g = Group::whole(m);
  EXPECT_EQ(g.ranks(), (std::vector<Rank>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(g.dimension(), 3);
}

TEST(Group, WholeMachineHandlesNonPow2) {
  Machine m(6);
  const Group g = Group::whole(m);
  EXPECT_EQ(g.size(), 6);
  EXPECT_EQ(g.dimension(), 3) << "collectives round up to 3 rounds";
}

TEST(Group, BarrierAlignsClocksAndChargesIdle) {
  Machine m(4, unit_cost());
  m.charge_compute(2, 10.0);
  Group g = Group::whole(m);
  g.barrier();
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(m.clock(r), 10.0);
  }
  EXPECT_DOUBLE_EQ(m.stats(0).idle_time, 10.0);
  EXPECT_DOUBLE_EQ(m.stats(2).idle_time, 0.0);
}

TEST(Group, AllReduceSumsAndRedistributes) {
  Machine m(4, unit_cost());
  Group g = Group::whole(m);
  std::vector<std::vector<std::int64_t>> bufs(4, std::vector<std::int64_t>(3));
  for (int i = 0; i < 4; ++i) {
    bufs[static_cast<std::size_t>(i)] = {i, 2 * i, 10};
  }
  std::vector<std::int64_t*> ptrs;
  for (auto& b : bufs) ptrs.push_back(b.data());
  g.all_reduce_sum(ptrs, 3);
  for (const auto& b : bufs) {
    EXPECT_EQ(b, (std::vector<std::int64_t>{6, 12, 40}));
  }
  // Cost: (t_s + t_w * words) * log2(4), words = 3 * 8/4 = 6.
  EXPECT_DOUBLE_EQ(m.clock(0), (1.0 + 6.0) * 2);
}

TEST(Group, AllReduceHonoursExplicitWireWords) {
  Machine m(2, unit_cost());
  Group g = Group::whole(m);
  std::vector<std::int64_t> a{1}, b{2};
  const std::vector<std::int64_t*> bufs{a.data(), b.data()};
  g.all_reduce_sum(bufs, 1, /*words=*/100.0);
  EXPECT_EQ(a[0], 3);
  EXPECT_DOUBLE_EQ(m.clock(0), 1.0 + 100.0);
}

TEST(Group, SingletonCollectivesAreFree) {
  Machine m(4, unit_cost());
  Group g(m, std::vector<Rank>{2});
  g.charge_all_reduce(1000.0);
  g.charge_broadcast(1000.0);
  EXPECT_DOUBLE_EQ(m.clock(2), 0.0);
}

TEST(Group, PairwiseExchangeChargesMaxOfPair) {
  Machine m(4, unit_cost());
  Group g = Group::whole(m);
  // Members 0<->2 exchange (10 out, 4 back); 1<->3 exchange (0, 0).
  g.pairwise_exchange({10.0, 0.0, 4.0, 0.0});
  // Pair (0,2): t_s + t_w * max(10,4) = 11; pair (1,3): t_s = 1.
  // The final barrier aligns everyone to 11.
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(m.clock(r), 11.0);
  }
  EXPECT_EQ(m.stats(0).words_sent, 10u);
  EXPECT_EQ(m.stats(2).words_sent, 4u);
  EXPECT_EQ(m.stats(2).words_received, 10u);
}

TEST(Group, RecordMovesChargeLocalIo) {
  CostModel cm = unit_cost();
  cm.t_io = 2.0;
  Machine m(2, cm);
  Group g = Group::whole(m);
  g.pairwise_exchange({10.0, 4.0});
  // Each member reads what it sends and writes what it receives:
  // io = t_io * (10 + 4) = 28 on both ends.
  EXPECT_DOUBLE_EQ(m.stats(0).io_time, 28.0);
  EXPECT_DOUBLE_EQ(m.stats(1).io_time, 28.0);
  EXPECT_DOUBLE_EQ(cm.record_move_word_cost(), 1.0 + 2.0 * 2.0);
}

TEST(Group, PlanBalanceEvensCountsWithinOne) {
  const auto transfers = Group::plan_balance({10, 0, 2, 0});
  std::vector<std::int64_t> counts{10, 0, 2, 0};
  for (const Transfer& t : transfers) {
    counts[static_cast<std::size_t>(t.from)] -= t.count;
    counts[static_cast<std::size_t>(t.to)] += t.count;
    EXPECT_GT(t.count, 0);
  }
  const std::int64_t total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  EXPECT_EQ(total, 12);
  for (const auto c : counts) {
    EXPECT_EQ(c, 3);
  }
}

TEST(Group, PlanBalanceHandlesAlreadyBalanced) {
  EXPECT_TRUE(Group::plan_balance({5, 5, 5, 5}).empty());
  EXPECT_TRUE(Group::plan_balance({3}).empty());
}

TEST(Group, PlanBalanceRemainderWithinOne) {
  const std::vector<std::int64_t> counts{13, 1, 0};
  auto cur = counts;
  for (const Transfer& t : Group::plan_balance(counts)) {
    cur[static_cast<std::size_t>(t.from)] -= t.count;
    cur[static_cast<std::size_t>(t.to)] += t.count;
  }
  const auto [lo, hi] = std::minmax_element(cur.begin(), cur.end());
  EXPECT_LE(*hi - *lo, 1);
}

TEST(Group, ChargeTransfersBillsBothEnds) {
  Machine m(2, unit_cost());
  Group g = Group::whole(m);
  g.charge_transfers({Transfer{0, 1, 5}}, 2.0);
  // Each end: t_s + t_w * 10 = 11; final barrier keeps them equal.
  EXPECT_DOUBLE_EQ(m.clock(0), 11.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 11.0);
  EXPECT_EQ(m.stats(0).words_sent, 10u);
}

TEST(Group, AllToAllPersonalizedUsesMaxVolume) {
  Machine m(2, unit_cost());
  Group g = Group::whole(m);
  // Member 0 sends 10 words to 1; member 1 sends nothing.
  g.all_to_all_personalized({{0.0, 10.0}, {0.0, 0.0}});
  // Cost per member: t_s * log2(2) + t_w * max(sent, recv) = 1 + 10.
  EXPECT_DOUBLE_EQ(m.clock(0), 11.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 11.0);
}

TEST(Group, AllToAllPersonalizedRejectsBadShapes) {
  Machine m(2, unit_cost());
  Group g = Group::whole(m);
  // Wrong number of rows.
  EXPECT_THROW(g.all_to_all_personalized({{0.0, 1.0}}), std::invalid_argument);
  // Non-square row.
  EXPECT_THROW(g.all_to_all_personalized({{0.0, 1.0}, {0.0}}),
               std::invalid_argument);
  // Negative entry.
  EXPECT_THROW(g.all_to_all_personalized({{0.0, -1.0}, {0.0, 0.0}}),
               std::invalid_argument);
  // Non-finite entry.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(g.all_to_all_personalized({{0.0, nan}, {0.0, 0.0}}),
               std::invalid_argument);
  // Validation happens before any charging: the failed calls must not
  // have advanced the clocks.
  EXPECT_DOUBLE_EQ(m.clock(0), 0.0);
  EXPECT_DOUBLE_EQ(m.clock(1), 0.0);
}

TEST(Group, HalvesOfSubcube) {
  Machine m(8);
  Group g = Group::whole(m);
  const auto [a, b] = g.halves();
  EXPECT_EQ(a.ranks(), (std::vector<Rank>{0, 1, 2, 3}));
  EXPECT_EQ(b.ranks(), (std::vector<Rank>{4, 5, 6, 7}));
  EXPECT_EQ(a.dimension(), 2);
}

TEST(Group, RankListOfTwoHalvesIsASubcube) {
  // A rejoin lists the ranks of two groups one after the other; the group
  // keeps them ascending, so its halves are the two groups again.
  Machine m(8);
  const Group merged(m, std::vector<Rank>{2, 3, 0, 1});
  EXPECT_EQ(merged.ranks(), (std::vector<Rank>{0, 1, 2, 3}));
  const auto [lo, hi] = merged.halves();
  EXPECT_EQ(lo.ranks(), (std::vector<Rank>{0, 1}));
  EXPECT_EQ(hi.ranks(), (std::vector<Rank>{2, 3}));
}

TEST(Group, ExplicitRankListKeepsAnyRankSet) {
  // A recovery leaves the survivors, which need not be contiguous; the
  // group keeps them ascending and still halves the sorted list.
  Machine m(8);
  const Group scattered(m, std::vector<Rank>{5, 0, 3});
  EXPECT_EQ(scattered.ranks(), (std::vector<Rank>{0, 3, 5}));
  EXPECT_EQ(scattered.size(), 3);
  EXPECT_EQ(scattered.dimension(), 2) << "collectives round up to 2 rounds";
  const auto [lo, hi] = scattered.halves();
  EXPECT_EQ(lo.ranks(), (std::vector<Rank>{0}));
  EXPECT_EQ(hi.ranks(), (std::vector<Rank>{3, 5}));
}

TEST(Group, HalvesOfNonPow2Group) {
  Machine m(6);
  const auto [a, b] = Group::whole(m).halves();
  EXPECT_EQ(a.ranks(), (std::vector<Rank>{0, 1, 2}));
  EXPECT_EQ(b.ranks(), (std::vector<Rank>{3, 4, 5}));
  EXPECT_EQ(a.dimension(), 2);
}

TEST(Group, PairwiseExchangePartnerCrossesHighestFreeDimension) {
  // Member i pairs with member i + size/2; on an aligned subcube that is
  // rank r's partner r ^ (size/2), and the pairing is an involution.
  Machine m(16, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  const Group g(m, std::vector<Rank>{8, 9, 10, 11, 12, 13, 14, 15});
  std::vector<double> out(8);
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = i + 1.0;
  g.pairwise_exchange(out);
  for (int i = 0; i < 8; ++i) {
    const Rank r = g.rank(i);
    const Rank partner = 8 + ((r - 8) ^ 4);
    EXPECT_DOUBLE_EQ(ledger.words(r, partner), i + 1.0) << "rank " << r;
    for (Rank other = 0; other < 16; ++other) {
      if (other != partner) {
        EXPECT_DOUBLE_EQ(ledger.words(r, other), 0.0);
      }
    }
  }
  m.set_comm_ledger(nullptr);
}

class SubcubeRecursionTest : public ::testing::TestWithParam<int> {};

TEST_P(SubcubeRecursionTest, RepeatedHalvingReachesSingletons) {
  // The hybrid halves a partition until its groups are single ranks; on a
  // power-of-two machine every step yields aligned subcubes.
  const int size = GetParam();
  Machine m(size);
  std::vector<Group> groups{Group::whole(m)};
  while (groups.front().size() > 1) {
    std::vector<Group> next;
    for (const Group& g : groups) {
      auto [a, b] = g.halves();
      EXPECT_EQ(a.size(), b.size());
      EXPECT_EQ(a.rank(0) % a.size(), 0) << "aligned lower half";
      EXPECT_EQ(b.rank(0), a.rank(0) + a.size()) << "upper half follows";
      EXPECT_EQ(a.ranks().back() - a.rank(0), a.size() - 1) << "contiguous";
      next.push_back(std::move(a));
      next.push_back(std::move(b));
    }
    groups = std::move(next);
  }
  ASSERT_EQ(static_cast<int>(groups.size()), size);
  for (int i = 0; i < size; ++i) {
    EXPECT_EQ(groups[static_cast<std::size_t>(i)].rank(0), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, SubcubeRecursionTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

class AllReducePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllReducePropertyTest, ConservesTotalsAtAnyGroupSize) {
  const int p = GetParam();
  Machine m(p, unit_cost());
  Group g = Group::whole(m);
  std::vector<std::vector<std::int64_t>> bufs(
      static_cast<std::size_t>(p), std::vector<std::int64_t>(5));
  std::int64_t expect_total = 0;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < 5; ++j) {
      bufs[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          i * 7 + j;
      expect_total += i * 7 + j;
    }
  }
  std::vector<std::int64_t*> ptrs;
  for (auto& b : bufs) ptrs.push_back(b.data());
  g.all_reduce_sum(ptrs, 5);
  for (const auto& b : bufs) {
    EXPECT_EQ(std::accumulate(b.begin(), b.end(), std::int64_t{0}),
              expect_total);
    EXPECT_EQ(b, bufs.front());
  }
  // Barrier semantics: all member clocks equal after the collective.
  for (int r = 1; r < p; ++r) {
    EXPECT_DOUBLE_EQ(m.clock(r), m.clock(0));
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, AllReducePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 32));

// The per-rank traffic counters and the ledger's traffic matrix book the
// same words: a rank sends its matrix row and receives its column. Word
// volumes are whole, so the counters' integer words are exact.
class TrafficAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(TrafficAgreementTest, RankWordsMatchTheLedgerMatrix) {
  const int procs = GetParam();
  const auto check = [procs](const char* op, const auto& run) {
    SCOPED_TRACE(op);
    Machine m(procs, unit_cost());
    CommLedger ledger;
    m.set_comm_ledger(&ledger);
    run(Group::whole(m));
    run(Group(m, std::vector<Rank>{1, 2, 4, 5}));
    for (Rank r = 0; r < procs; ++r) {
      EXPECT_EQ(m.stats(r).words_sent,
                static_cast<std::uint64_t>(ledger.words_sent(r)))
          << "rank " << r;
      EXPECT_EQ(m.stats(r).words_received,
                static_cast<std::uint64_t>(ledger.words_received(r)))
          << "rank " << r;
    }
    m.set_comm_ledger(nullptr);
  };
  check("pairwise_exchange", [](const Group& g) {
    std::vector<double> out;
    for (int i = 0; i < g.size(); ++i) out.push_back((i * 5) % 7);
    g.pairwise_exchange(out);
  });
  check("charge_transfers", [](const Group& g) {
    std::vector<std::int64_t> counts;
    for (int i = 0; i < g.size(); ++i) counts.push_back((i * 13 + 4) % 17);
    g.charge_transfers(Group::plan_balance(counts), 3.0);
  });
  check("all_to_all_personalized", [](const Group& g) {
    const auto p = static_cast<std::size_t>(g.size());
    std::vector<std::vector<double>> out(p, std::vector<double>(p, 0.0));
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (i != j) out[i][j] = static_cast<double>((i * 7 + j * 3) % 11);
      }
    }
    g.all_to_all_personalized(out);
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, TrafficAgreementTest,
                         ::testing::Values(6, 8));

// Collective preconditions: every malformed call must throw
// std::invalid_argument naming the collective and the group's rank range,
// and charge nothing — a half-charged collective would corrupt the run.

TEST(GroupValidation, RejectsNonFiniteOrNegativeWordCounts) {
  Machine m(4, unit_cost());
  const Group g = Group::whole(m);
  for (const double bad :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(g.charge_all_reduce(bad), std::invalid_argument);
    EXPECT_THROW(g.charge_broadcast(bad), std::invalid_argument);
    EXPECT_THROW(g.charge_transfers({}, bad), std::invalid_argument);
  }
  try {
    g.charge_all_reduce(-1.0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("charge_all_reduce"), std::string::npos) << msg;
    EXPECT_NE(msg.find("group [0..3] of 4"), std::string::npos) << msg;
  }
  EXPECT_DOUBLE_EQ(m.max_clock(), 0.0) << "failed calls must charge nothing";
}

TEST(GroupValidation, AllReduceRequiresOneBufferPerMember) {
  Machine m(4, unit_cost());
  const Group g = Group::whole(m);
  std::vector<std::int64_t> buf(3, 0);
  const std::vector<std::int64_t*> short_list{buf.data(), buf.data()};
  EXPECT_THROW(g.all_reduce_sum(short_list, 3), std::invalid_argument);
  try {
    g.all_reduce_sum(short_list, 3);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("one buffer per member"),
              std::string::npos)
        << e.what();
  }
  EXPECT_DOUBLE_EQ(m.max_clock(), 0.0);
}

TEST(GroupValidation, PairwiseExchangeRejectsOddGroupAndShapeMismatch) {
  Machine m(4, unit_cost());
  const Group odd(m, std::vector<Rank>{0, 1, 2});
  EXPECT_THROW(odd.pairwise_exchange({1.0, 1.0, 1.0}), std::invalid_argument);
  try {
    odd.pairwise_exchange({1.0, 1.0, 1.0});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("even-sized group"),
              std::string::npos)
        << e.what();
  }
  const Group even = Group::whole(m);
  EXPECT_THROW(even.pairwise_exchange({1.0, 1.0}), std::invalid_argument)
      << "one entry per member";
  EXPECT_THROW(even.pairwise_exchange({1.0, -1.0, 1.0, 1.0}),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.max_clock(), 0.0);
}

TEST(GroupValidation, ChargeTransfersRejectsOutOfRangeEndpoints) {
  Machine m(4, unit_cost());
  const Group g = Group::whole(m);
  EXPECT_THROW(g.charge_transfers({Transfer{0, 4, 1}}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(g.charge_transfers({Transfer{-1, 2, 1}}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(g.charge_transfers({Transfer{0, 1, -5}}, 1.0),
               std::invalid_argument);
  try {
    g.charge_transfers({Transfer{0, 4, 1}}, 1.0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("charge_transfers"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0->4"), std::string::npos) << msg;
  }
  EXPECT_DOUBLE_EQ(m.max_clock(), 0.0);
}

TEST(GroupValidation, AllToAllRejectsNonSquareMatrix) {
  Machine m(2, unit_cost());
  const Group g = Group::whole(m);
  EXPECT_THROW(g.all_to_all_personalized({{0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(g.all_to_all_personalized({{0.0}, {0.0}}),
               std::invalid_argument);
  EXPECT_THROW(g.all_to_all_personalized({{0.0, -1.0}, {0.0, 0.0}}),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.max_clock(), 0.0);
}

}  // namespace
}  // namespace pdt::mpsim
