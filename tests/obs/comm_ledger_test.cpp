// CommLedger unit tests: entry recording semantics for every collective,
// the measured-vs-predicted accounting convention (delta is bit-exact 0
// for the uniform-cost collectives, the trailing-barrier fold otherwise),
// traffic-matrix bookkeeping, and level tagging.
#include "mpsim/comm_ledger.hpp"

#include <gtest/gtest.h>

#include "mpsim/group.hpp"
#include "mpsim/machine.hpp"

namespace pdt::mpsim {
namespace {

CostModel unit_cost() {
  CostModel cm;
  cm.t_s = 1.0;
  cm.t_w = 1.0;
  cm.t_c = 1.0;
  cm.t_io = 0.0;
  return cm;
}

TEST(CommLedger, AllReduceRecordsEntryWithExactlyZeroDelta) {
  Machine m(4, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  g.charge_all_reduce(6.0);

  ASSERT_EQ(ledger.entries().size(), 1u);
  const CollectiveEntry& e = ledger.entries()[0];
  EXPECT_EQ(e.kind, CollectiveKind::AllReduce);
  EXPECT_EQ(e.group_size, 4);
  EXPECT_EQ(e.level, -1);
  EXPECT_DOUBLE_EQ(e.words, 6.0);
  // Per member: (t_s + t_w*6) * log2(4) = 14; 4 members.
  EXPECT_DOUBLE_EQ(e.predicted_us, 4 * 14.0);
  EXPECT_EQ(e.measured_us, e.predicted_us);  // bit-exact, not just close
  EXPECT_EQ(e.delta_us(), 0.0);
  // Recursive doubling on 4 members: 2 rounds x 4 sends.
  EXPECT_EQ(e.messages, 8u);
}

TEST(CommLedger, BroadcastRecordsBinomialTreeTraffic) {
  Machine m(4, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  g.charge_broadcast(10.0);

  ASSERT_EQ(ledger.entries().size(), 1u);
  const CollectiveEntry& e = ledger.entries()[0];
  EXPECT_EQ(e.kind, CollectiveKind::Broadcast);
  EXPECT_EQ(e.delta_us(), 0.0);
  // Binomial tree on 4: 0->1, then 0->2 and 1->3.
  EXPECT_EQ(e.messages, 3u);
  EXPECT_DOUBLE_EQ(ledger.words(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(ledger.words(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(ledger.words(1, 3), 10.0);
  EXPECT_DOUBLE_EQ(ledger.words(1, 0), 0.0);
}

TEST(CommLedger, PairwiseExchangeDeltaIsTheBarrierFold) {
  Machine m(4, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  // Pair (0,2): t_s + t_w*max(10,4) = 11. Pair (1,3): t_s = 1.
  g.pairwise_exchange({10.0, 0.0, 4.0, 0.0});

  ASSERT_EQ(ledger.entries().size(), 1u);
  const CollectiveEntry& e = ledger.entries()[0];
  EXPECT_EQ(e.kind, CollectiveKind::PairwiseExchange);
  EXPECT_DOUBLE_EQ(e.words, 14.0);
  // predicted = sum of per-member charges = 2*11 + 2*1 = 24;
  // measured = every member pays the heaviest pair = 4*11 = 44.
  EXPECT_DOUBLE_EQ(e.predicted_us, 24.0);
  EXPECT_DOUBLE_EQ(e.measured_us, 44.0);
  EXPECT_DOUBLE_EQ(e.delta_us(), 20.0);
  EXPECT_DOUBLE_EQ(ledger.words(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(ledger.words(2, 0), 4.0);
}

TEST(CommLedger, EquallyLoadedPairwiseExchangeHasZeroDelta) {
  Machine m(2, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  g.pairwise_exchange({7.0, 7.0});
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.entries()[0].delta_us(), 0.0);
}

TEST(CommLedger, TransfersRecordEndpointsAndFold) {
  Machine m(4, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  g.charge_transfers({Transfer{0, 1, 5}, Transfer{2, 3, 1}}, 2.0);

  ASSERT_EQ(ledger.entries().size(), 1u);
  const CollectiveEntry& e = ledger.entries()[0];
  EXPECT_EQ(e.kind, CollectiveKind::Transfers);
  EXPECT_DOUBLE_EQ(e.words, 12.0);
  // Member costs: 0 and 1 pay t_s + t_w*10 = 11; 2 and 3 pay 1 + 2 = 3.
  EXPECT_DOUBLE_EQ(e.predicted_us, 2 * 11.0 + 2 * 3.0);
  EXPECT_DOUBLE_EQ(e.measured_us, 4 * 11.0);
  EXPECT_EQ(e.messages, 2u);
  EXPECT_DOUBLE_EQ(ledger.words(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(ledger.words(2, 3), 2.0);
  EXPECT_EQ(ledger.messages(0, 1), 1u);
}

TEST(CommLedger, EmptyTransferPlanRecordsNothing) {
  Machine m(4, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  g.charge_transfers({}, 2.0);
  EXPECT_TRUE(ledger.entries().empty());
}

TEST(CommLedger, AllToAllRecordsOffDiagonalTraffic) {
  Machine m(2, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  g.all_to_all_personalized({{0.0, 10.0}, {0.0, 0.0}});

  ASSERT_EQ(ledger.entries().size(), 1u);
  const CollectiveEntry& e = ledger.entries()[0];
  EXPECT_EQ(e.kind, CollectiveKind::AllToAll);
  // Member volumes: max(10,0)=10 and max(0,10)=10, so both pay
  // t_s*log2(2) + t_w*10 = 11 — symmetric, hence no fold penalty.
  EXPECT_DOUBLE_EQ(e.predicted_us, 22.0);
  EXPECT_EQ(e.delta_us(), 0.0);
  EXPECT_EQ(e.messages, 1u);
  EXPECT_DOUBLE_EQ(ledger.words(0, 1), 10.0);
}

TEST(CommLedger, LevelScopeStampsEntries) {
  Machine m(2, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  {
    LedgerLevelScope level(&ledger, 3);
    g.charge_all_reduce(1.0);
    {
      LedgerLevelScope inner(&ledger, 4);
      g.charge_all_reduce(1.0);
    }
    g.charge_all_reduce(1.0);
  }
  g.charge_all_reduce(1.0);
  ASSERT_EQ(ledger.entries().size(), 4u);
  EXPECT_EQ(ledger.entries()[0].level, 3);
  EXPECT_EQ(ledger.entries()[1].level, 4);
  EXPECT_EQ(ledger.entries()[2].level, 3);
  EXPECT_EQ(ledger.entries()[3].level, -1);
  EXPECT_EQ(ledger.max_level(), 4);
  EXPECT_EQ(ledger.level_totals(3).calls, 2u);
  EXPECT_EQ(ledger.level_totals(4).calls, 1u);
  // A null ledger scope is a safe no-op.
  { LedgerLevelScope noop(nullptr, 9); }
}

TEST(CommLedger, KindTotalsAggregate) {
  Machine m(2, unit_cost());
  CommLedger ledger;
  m.set_comm_ledger(&ledger);
  Group g = Group::whole(m);
  g.charge_all_reduce(2.0);
  g.charge_all_reduce(3.0);
  g.charge_broadcast(1.0);
  const CommLedger::Totals ar = ledger.kind_totals(CollectiveKind::AllReduce);
  EXPECT_EQ(ar.calls, 2u);
  EXPECT_DOUBLE_EQ(ar.words, 5.0);
  EXPECT_EQ(ledger.kind_totals(CollectiveKind::Broadcast).calls, 1u);
  EXPECT_EQ(ledger.kind_totals(CollectiveKind::AllToAll).calls, 0u);
}

TEST(CommLedger, TotalsCarryRetryCostPerKindAndLevel) {
  CommLedger ledger;
  const auto entry = [](CollectiveKind kind, std::uint64_t retries,
                        Time retry_us, Time io_us) {
    CollectiveEntry e;
    e.kind = kind;
    e.words = 2.0;
    e.predicted_us = 10.0;
    e.measured_us = 12.5;
    e.io_us = io_us;
    e.retries = retries;
    e.retry_us = retry_us;
    e.messages = 3;
    return e;
  };
  ledger.set_level(1);
  ledger.record(entry(CollectiveKind::Transfers, 4, 600.0, 1.5));
  ledger.record(entry(CollectiveKind::AllReduce, 0, 0.0, 0.0));
  ledger.set_level(2);
  ledger.record(entry(CollectiveKind::Transfers, 1, 40.0, 0.5));

  const CommLedger::Totals tr = ledger.kind_totals(CollectiveKind::Transfers);
  EXPECT_EQ(tr.calls, 2u);
  EXPECT_EQ(tr.retries, 5u);
  EXPECT_DOUBLE_EQ(tr.retry_us, 640.0);
  EXPECT_DOUBLE_EQ(tr.io_us, 2.0);
  EXPECT_EQ(tr.messages, 6u);
  EXPECT_DOUBLE_EQ(tr.delta_us(), 5.0);
  EXPECT_EQ(ledger.kind_totals(CollectiveKind::AllReduce).retries, 0u);

  const CommLedger::Totals one = ledger.level_totals(1);
  EXPECT_EQ(one.calls, 2u);
  EXPECT_EQ(one.retries, 4u);
  EXPECT_DOUBLE_EQ(one.retry_us, 600.0);
  EXPECT_DOUBLE_EQ(one.words, 4.0);
  EXPECT_EQ(ledger.level_totals(2).retries, 1u);
  EXPECT_EQ(ledger.max_level(), 2);
}

TEST(CommLedger, EnsureRanksGrowsPreservingCounts) {
  CommLedger ledger;
  ledger.add_traffic(0, 1, 5.0);
  EXPECT_EQ(ledger.num_ranks(), 2);
  ledger.add_traffic(3, 0, 7.0);  // auto-grow to 4 ranks
  EXPECT_EQ(ledger.num_ranks(), 4);
  EXPECT_DOUBLE_EQ(ledger.words(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(ledger.words(3, 0), 7.0);
  EXPECT_DOUBLE_EQ(ledger.words_sent(0), 5.0);
  EXPECT_DOUBLE_EQ(ledger.words_received(0), 7.0);
}

TEST(CommLedger, RecordingNeverChangesSimulatedTime) {
  Machine plain(4, unit_cost());
  Machine instrumented(4, unit_cost());
  CommLedger ledger;
  instrumented.set_comm_ledger(&ledger);
  for (Machine* m : {&plain, &instrumented}) {
    m->charge_compute(1, 13.0);
    Group g = Group::whole(*m);
    g.charge_all_reduce(6.0);
    g.pairwise_exchange({3.0, 0.0, 9.0, 0.0});
    g.charge_transfers({Transfer{0, 3, 2}}, 1.0);
    g.all_to_all_personalized({{0.0, 1.0, 2.0, 3.0},
                               {1.0, 0.0, 1.0, 0.0},
                               {0.0, 0.0, 0.0, 4.0},
                               {2.0, 2.0, 2.0, 0.0}});
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(plain.clock(r), instrumented.clock(r)) << "rank " << r;
  }
  EXPECT_GE(ledger.entries().size(), 4u);
}

}  // namespace
}  // namespace pdt::mpsim
