// Unit tests for the wall-clock side of the observability layer: the
// HostProfiler's scope-transition attribution against a deterministic
// fake clock, the bound on how often it reads that clock, the
// monotonicity/overhead bound of the production clock, and the
// crash-safe AtomicFile writer every JSON exporter goes through
// (including same-process writers racing on distinct and on equal
// paths, the tests the TSan CI job relies on).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/atomic_file.hpp"
#include "obs/host_clock.hpp"
#include "mpsim/machine.hpp"
#include "obs/host_profiler.hpp"
#include "obs/observability.hpp"
#include "obs/phase.hpp"

namespace pdt::obs {
namespace {

// Deterministic clock: hands out the scripted timestamps in order,
// repeats the last one when the script runs dry, and counts its reads.
class FakeClock final : public HostClock {
 public:
  explicit FakeClock(std::vector<std::int64_t> times)
      : times_(std::move(times)) {}
  std::int64_t now_ns() override {
    ++reads_;
    const std::int64_t t = times_[next_];
    if (next_ + 1 < times_.size()) ++next_;
    return t;
  }
  const char* name() const override { return "fake"; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }

 private:
  std::vector<std::int64_t> times_;
  std::size_t next_ = 0;
  std::uint64_t reads_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Clock reads of one run with a phase scope around `charges` machine
// charges and a level scope inside it: the charges go through the real
// Observability fanout, which must never reach the host profiler.
std::uint64_t clock_reads_for(int charges) {
  FakeClock clock({0});
  Observability o;
  const HostProfiler& h = o.enable_host_profiler(&clock);
  mpsim::Machine m(2);
  o.attach(m);
  {
    const PhaseScope phase(&o.profiler(), "histogram");
    const LevelScope level(&o.profiler(), 0);
    for (int i = 0; i < charges; ++i) m.charge_compute(i & 1, 1.0);
  }
  // Four transitions: open, set_level, level restore, close. The first
  // only anchors the chain.
  EXPECT_EQ(h.samples(), 3u);
  EXPECT_EQ(o.profiler().phase_totals(1, 0).charges,
            static_cast<std::uint64_t>(charges));
  return clock.reads();
}

TEST(HostProfiler, ClockReadsCountTransitionsNotCharges) {
  const std::uint64_t one = clock_reads_for(1);
  EXPECT_EQ(one, 4u) << "one read per scope or level transition";
  EXPECT_LE(clock_reads_for(10000), one)
      << "charges inside a scope must not read the host clock";
}

TEST(HostProfiler, NestedScopesBillSelfTimeAndCellsSumToTotal) {
  FakeClock clock({100, 130, 180, 260, 300, 1000});
  PhaseProfiler stamps;
  HostProfiler h(&stamps, &clock);
  stamps.set_host_sink(&h);
  EXPECT_STREQ(h.clock_name(), "fake");
  EXPECT_EQ(h.stamps(), &stamps);
  {
    const PhaseScope outer(&stamps, "split-eval");  // t=100: anchor only
    EXPECT_EQ(h.total_ns(), 0);
    EXPECT_EQ(h.samples(), 0u);
    {
      const LevelScope level(&stamps, 3);            // t=130: 30 outer@-1
      const PhaseScope inner(&stamps, "histogram");  // t=180: 50 outer@3
    }  // inner close t=260: 80 inner@3; level restore t=300: 40 outer@3
  }    // outer close t=1000: 700 outer@-1
  EXPECT_EQ(clock.reads(), 6u);
  EXPECT_EQ(h.samples(), 5u);
  EXPECT_EQ(h.total_ns(), 1000 - 100) << "last transition minus the first";

  const PhaseId outer = 1;  // interned first after phase 0
  const PhaseId inner = 2;
  const std::vector<HostProfiler::Row> rows = h.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].phase, outer);
  EXPECT_EQ(rows[0].level, kNoLevel);
  EXPECT_EQ(rows[0].totals.ns, 730);
  EXPECT_EQ(rows[0].totals.samples, 2u);
  EXPECT_EQ(rows[1].phase, outer);
  EXPECT_EQ(rows[1].level, 3);
  EXPECT_EQ(rows[1].totals.ns, 90);
  EXPECT_EQ(rows[2].phase, inner);
  EXPECT_EQ(rows[2].level, 3);
  EXPECT_EQ(rows[2].totals.ns, 80);
  std::int64_t sum = 0;
  for (const HostProfiler::Row& row : rows) sum += row.totals.ns;
  EXPECT_EQ(sum, h.total_ns()) << "cells must sum exactly to total_ns";

  // The parent keeps only its self time: the nested histogram's 80 ns
  // are not in split-eval's total.
  EXPECT_EQ(h.phase_totals(outer, 0, /*any_level=*/true).ns, 820);
  EXPECT_EQ(h.phase_totals(inner, 3).ns, 80);
  EXPECT_EQ(h.phase_totals(inner, kNoLevel).ns, 0);
  EXPECT_EQ(h.num_phases(), 3);
}

TEST(HostProfiler, BackwardsClockClampsToZeroInsteadOfGoingNegative) {
  FakeClock clock({1000, 400, 500});
  HostProfiler h(nullptr, &clock);
  EXPECT_EQ(h.clamped(), 0u);
  h.on_transition(0, kNoLevel);  // anchor at 1000
  h.on_transition(0, kNoLevel);  // clock "went back" to 400
  EXPECT_EQ(h.total_ns(), 0) << "negative intervals must clamp, not wrap";
  // The anomaly is observable, not silent: pdt-host-v1 surfaces this
  // count.
  EXPECT_EQ(h.clamped(), 1u);
  h.on_transition(0, kNoLevel);  // 400 -> 500
  EXPECT_EQ(h.total_ns(), 100);
  EXPECT_EQ(h.clamped(), 1u) << "a forward step must not count as clamped";
  EXPECT_EQ(h.clamped(), 1u);
  EXPECT_EQ(h.total_ns(), 100);
}

TEST(HostProfiler, SteadyClockIsMonotonicAndCheap) {
  SteadyHostClock clock;
  std::int64_t prev = clock.now_ns();
  EXPECT_GT(prev, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t now = clock.now_ns();
    ASSERT_GE(now, prev);
    prev = now;
  }

  // Overhead bound: attributing 100k transitions must stay far below the
  // budget of a single bench run (generous 1ms/sample ceiling would be
  // absurd; require < 2us average, ~100x the typical clock_gettime cost,
  // so the test never flakes on a loaded CI box).
  HostProfiler h(nullptr, &clock);
  const std::int64_t t0 = clock.now_ns();
  constexpr int kCharges = 100000;
  for (int i = 0; i < kCharges; ++i) {
    h.on_transition(i & 7, kNoLevel);
  }
  const std::int64_t elapsed = clock.now_ns() - t0;
  EXPECT_LT(elapsed / kCharges, 2000) << "per-transition overhead too high";
  // The profiler saw the whole interval chain: its own account of the
  // loop cannot exceed the wall time around it.
  EXPECT_LE(h.total_ns(), elapsed);
  EXPECT_EQ(h.samples(), static_cast<std::uint64_t>(kCharges - 1));
}

TEST(AtomicFile, CommitPublishesAndAbandonLeavesNothing) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/atomic_file_test.json";
  std::filesystem::remove(path);

  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "{\"a\": 1}\n";
    // Not committed yet: the target must not exist.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(f.commit());
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_TRUE(f.commit()) << "commit is idempotent";
  }
  {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"a\": 1}\n");
  }

  // Abandoned writer: destructor removes the temp, target is untouched.
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "partial garbage";
  }
  {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"a\": 1}\n") << "abandoning must not clobber";
  }
  // No stray temp files left behind.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().string().find(path + ".tmp"), std::string::npos)
        << "leftover temp file: " << e.path();
  }
  std::filesystem::remove(path);
}

TEST(AtomicFile, MissingTargetDirectoryFailsCleanly) {
  // AtomicFile does not create directories — that is the writer's job
  // (bench_util::json_dir() pre-creates PDT_JSON_DIR). A missing parent
  // must surface as ok()==false, not a crash or a stray file.
  const std::string missing =
      ::testing::TempDir() + "/no_such_dir_atomic/sub/x.json";
  AtomicFile f(missing);
  EXPECT_FALSE(f.ok());
  f.stream() << "into the void";  // null sink: must not throw
  EXPECT_FALSE(f.commit());
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(AtomicFile, OverwriteReplacesContentOnlyOnCommit) {
  const std::string path = ::testing::TempDir() + "/atomic_overwrite.json";
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "old";
    ASSERT_TRUE(f.commit());
  }
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "new and longer";
    // Until commit, readers still see the previous artifact whole.
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "old");
    ASSERT_TRUE(f.commit());
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "new and longer");
  std::filesystem::remove(path);
}

TEST(AtomicFile, AbandonAfterPartialWriteLeavesNoTrace) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/atomic_abandon_fresh.json";
  std::filesystem::remove(path);
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "{\"truncated\": ";
    // Scope exit without commit(): the destructor must clean up.
  }
  EXPECT_FALSE(std::filesystem::exists(path))
      << "abandon must not publish a torn artifact";
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().string().find(path + ".tmp"), std::string::npos)
        << "leftover temp file: " << e.path();
  }
}

TEST(StressConcurrency, AtomicFileConcurrentWritersOnDistinctPaths) {
  const std::string dir = ::testing::TempDir();
  constexpr int kWriters = 4;
  std::vector<std::string> paths;
  for (int i = 0; i < kWriters; ++i) {
    paths.push_back(dir + "/stress_distinct_" + std::to_string(i) + ".json");
    std::filesystem::remove(paths.back());
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  // NOT vector<bool>: adjacent elements must be distinct memory
  // locations so the concurrent per-writer stores don't race.
  std::array<bool, kWriters> ok{};
  for (int i = 0; i < kWriters; ++i) {
    pool.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      AtomicFile f(paths[static_cast<std::size_t>(i)]);
      if (!f.ok()) return;
      f.stream() << "{\"writer\": " << i << "}\n";
      ok[static_cast<std::size_t>(i)] = f.commit();
    });
  }
  go.store(true);
  for (std::thread& t : pool) t.join();
  for (int i = 0; i < kWriters; ++i) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(i)]) << paths[i];
    EXPECT_EQ(read_file(paths[static_cast<std::size_t>(i)]),
              "{\"writer\": " + std::to_string(i) + "}\n");
    std::filesystem::remove(paths[static_cast<std::size_t>(i)]);
  }
}

TEST(StressConcurrency, AtomicFileRacingSamePathLastRenameWinsNoTornFile) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/stress_same_path.json";
  std::filesystem::remove(path);

  // Two large, distinguishable payloads: any interleaving of the two
  // writers into one temp file would produce a mixed or truncated body.
  const std::string payload_a(1 << 20, 'a');
  const std::string payload_b(1 << 20, 'b');

  std::atomic<bool> go{false};
  const auto writer = [&](const std::string& payload, bool* committed) {
    while (!go.load()) std::this_thread::yield();
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << payload;
    *committed = f.commit();
  };
  bool a_ok = false;
  bool b_ok = false;
  std::thread ta(writer, payload_a, &a_ok);
  std::thread tb(writer, payload_b, &b_ok);
  go.store(true);
  ta.join();
  tb.join();
  EXPECT_TRUE(a_ok);
  EXPECT_TRUE(b_ok);

  // Last rename wins with a COMPLETE file — all one writer's bytes.
  const std::string final = read_file(path);
  EXPECT_TRUE(final == payload_a || final == payload_b)
      << "torn file: " << final.size() << " bytes, first char '"
      << (final.empty() ? '?' : final[0]) << "'";

  // Neither writer leaked a temp file.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().string().find(path + ".tmp"), std::string::npos)
        << "leftover temp file: " << e.path();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pdt::obs
