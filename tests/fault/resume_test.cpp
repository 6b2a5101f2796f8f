// Crash-restart resume: for every formulation and machine size, a run
// restarted from any intermediate durable epoch must finish with a tree
// bit-identical to the uninterrupted run's (and to the serial tree) —
// the DESIGN.md §13 acceptance criterion. Corrupt or truncated epochs
// are skipped back, never trusted; incompatible checkpoints (different
// formulation, P, seed, rows the dataset lacks, or rows that do not
// belong to their node) are a caller bug and throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ckpt.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"
#include "mpsim/fault.hpp"

namespace pdt::core {
namespace {

namespace fs = std::filesystem;

data::Dataset workload() {
  return data::discretize_uniform(
      data::quest_generate(2000, {.function = 2, .seed = 3}),
      data::quest_paper_bins());
}

fs::path scratch_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("resume_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Newest epoch file in `dir` (the one a skip-back test corrupts).
fs::path newest_epoch_file(const fs::path& dir) {
  const CheckpointStore store(dir.string(), 1000);
  const int e = store.latest_epoch();
  EXPECT_GE(e, 0);
  return store.epoch_path(e);
}

struct ResumeConfig {
  Formulation formulation;
  int procs;
  double cut_frac;  // fraction of the committed epochs to resume from
};

std::string resume_name(const ::testing::TestParamInfo<ResumeConfig>& info) {
  const ResumeConfig& c = info.param;
  std::string s = to_string(c.formulation);
  s += "_P" + std::to_string(c.procs);
  s += "_cut" + std::to_string(static_cast<int>(c.cut_frac * 100));
  return s;
}

class ResumeEquivalenceTest : public ::testing::TestWithParam<ResumeConfig> {};

TEST_P(ResumeEquivalenceTest, ResumedTreeEqualsUninterruptedTree) {
  const ResumeConfig& c = GetParam();
  const data::Dataset ds = workload();
  const fs::path dir =
      scratch_dir(resume_name({GetParam(), /*index=*/0}));

  ParOptions opt;
  opt.num_procs = c.procs;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;  // keep every epoch so any cut is resumable
  const ParResult full = build(c.formulation, ds, opt);
  const ParResult serial = build_serial(ds, ParOptions{});
  ASSERT_TRUE(full.tree.same_as(serial.tree));
  ASSERT_GT(full.recovery.durable_checkpoints, 0);
  EXPECT_GT(full.recovery.durable_bytes, 0);
  EXPECT_GT(full.recovery.durable_io_us, 0.0);

  // Resume bounded at an intermediate epoch: the loader ignores later
  // files, which is exactly the on-disk state a process killed right
  // after that epoch's commit would leave behind.
  const int last = full.recovery.durable_checkpoints - 1;
  const int cut = static_cast<int>(c.cut_frac * last);
  ParOptions ropt;
  ropt.num_procs = c.procs;
  ropt.ckpt_dir = dir.string();
  ropt.ckpt_keep = 1000;
  ropt.resume = true;
  ropt.resume_epoch = cut;
  const ParResult resumed = build(c.formulation, ds, ropt);

  EXPECT_TRUE(resumed.tree.same_as(full.tree));
  EXPECT_TRUE(resumed.tree.same_as(serial.tree));
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resume_epoch, cut);
  EXPECT_EQ(resumed.recovery.resume_skipped, 0);
  EXPECT_GT(resumed.recovery.resume_records, 0);
  EXPECT_GT(resumed.recovery.resume_io_us, 0.0);
  fs::remove_all(dir);
}

std::vector<ResumeConfig> make_resume_configs() {
  std::vector<ResumeConfig> out;
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : {4, 8}) {
      // Resume from the very first epoch, mid-run, and near the end.
      for (const double frac : {0.0, 0.5, 0.9}) {
        out.push_back({f, p, frac});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(KillAndResume, ResumeEquivalenceTest,
                         ::testing::ValuesIn(make_resume_configs()),
                         resume_name);

TEST(Resume, CorruptNewestEpochSkipsBackAndStillMatches) {
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir("corrupt_skip_back");
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build(Formulation::Sync, ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 1);

  // Tear the newest epoch mid-file: resume must reject it, fall back to
  // the previous epoch, and still grow the identical tree.
  const fs::path victim = newest_epoch_file(dir);
  std::string bytes = slurp(victim);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(victim, bytes);

  ParOptions ropt = opt;
  ropt.resume = true;
  const ParResult resumed = build(Formulation::Sync, ds, ropt);
  EXPECT_TRUE(resumed.tree.same_as(full.tree));
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resume_skipped, 1);
  // The first run committed epochs 0..n-1; the torn newest (n-1) was
  // rejected, so the resume point is the one before it.
  EXPECT_EQ(resumed.recovery.resume_epoch,
            full.recovery.durable_checkpoints - 2);
  fs::remove_all(dir);
}

TEST(Resume, TruncatedNewestEpochSkipsBack) {
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir("truncate_skip_back");
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build(Formulation::Partitioned, ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 1);

  const fs::path victim = newest_epoch_file(dir);
  spit(victim, slurp(victim).substr(0, 200));  // torn write

  ParOptions ropt = opt;
  ropt.resume = true;
  const ParResult resumed = build(Formulation::Partitioned, ds, ropt);
  EXPECT_TRUE(resumed.tree.same_as(full.tree));
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resume_skipped, 1);
  fs::remove_all(dir);
}

TEST(Resume, NoValidEpochMeansColdStartNotCrash) {
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir("all_invalid");
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build(Formulation::Hybrid, ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 0);

  // Corrupt every epoch: resume finds nothing trustworthy and starts
  // from scratch — same tree, resumed=false, every rejection counted.
  const CheckpointStore store(dir.string(), 1000);
  int epochs = 0;
  for (int e = 0; e <= store.latest_epoch(); ++e) {
    if (!fs::exists(store.epoch_path(e))) continue;
    spit(store.epoch_path(e), "pdt-ckpt-v1\nnot a checkpoint\n");
    ++epochs;
  }
  ParOptions ropt = opt;
  ropt.resume = true;
  const ParResult resumed = build(Formulation::Hybrid, ds, ropt);
  EXPECT_TRUE(resumed.tree.same_as(full.tree));
  EXPECT_FALSE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resume_skipped, epochs);
  fs::remove_all(dir);
}

TEST(Resume, ResumeOffIgnoresExistingEpochs) {
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir("resume_off");
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult first = build(Formulation::Sync, ds, opt);
  ASSERT_GT(first.recovery.durable_checkpoints, 0);
  // Same directory, resume still off: a fresh run that only writes.
  const ParResult second = build(Formulation::Sync, ds, opt);
  EXPECT_FALSE(second.recovery.resumed);
  EXPECT_TRUE(second.tree.same_as(first.tree));
  fs::remove_all(dir);
}

TEST(Resume, IncompatibleCheckpointIsACallerBugAndThrows) {
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir("incompatible");
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  (void)build(Formulation::Sync, ds, opt);

  // Valid checkpoint, wrong run: corruption is skipped silently, but a
  // compatibility mismatch must fail loudly — resuming a sync P=4 run
  // as hybrid or P=8 or a different seed would grow garbage.
  ParOptions wrong_f = opt;
  wrong_f.resume = true;
  EXPECT_THROW((void)build(Formulation::Hybrid, ds, wrong_f),
               std::runtime_error);

  ParOptions wrong_p = opt;
  wrong_p.resume = true;
  wrong_p.num_procs = 8;
  EXPECT_THROW((void)build(Formulation::Sync, ds, wrong_p),
               std::runtime_error);

  ParOptions wrong_seed = opt;
  wrong_seed.resume = true;
  wrong_seed.seed = 12345;
  EXPECT_THROW((void)build(Formulation::Sync, ds, wrong_seed),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(Resume, RowsPastTheDatasetAreRejectedBeforeAnyRead) {
  // The same schema with fewer rows: every compatibility check passes,
  // but the checkpointed frontier names rows the dataset does not have.
  // The resume must say so instead of reading past the columns.
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir("rows_past");
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  (void)build(Formulation::Sync, ds, opt);

  const data::Dataset smaller = data::discretize_uniform(
      data::quest_generate(1000, {.function = 2, .seed = 3}),
      data::quest_paper_bins());
  ParOptions ropt = opt;
  ropt.resume = true;
  ropt.resume_epoch = 1;
  try {
    (void)build(Formulation::Sync, smaller, ropt);
    ADD_FAILURE() << "expected the resume to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("of a 1000-row dataset"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(Resume, GroupListingARankTwiceIsSkippedBack) {
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir("repeated_rank");
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build(Formulation::Sync, ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 1);

  // Rewrite epoch 1 so its part lists rank 0 twice, re-rendered so that
  // every section digest is valid. Resumed, rank 0 would re-read two
  // shards and end the run with Records bytes still live.
  const fs::path victim = CheckpointStore(dir.string(), 1000).epoch_path(1);
  RunSnapshot snap;
  ASSERT_EQ(parse_ckpt(slurp(victim), &snap), "");
  ASSERT_EQ(snap.parts.size(), 1u);
  ASSERT_EQ(snap.parts[0].ranks, (std::vector<mpsim::Rank>{0, 1, 2, 3}));
  RunSnapshot parsed;
  // An idle group that repeats a rank is as corrupt; a rank that is in
  // two different groups is not (recovery's machine-wide adopter).
  snap.idle = {{1, 1}};
  EXPECT_NE(parse_ckpt(ckpt_text(snap), &parsed), "");
  snap.idle = {{0, 1}};
  EXPECT_EQ(parse_ckpt(ckpt_text(snap), &parsed), "");
  snap.idle.clear();
  // Groups keep their ranks ascending, and member m of every node is the
  // group's m-th rank, so a reordered list is as corrupt.
  snap.parts[0].ranks = {1, 0, 2, 3};
  EXPECT_NE(parse_ckpt(ckpt_text(snap), &parsed), "");
  snap.parts[0].ranks = {0, 0, 2, 3};
  const std::string bytes = ckpt_text(snap);
  EXPECT_NE(parse_ckpt(bytes, &parsed), "");
  spit(victim, bytes);

  ParOptions ropt = opt;
  ropt.resume = true;
  ropt.resume_epoch = 1;
  const ParResult resumed = build(Formulation::Sync, ds, ropt);
  EXPECT_TRUE(resumed.tree.same_as(full.tree));
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resume_skipped, 1);
  EXPECT_EQ(resumed.recovery.resume_epoch, 0);
  for (const mpsim::MemStats& m : resumed.mem) {
    EXPECT_EQ(m.live_for(mpsim::MemTag::Records), 0);
  }
  fs::remove_all(dir);
}

/// Epoch `e` of the store in `dir`, parsed.
RunSnapshot read_epoch(const fs::path& dir, int e) {
  RunSnapshot snap;
  const fs::path path = CheckpointStore(dir.string(), 1000).epoch_path(e);
  EXPECT_EQ(parse_ckpt(slurp(path), &snap), "");
  return snap;
}

/// True when some part or idle group of `snap` lists rank `r`.
bool lists_rank(const RunSnapshot& snap, mpsim::Rank r) {
  for (const CkptPart& p : snap.parts) {
    if (std::find(p.ranks.begin(), p.ranks.end(), r) != p.ranks.end()) {
      return true;
    }
  }
  for (const std::vector<mpsim::Rank>& g : snap.idle) {
    if (std::find(g.begin(), g.end(), r) != g.end()) return true;
  }
  return false;
}

struct AfterRecoveryConfig {
  Formulation formulation;
  int level;  // rank 3 fail-stops when its group enters this level
};

class ResumeAfterRecoveryTest
    : public ::testing::TestWithParam<AfterRecoveryConfig> {};

TEST_P(ResumeAfterRecoveryTest, ResumesOnTheSavedSurvivorGroups) {
  // Rank 3 fail-stops, so later epochs hold the survivor groups a
  // recovery shrank. A resume must rebuild each part on the ranks it was
  // saved with, not on the whole machine.
  const Formulation f = GetParam().formulation;
  const data::Dataset ds = workload();
  const fs::path dir =
      scratch_dir(std::string("after_recovery_") + to_string(f));
  mpsim::FaultPlan plan;
  plan.fail_stop(3, GetParam().level);
  ParOptions opt;
  opt.num_procs = 4;
  opt.fault = &plan;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build(f, ds, opt);
  const ParResult serial = build_serial(ds, ParOptions{});
  ASSERT_EQ(full.recovery.failures, 1);
  ASSERT_TRUE(full.tree.same_as(serial.tree));

  const int last = full.recovery.durable_checkpoints - 1;
  int first_after = -1;
  for (int e = 0; e <= last && first_after < 0; ++e) {
    if (!lists_rank(read_epoch(dir, e), 3)) first_after = e;
  }
  ASSERT_GE(first_after, 1) << "no epoch was saved after the recovery";
  for (const int cut : {first_after, last}) {
    ParOptions ropt;
    ropt.num_procs = 4;
    ropt.ckpt_dir = dir.string();
    ropt.ckpt_keep = 1000;
    ropt.resume = true;
    ropt.resume_epoch = cut;
    const ParResult resumed = build(f, ds, ropt);
    EXPECT_TRUE(resumed.recovery.resumed);
    EXPECT_EQ(resumed.recovery.resume_epoch, cut);
    EXPECT_EQ(dtree::model_digest(resumed.tree),
              dtree::model_digest(serial.tree))
        << "resumed from epoch " << cut;
    for (const mpsim::MemStats& m : resumed.mem) {
      EXPECT_EQ(m.live_for(mpsim::MemTag::Records), 0)
          << "resumed from epoch " << cut;
    }
  }
  fs::remove_all(dir);
}

// On this workload rank 3's partitioned partition finishes before it
// enters level 2, so there it fails at level 1.
INSTANTIATE_TEST_SUITE_P(
    EveryFormulation, ResumeAfterRecoveryTest,
    ::testing::Values(AfterRecoveryConfig{Formulation::Sync, 2},
                      AfterRecoveryConfig{Formulation::Partitioned, 1},
                      AfterRecoveryConfig{Formulation::Hybrid, 2}),
    [](const ::testing::TestParamInfo<AfterRecoveryConfig>& info) {
      return std::string(to_string(info.param.formulation));
    });

/// Resume sync P=4 from epoch 1 after `edit` rewrote its frontier (the
/// root's children), re-rendered so every section digest is valid. The
/// resume must throw naming the edited node, and `what` must appear in
/// the message.
void expect_rows_rejected(const std::string& tag,
                          void (*edit)(std::vector<NodeWork>& frontier),
                          const std::string& what) {
  const data::Dataset ds = workload();
  const fs::path dir = scratch_dir(tag);
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  (void)build(Formulation::Sync, ds, opt);

  RunSnapshot snap = read_epoch(dir, 1);
  ASSERT_EQ(snap.parts.size(), 1u);
  std::vector<NodeWork>& frontier = snap.parts[0].frontier;
  ASSERT_GE(frontier.size(), 2u);
  ASSERT_GE(frontier[0].member_records(0), 2);
  edit(frontier);
  spit(CheckpointStore(dir.string(), 1000).epoch_path(1), ckpt_text(snap));

  ParOptions ropt = opt;
  ropt.resume = true;
  ropt.resume_epoch = 1;
  try {
    (void)build(Formulation::Sync, ds, ropt);
    ADD_FAILURE() << "expected the resume to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frontier node " + std::to_string(frontier[0].node_id)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
  fs::remove_all(dir);
}

TEST(Resume, NodeMissingARowIsRejected) {
  expect_rows_rejected(
      "dropped_row",
      [](std::vector<NodeWork>& f) {
        NodeWork& nw = f[0];
        nw.rows.erase(nw.rows.begin());
        for (std::size_t m = 1; m < nw.offsets.size(); ++m) --nw.offsets[m];
      },
      "the tree counts");
}

TEST(Resume, RowListedTwiceIsRejected) {
  expect_rows_rejected(
      "duplicated_row",
      [](std::vector<NodeWork>& f) { f[0].rows[1] = f[0].rows[0]; },
      " twice");
}

TEST(Resume, RowOfAnotherNodeIsRejected) {
  expect_rows_rejected(
      "swapped_row",
      [](std::vector<NodeWork>& f) { std::swap(f[0].rows[0], f[1].rows[0]); },
      "the tree routes to node");
}

TEST(Resume, DurableCheckpointsOffByDefault) {
  const data::Dataset ds = workload();
  ParOptions opt;
  opt.num_procs = 4;
  const ParResult res = build(Formulation::Sync, ds, opt);
  EXPECT_EQ(res.recovery.durable_checkpoints, 0);
  EXPECT_EQ(res.recovery.durable_bytes, 0);
  EXPECT_FALSE(res.recovery.resumed);
}

}  // namespace
}  // namespace pdt::core
