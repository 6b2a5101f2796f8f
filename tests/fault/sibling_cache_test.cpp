// The sibling-subtraction cache under faults. A fail-stop in the middle
// of a level can strike after the host pass has already subtracted from
// (or consumed) parent tables, so recovery must drop the cache: the retried
// level then accumulates from rows, and derivation picks up again at the
// next level. A resume from pdt-ckpt-v1 starts with an empty cache (the
// cache is never checkpointed) and falls back to accumulation the same
// way.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/ckpt.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"
#include "mpsim/fault.hpp"

namespace pdt::core {
namespace {

namespace fs = std::filesystem;

data::Dataset workload() {
  return data::discretize_uniform(
      data::quest_generate(2000, {.function = 2, .seed = 3}),
      data::quest_paper_bins());
}

/// SHA-256 over every epoch file in `dir`, in epoch order, each
/// re-serialized with its fingerprint (build and host provenance)
/// cleared, so the digest pins the checkpoint bytes on any machine.
std::string epochs_digest(const fs::path& dir) {
  const CheckpointStore store(dir.string(), 1000);
  std::string all;
  for (int e = 0; e <= store.latest_epoch(); ++e) {
    std::ifstream in(store.epoch_path(e), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    RunSnapshot snap;
    EXPECT_EQ(parse_ckpt(bytes.str(), &snap), "") << "epoch " << e;
    snap.fingerprint.clear();
    all += ckpt_text(snap);
  }
  return dtree::sha256_hex(all);
}

/// Tables a synchronous run derives from parents at depth >= `from`: one
/// per internal node there (the default depth limit never binds here).
std::int64_t derivable_from(const dtree::Tree& tree, int from) {
  std::int64_t n = 0;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.node(id).is_leaf() && tree.node(id).depth >= from) ++n;
  }
  return n;
}

class SiblingCacheFailStop : public ::testing::TestWithParam<Formulation> {};

TEST_P(SiblingCacheFailStop, MidLevelFailureClearsAndDerivationResumes) {
  const data::Dataset ds = workload();
  const std::string want =
      dtree::model_digest(dtree::grow_bfs(ds, ParOptions{}.grow));
  constexpr int kLevel = 3;

  // One node per chunk: the victim's first charge throws after the host
  // pass has filled chunk 0's table from a live parent entry, with the
  // rest of the level not yet visited.
  ParOptions opt;
  opt.num_procs = 4;
  opt.comm_buffer_nodes = 1;
  const ParResult fault_free = build(GetParam(), ds, opt);
  mpsim::FaultPlan plan;
  plan.fail_stop(/*rank=*/2, kLevel);
  opt.fault = &plan;
  const ParResult res = build(GetParam(), ds, opt);

  EXPECT_EQ(dtree::model_digest(res.tree), want);
  EXPECT_EQ(res.parent_tables_left, 0);
  EXPECT_GT(res.derived_histograms, 0);
  if (GetParam() == Formulation::Sync) {
    ASSERT_EQ(res.recovery.failures, 1);
    // The retried level accumulates every node; every later level
    // derives one table per split again.
    EXPECT_GE(res.derived_histograms, derivable_from(res.tree, kLevel));
    EXPECT_EQ(fault_free.derived_histograms, derivable_from(res.tree, 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Formulations, SiblingCacheFailStop,
                         ::testing::Values(Formulation::Sync,
                                           Formulation::Partitioned,
                                           Formulation::Hybrid),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SiblingCacheResume, EmptyCacheFallsBackToAccumulation) {
  const data::Dataset ds = workload();
  const fs::path dir = fs::path(::testing::TempDir()) / "sibling_cache_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build_sync(ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 4);
  const std::string full_digest = epochs_digest(dir);

  // The synchronous run commits one epoch per level, so epoch `cut` holds
  // the frontier at depth `cut`: its parents' tables died with the process.
  constexpr int kCut = 3;
  ParOptions ropt = opt;
  ropt.resume = true;
  ropt.resume_epoch = kCut;
  const ParResult resumed = build_sync(ds, ropt);

  ASSERT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(dtree::model_digest(resumed.tree), dtree::model_digest(full.tree));
  EXPECT_EQ(full.derived_histograms, derivable_from(full.tree, 0));
  EXPECT_EQ(resumed.derived_histograms, derivable_from(full.tree, kCut));
  EXPECT_EQ(resumed.parent_tables_left, 0);
  // The cache is not run state: the epochs of the warm uninterrupted run
  // and those the cold resumed run appends are the bytes recorded before
  // sibling subtraction existed.
  EXPECT_EQ(full_digest,
            "99a147589b0f795ffe2fee3377a471ed29a40da19beee9931271e8bdfdd967a2");
  EXPECT_EQ(epochs_digest(dir),
            "c4d40e68276296cdceeeb9b20bb8e16f6727eeba4334a6f37321980cc1953111");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pdt::core
