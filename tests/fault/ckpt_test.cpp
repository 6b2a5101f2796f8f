// pdt-ckpt-v1 durability semantics: the on-disk format round-trips
// exactly, every torn/flipped/truncated byte is detected and rejected,
// the store skips back over invalid epochs instead of trusting them,
// the crash hook leaves only committed epochs behind, and AtomicFile's
// commit really is a commit (reopen sees the exact bytes, no temp
// droppings left).
#include "core/ckpt.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"
#include "obs/atomic_file.hpp"

namespace pdt::core {
namespace {

namespace fs = std::filesystem;

data::Dataset workload() {
  return data::discretize_uniform(
      data::quest_generate(500, {.function = 1, .seed = 5}),
      data::quest_paper_bins());
}

/// A fresh scratch directory under the gtest temp root, unique per test.
fs::path scratch_dir(const char* tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / tag;
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

/// A snapshot whose tree section holds a genuinely grown tree (so the
/// digest binding is the real model digest, not a toy string).
RunSnapshot sample_snapshot() {
  const data::Dataset ds = workload();
  ParOptions opt;
  const ParResult serial = build_serial(ds, opt);

  RunSnapshot snap;
  snap.formulation = "sync";
  snap.epoch = 0;
  snap.num_procs = 2;
  snap.seed = 7;
  snap.levels = 3;
  snap.partition_splits = 1;
  snap.rejoins = 2;
  snap.records_moved = 123;
  snap.histogram_words = 4567.375;
  snap.record_words = 9.0;
  snap.cost = mpsim::CostModel::sp2();
  snap.fingerprint = "g++ 13 | deadbeef+dirty | testhost";
  snap.tree_json = dtree::canonical_nodes_json(serial.tree);
  snap.tree_digest = dtree::sha256_hex(snap.tree_json);

  CkptPart part;
  part.ranks = {0, 1};
  part.acc_comm = 12.5;
  part.frontier.push_back(NodeWork{0, {0, 2, 4, 1, 3}, {0, 3, 5}, {}});
  snap.parts.push_back(part);
  snap.idle.push_back({1});
  snap.mem.resize(2);
  snap.mem[0].live_total = 640;
  snap.mem[0].peak_total = 1024;
  return snap;
}

TEST(Ckpt, TextRoundTripsExactly) {
  const RunSnapshot snap = sample_snapshot();
  const std::string text = ckpt_text(snap);

  RunSnapshot back;
  ASSERT_EQ(parse_ckpt(text, &back), "");
  EXPECT_EQ(back.formulation, snap.formulation);
  EXPECT_EQ(back.epoch, snap.epoch);
  EXPECT_EQ(back.num_procs, snap.num_procs);
  EXPECT_EQ(back.seed, snap.seed);
  EXPECT_EQ(back.levels, snap.levels);
  EXPECT_EQ(back.partition_splits, snap.partition_splits);
  EXPECT_EQ(back.rejoins, snap.rejoins);
  EXPECT_EQ(back.records_moved, snap.records_moved);
  // Exact, not approximate: hexfloat rendering must restore the bits.
  EXPECT_EQ(back.histogram_words, snap.histogram_words);
  EXPECT_EQ(back.record_words, snap.record_words);
  EXPECT_EQ(back.cost.t_s, snap.cost.t_s);
  EXPECT_EQ(back.cost.t_w, snap.cost.t_w);
  EXPECT_EQ(back.cost.t_c, snap.cost.t_c);
  EXPECT_EQ(back.cost.t_io, snap.cost.t_io);
  EXPECT_EQ(back.cost.t_timeout, snap.cost.t_timeout);
  EXPECT_EQ(back.fingerprint, snap.fingerprint);
  EXPECT_EQ(back.tree_digest, snap.tree_digest);
  EXPECT_EQ(back.tree_json, snap.tree_json);
  ASSERT_EQ(back.parts.size(), 1u);
  EXPECT_EQ(back.parts[0].ranks, snap.parts[0].ranks);
  EXPECT_EQ(back.parts[0].acc_comm, snap.parts[0].acc_comm);
  ASSERT_EQ(back.parts[0].frontier.size(), 1u);
  EXPECT_EQ(back.parts[0].frontier[0].node_id, 0);
  EXPECT_EQ(back.parts[0].frontier[0].rows, snap.parts[0].frontier[0].rows);
  EXPECT_EQ(back.parts[0].frontier[0].offsets,
            snap.parts[0].frontier[0].offsets);
  EXPECT_EQ(back.idle, snap.idle);
  ASSERT_EQ(back.mem.size(), 2u);
  EXPECT_EQ(back.mem[0].live_total, 640);
  EXPECT_EQ(back.mem[0].peak_total, 1024);
}

TEST(Ckpt, HeaderTamperIsRejected) {
  const std::string text = ckpt_text(sample_snapshot());
  RunSnapshot out;
  EXPECT_NE(parse_ckpt("pdt-ckpt-v2\n" + text.substr(text.find('\n') + 1),
                       &out),
            "");
  EXPECT_NE(parse_ckpt("", &out), "");
  EXPECT_NE(parse_ckpt("pdt-ckpt-v1\n", &out), "");
  EXPECT_NE(parse_ckpt("pdt-ckpt-v1\nepoch -3\nsections 3\n", &out), "");
  // Trailing garbage after the last section is torn-write evidence too.
  EXPECT_NE(parse_ckpt(text + "x", &out), "");
}

TEST(Ckpt, EveryByteFlipIsDetected) {
  const std::string text = ckpt_text(sample_snapshot());
  // Sampled positions across the whole file: header lines, section
  // headers, every payload. A flip anywhere must fail the parse — the
  // per-section digests leave no unauthenticated byte.
  for (std::size_t pos = 0; pos < text.size(); pos += 7) {
    std::string bad = text;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    RunSnapshot out;
    EXPECT_NE(parse_ckpt(bad, &out), "") << "flip at byte " << pos;
  }
}

TEST(Ckpt, EveryTruncationIsDetected) {
  const std::string text = ckpt_text(sample_snapshot());
  for (std::size_t len = 0; len < text.size(); len += 13) {
    RunSnapshot out;
    EXPECT_NE(parse_ckpt(text.substr(0, len), &out), "")
        << "truncated to " << len << " bytes";
  }
}

TEST(Ckpt, TreeSectionMustMatchMetaDigest) {
  // A self-consistent tree section (its own sha is fine) that does not
  // match the digest the meta section names: the cross-section binding
  // must reject it — swapping tree bytes between epochs is corruption.
  RunSnapshot snap = sample_snapshot();
  snap.tree_digest = dtree::sha256_hex("some other tree");
  RunSnapshot out;
  EXPECT_EQ(parse_ckpt(ckpt_text(snap), &out),
            "tree section does not match meta tree_digest");
}

TEST(CheckpointStore, SavePrunesToKeepAndLoadsNewest) {
  const fs::path dir = scratch_dir("ckpt_store_prune");
  CheckpointStore store(dir.string(), /*keep=*/2);
  RunSnapshot snap = sample_snapshot();
  for (int e = 0; e < 4; ++e) {
    snap.epoch = e;
    ASSERT_TRUE(store.save(snap.epoch, ckpt_text(snap)));
  }
  EXPECT_FALSE(fs::exists(store.epoch_path(0)));
  EXPECT_FALSE(fs::exists(store.epoch_path(1)));
  EXPECT_TRUE(fs::exists(store.epoch_path(2)));
  EXPECT_TRUE(fs::exists(store.epoch_path(3)));
  EXPECT_EQ(store.latest_epoch(), 3);

  RunSnapshot out;
  int skipped = -1;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, /*max_epoch=*/-1, &skipped, &err), 3);
  EXPECT_EQ(out.epoch, 3);
  EXPECT_EQ(skipped, 0);
  // Bounded resume: a max_epoch cut makes later epochs invisible — the
  // exact on-disk state a process killed right after that commit leaves.
  EXPECT_EQ(store.load_latest(&out, /*max_epoch=*/2, &skipped, &err), 2);
  EXPECT_EQ(out.epoch, 2);
}

TEST(CheckpointStore, CorruptNewestEpochIsSkippedNotTrusted) {
  const fs::path dir = scratch_dir("ckpt_store_corrupt");
  CheckpointStore store(dir.string(), /*keep=*/10);
  RunSnapshot snap = sample_snapshot();
  for (int e = 0; e < 3; ++e) {
    snap.epoch = e;
    ASSERT_TRUE(store.save(snap.epoch, ckpt_text(snap)));
  }
  // Flip one byte mid-file in the newest epoch, truncate the next one.
  std::string bytes = slurp(store.epoch_path(2));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit(store.epoch_path(2), bytes);
  spit(store.epoch_path(1), slurp(store.epoch_path(1)).substr(0, 100));

  RunSnapshot out;
  int skipped = 0;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 0);
  EXPECT_EQ(out.epoch, 0);
  EXPECT_EQ(skipped, 2);
  EXPECT_NE(err.find("ckpt-2.pdt"), std::string::npos) << err;

  // Corrupt the last survivor too: nothing validates, nothing loads —
  // and no exception either, corruption is a skip, never a crash.
  spit(store.epoch_path(0), "pdt-ckpt-v1\ngarbage");
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), -1);
  EXPECT_EQ(skipped, 3);
}

TEST(CheckpointStore, EpochFieldMustAgreeWithFileName) {
  const fs::path dir = scratch_dir("ckpt_store_rename");
  CheckpointStore store(dir.string(), /*keep=*/10);
  RunSnapshot snap = sample_snapshot();
  snap.epoch = 0;
  ASSERT_TRUE(store.save(snap.epoch, ckpt_text(snap)));
  // A valid epoch-0 file masquerading as epoch 5 (e.g. a bad manual
  // copy): internally consistent, but the store must not trust it.
  fs::copy_file(store.epoch_path(0), store.epoch_path(5));
  RunSnapshot out;
  int skipped = 0;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 0);
  EXPECT_EQ(skipped, 1);
  EXPECT_NE(err.find("disagrees"), std::string::npos) << err;
}

TEST(CheckpointStore, ManifestIsAdvisoryOnly) {
  const fs::path dir = scratch_dir("ckpt_store_manifest");
  CheckpointStore store(dir.string(), /*keep=*/10);
  RunSnapshot snap = sample_snapshot();
  snap.epoch = 0;
  ASSERT_TRUE(store.save(snap.epoch, ckpt_text(snap)));
  // Point the manifest at an epoch that does not exist: the loader must
  // glob the real files and ignore the lie entirely.
  spit(dir / "MANIFEST",
       "pdt-ckpt-manifest-v1\nlatest 99\nfile ckpt-99.pdt\n");
  RunSnapshot out;
  int skipped = 0;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 0);
  EXPECT_EQ(skipped, 0);
}

// Satellite (a): AtomicFile's commit is durable — the committed path
// reopens with the exact bytes, and neither success nor abandonment
// leaves temp files behind.
TEST(AtomicFile, CommitThenReopenSeesExactBytes) {
  const fs::path dir = scratch_dir("atomic_commit");
  const fs::path target = dir / "out.bin";
  const std::string payload = "line one\nbinary \x01\x02\x03 tail\n";
  {
    obs::AtomicFile f(target.string());
    ASSERT_TRUE(f.ok());
    f.stream().write(payload.data(),
                     static_cast<std::streamsize>(payload.size()));
    EXPECT_TRUE(f.commit());
    EXPECT_TRUE(f.commit());  // idempotent
  }
  EXPECT_EQ(slurp(target), payload);
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1);  // only the committed file, no temp droppings
}

TEST(AtomicFile, AbandonedWriteLeavesNothing) {
  const fs::path dir = scratch_dir("atomic_abandon");
  const fs::path target = dir / "out.bin";
  {
    obs::AtomicFile f(target.string());
    ASSERT_TRUE(f.ok());
    f.stream() << "never committed";
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_TRUE(fs::is_empty(dir));
}

// The ckpt_crash_epoch hook _Exit(137)s right after the named epoch
// commits — a SIGKILL stand-in. The child shares our filesystem, so the
// parent can verify exactly what a killed process leaves behind: every
// committed epoch valid, nothing after the crash epoch.
TEST(CkptCrashDeathTest, CrashAfterCommitLeavesOnlyValidEpochs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const fs::path dir = scratch_dir("ckpt_crash");
  const data::Dataset ds = workload();
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  opt.ckpt_crash_epoch = 1;
  EXPECT_EXIT((void)build(Formulation::Sync, ds, opt),
              ::testing::ExitedWithCode(137), "");

  CheckpointStore store(dir.string(), 1000);
  EXPECT_EQ(store.latest_epoch(), 1);
  RunSnapshot out;
  int skipped = -1;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 1);
  EXPECT_EQ(skipped, 0) << err;
  EXPECT_EQ(out.formulation, "sync");
  EXPECT_EQ(out.num_procs, 4);
}

}  // namespace
}  // namespace pdt::core
