// Row-order goldens. A pdt-ckpt-v1 epoch holds every frontier node's row
// list for every member, in the order the member stores it, so the
// SHA-256 over every epoch a build commits pins the row order of the
// distributed store at every level: initial distribution, partitioning,
// the hybrid's moving and balancing phases, the partitioned formulation's
// shuffles, and a resume from a mid-build epoch. A change to how rows are
// stored or routed must keep these bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "core/ckpt.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/sha256.hpp"

namespace pdt::core {
namespace {

namespace fs = std::filesystem;

enum class Setup { Binned, KMeans };

const char* to_string(Setup s) {
  return s == Setup::Binned ? "binned" : "kmeans";
}

data::Dataset dataset(Setup s) {
  data::Dataset raw = data::quest_generate(20000, {.function = 2, .seed = 7});
  if (s == Setup::KMeans) return raw;
  return data::discretize_uniform(raw, data::quest_paper_bins());
}

ParOptions options(Setup s, int procs, const fs::path& dir) {
  ParOptions opt;
  if (s == Setup::KMeans) {
    opt.grow.cont_split = dtree::ContSplit::KMeans;
    opt.grow.cont_bins = 32;
    opt.grow.per_node_bins = 8;
  }
  opt.num_procs = procs;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 100000;
  return opt;
}

/// SHA-256 over every epoch file in `dir`, in epoch order, each
/// re-serialized with its fingerprint (build and host provenance)
/// cleared, so the digest pins the checkpoint bytes on any machine.
std::string epochs_digest(const fs::path& dir) {
  const CheckpointStore store(dir.string(), 100000);
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

using Config = std::tuple<Setup, Formulation, int>;

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const auto [s, f, procs] = info.param;
  return std::string(to_string(s)) + "_" + core::to_string(f) + "_P" +
         std::to_string(procs);
}

struct Golden {
  const char* full;     ///< every epoch of the uninterrupted build
  const char* resumed;  ///< plus the epochs a mid-build resume appends
};

const std::map<std::string, Golden>& goldens() {
  static const std::map<std::string, Golden> g = {
      {"binned_synchronous_P3",
       {"337fad418a8ebbc73b957ffbafcbe75167cb84646b0543af9c5879ced9eff89d",
        "e6db6a0e759a5aa3bea1e64f61564fbf9fa0536299e1862ce262eeac300ed67c"}},
      {"binned_synchronous_P16",
       {"556e86d39b0572aee0920567621a53ea7558fb5a4202731792ff532dfea68723",
        "35d716b286e1aa911a5e770a6e4313fe805f885ce05b2c84e5697651756b4369"}},
      {"binned_partitioned_P3",
       {"cfd3af4ded30b70ae9aef6107b164979cbd52c038671cdce86f767b28a00b30d",
        "667ba2333ee6367f23cf395121f5ff21cfd86b55b7190534f185c81aa5acebf1"}},
      {"binned_partitioned_P16",
       {"c27001c3176e8a4d4d482d81dea36be2b2d2cb441894ac3768c58abd872f333e",
        "32216d770bb9aa059860bd7424dd8a0aa6b72457cd183f3182ceaf60f23549a6"}},
      {"binned_hybrid_P3",
       {"83615c1f9d4e9f8f89d0e7a2638b2f226d8650f6d9791908a0ae99f468bd72da",
        "f74e5016d61fda3ca21b3db0d8c78899208c4b5e35bf3b04b0af8813741139b2"}},
      {"binned_hybrid_P16",
       {"f157248516d5b7fff65479a2c79746221dbfc4ae0794d1c3d4c0865d3b9dd2f1",
        "1d3fcae88da76a07c8d7dac35bd25e423ddc75035854f8698458fb66df7e4f58"}},
      {"kmeans_synchronous_P3",
       {"715e53f4b6d1a22729934d5ad859cffa8feafc25172c619b8e3797211480de79",
        "39f6e0b8431a704f2b72932f248a377534d1967a2ba69e55724b56c4361169ca"}},
      {"kmeans_synchronous_P16",
       {"a672f29eb45d305cdfb96b134fa30ec786371655e5fa0b2acfa77574ed4f646f",
        "1e7836d4d7c27e2143907edbc91a34919d5f19285c1832e8c656a06c0f865486"}},
      {"kmeans_partitioned_P3",
       {"5c53d6a9fad746cf981d0a849cd7229b8a8523a69b02b80ef17fef7c45d877b8",
        "60fbeae2a88926ebf25515e789e36e35d656e2bd6d483cd4d0167e7437fdeda5"}},
      {"kmeans_partitioned_P16",
       {"0f9c3265c932520ca6ce036da68d7dbd2fa5ffa4fc6e4e293df56c819ff7f041",
        "5321dd6d15adadaf23cba94bf9d816dc42642741fefbf8363e7ccbd0d316064c"}},
      {"kmeans_hybrid_P3",
       {"ae2acbbef75abd851d30538e1c33a654e869f0924dbbff6c04e6a774490d80ec",
        "02cb37cf203fb0b79593e54f364388bb40ecfab1dae04071312cd091000cfaa9"}},
      {"kmeans_hybrid_P16",
       {"d39ae66efbb13f439c437740fe0b45439967033f08fb7bfda9dd3efe5568a92c",
        "94fd1d05208d1a227a3b3d6eece860f134ee5e6ac4465713388536f948140970"}},
  };
  return g;
}

class RowOrderGolden : public ::testing::TestWithParam<Config> {};

TEST_P(RowOrderGolden, CheckpointEpochBytes) {
  const auto [s, f, procs] = GetParam();
  const std::string name = config_name({GetParam(), /*index=*/0});
  const fs::path dir = fs::path(::testing::TempDir()) / ("row_order_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const data::Dataset ds = dataset(s);

  const ParOptions opt = options(s, procs, dir);
  const ParResult full = build(f, ds, opt);
  ASSERT_GT(full.recovery.durable_checkpoints, 4);
  const std::string full_digest = epochs_digest(dir);

  // Resume from the middle epoch: the frontier comes back from the file
  // and the build appends its own epochs after the newest on disk.
  ParOptions ropt = opt;
  ropt.resume = true;
  ropt.resume_epoch = full.recovery.durable_checkpoints / 2;
  const ParResult resumed = build(f, ds, ropt);
  ASSERT_TRUE(resumed.recovery.resumed);
  EXPECT_TRUE(resumed.tree.same_as(full.tree));
  const std::string resumed_digest = epochs_digest(dir);
  fs::remove_all(dir);

  const auto it = goldens().find(name);
  ASSERT_NE(it, goldens().end())
      << "{\"" << name << "\", {\"" << full_digest << "\", \""
      << resumed_digest << "\"}},";
  EXPECT_EQ(full_digest, it->second.full);
  EXPECT_EQ(resumed_digest, it->second.resumed);
}

INSTANTIATE_TEST_SUITE_P(
    Formulations, RowOrderGolden,
    ::testing::Combine(::testing::Values(Setup::Binned, Setup::KMeans),
                       ::testing::Values(Formulation::Sync,
                                         Formulation::Partitioned,
                                         Formulation::Hybrid),
                       ::testing::Values(3, 16)),
    config_name);

}  // namespace
}  // namespace pdt::core
