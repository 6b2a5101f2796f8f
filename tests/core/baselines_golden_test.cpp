// Baseline goldens. The related-work baselines (vertical and host-worker)
// are pinned to the values they produced before their row store was last
// rewritten: the virtual parallel time as exact bits, every rank's
// RankStats and MemStats (live and peak bytes per tag), the records moved,
// the histogram words and the model digest. A change to how the baselines
// store, histogram or route their rows must keep every one of them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "core/baselines.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"

namespace pdt::core {
namespace {

enum class Setup { Binned, KMeans };
enum class Scheme { Vertical, HostWorker };

data::Dataset dataset(Setup s) {
  data::Dataset raw = data::quest_generate(20000, {.function = 2, .seed = 7});
  if (s == Setup::KMeans) return raw;
  return data::discretize_uniform(raw, data::quest_paper_bins());
}

ParOptions options(Setup s, int procs) {
  ParOptions opt;
  if (s == Setup::KMeans) {
    opt.grow.cont_split = dtree::ContSplit::KMeans;
    opt.grow.cont_bins = 32;
    opt.grow.per_node_bins = 8;
  }
  opt.num_procs = procs;
  return opt;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every rank's time split, traffic and byte accounts, one line each.
std::string ranks_text(const ParResult& res) {
  std::string out;
  for (std::size_t r = 0; r < res.per_rank.size(); ++r) {
    const mpsim::RankStats& s = res.per_rank[r];
    const mpsim::MemStats& m = res.mem[r];
    out += "rank " + std::to_string(r) + " " + hex(s.compute_time) + " " +
           hex(s.comm_time) + " " + hex(s.io_time) + " " + hex(s.idle_time) +
           " " + std::to_string(s.words_sent) + " " +
           std::to_string(s.words_received) + " " +
           std::to_string(s.messages_sent) + " live";
    for (const std::int64_t b : m.live) out += " " + std::to_string(b);
    out += " " + std::to_string(m.live_total) + " peak";
    for (const std::int64_t b : m.peak) out += " " + std::to_string(b);
    out += " " + std::to_string(m.peak_total) + "\n";
  }
  return out;
}

struct Golden {
  std::uint64_t time_bits;        ///< parallel_time
  std::int64_t records_moved;
  std::uint64_t histogram_words;  ///< bits of histogram_words
  const char* model;              ///< dtree::model_digest of the tree
  const char* ranks;              ///< SHA-256 of ranks_text
};

using Config = std::tuple<Setup, Scheme, int>;

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const auto [s, scheme, procs] = info.param;
  return std::string(s == Setup::Binned ? "binned" : "kmeans") + "_" +
         (scheme == Scheme::Vertical ? "vertical" : "host_worker") + "_P" +
         std::to_string(procs);
}

const std::map<std::string, Golden>& goldens() {
  static const std::map<std::string, Golden> g = {
      {"binned_vertical_P2",
       {0x410921b9fae147aaULL, 0, 0x0ULL,
        "d3a90e219f8f01ac6e3eeff9fde15c4807b8484bef13a28cbc419fe47959fbdc",
        "e30f6f2393f6f9de9ca420981680ea70fdee3a849476f15e18225c8e5640467f"}},
      {"binned_vertical_P4",
       {0x41064c9cdc28f5dcULL, 0, 0x0ULL,
        "d3a90e219f8f01ac6e3eeff9fde15c4807b8484bef13a28cbc419fe47959fbdc",
        "6f1bf8abbe490900bdc9883f5808024fc756ccf262d29fc40ade4e3124c7487a"}},
      {"binned_vertical_P9",
       {0x410739a56b851ec7ULL, 0, 0x0ULL,
        "d3a90e219f8f01ac6e3eeff9fde15c4807b8484bef13a28cbc419fe47959fbdc",
        "75bd62e4f1c81fff7f50b060025b7a66f933d38ebd9fdb989a13b9b11de9b1c7"}},
      {"kmeans_vertical_P2",
       {0x410c1d36f5c28f5eULL, 0, 0x0ULL,
        "b067e1c0797d42c12c5221fdd355344fcfc5f5ca38dcbeed25f87a9247a803c8",
        "80f792e23354e0d9b478558f5759cfaaff8bb86b1e31b8ff33755c942d23e56b"}},
      {"kmeans_vertical_P4",
       {0x41067e4feb851ed0ULL, 0, 0x0ULL,
        "b067e1c0797d42c12c5221fdd355344fcfc5f5ca38dcbeed25f87a9247a803c8",
        "b266c14620f6920a3045b3fbd9f70da45a7dbc16cf533cafc505e573d949e04e"}},
      {"kmeans_vertical_P9",
       {0x4105275ea3d70a4bULL, 0, 0x0ULL,
        "b067e1c0797d42c12c5221fdd355344fcfc5f5ca38dcbeed25f87a9247a803c8",
        "501d88c5deffbebc19715ad93942c3bf17ff9a80873299f3abb8727e7745da39"}},
      {"binned_host_worker_P2",
       {0x4116111bffffffe9ULL, 0, 0x410905c000000000ULL,
        "d3a90e219f8f01ac6e3eeff9fde15c4807b8484bef13a28cbc419fe47959fbdc",
        "b13aa766fed4cdfdb465d43ada8a5c42134e95932efd318ba3da78b1c2b4b102"}},
      {"binned_host_worker_P5",
       {0x410c853147ae149aULL, 0, 0x410905c000000000ULL,
        "d3a90e219f8f01ac6e3eeff9fde15c4807b8484bef13a28cbc419fe47959fbdc",
        "5f6bc28fb6445cfee7d79fa2bbaad8209906c6459eff3b55914c74560963b272"}},
      {"binned_host_worker_P16",
       {0x411b7cce66666671ULL, 0, 0x410905c000000000ULL,
        "d3a90e219f8f01ac6e3eeff9fde15c4807b8484bef13a28cbc419fe47959fbdc",
        "3c37593fb03c48081c40b4f6860830c21bfebb6398420a9941f3cc7940c61f10"}},
      {"kmeans_host_worker_P2",
       {0x411b0c4c66666653ULL, 0, 0x41129f3000000000ULL,
        "b067e1c0797d42c12c5221fdd355344fcfc5f5ca38dcbeed25f87a9247a803c8",
        "6be8190fe884e8328495b916913761678af22a4dd2b9d01c4d0f10364149186e"}},
      {"kmeans_host_worker_P5",
       {0x4113725a51eb8510ULL, 0, 0x41129f3000000000ULL,
        "b067e1c0797d42c12c5221fdd355344fcfc5f5ca38dcbeed25f87a9247a803c8",
        "eb760743854d0b59be526b1895f2732b527c62ff6a000e74d4dffc05a8d3e919"}},
      {"kmeans_host_worker_P16",
       {0x4123a7dbccccccb1ULL, 0, 0x41129f3000000000ULL,
        "b067e1c0797d42c12c5221fdd355344fcfc5f5ca38dcbeed25f87a9247a803c8",
        "0f67d912678b7ba8f7dcd3ba04016d3226cc8913b1843d3ed64ad908068097f5"}},
  };
  return g;
}

class BaselinesGolden : public ::testing::TestWithParam<Config> {};

TEST_P(BaselinesGolden, ClocksAccountsAndModel) {
  const auto [s, scheme, procs] = GetParam();
  const std::string name = config_name({GetParam(), /*index=*/0});
  const data::Dataset ds = dataset(s);
  const ParOptions opt = options(s, procs);
  const ParResult res = scheme == Scheme::Vertical
                            ? build_vertical(ds, opt)
                            : build_host_worker(ds, opt);
  const auto time_bits = std::bit_cast<std::uint64_t>(res.parallel_time);
  const auto words_bits = std::bit_cast<std::uint64_t>(res.histogram_words);
  const std::string model = dtree::model_digest(res.tree);
  const std::string ranks = dtree::sha256_hex(ranks_text(res));

  const auto it = goldens().find(name);
  ASSERT_NE(it, goldens().end())
      << "{\"" << name << "\", {0x" << std::hex << time_bits << "ULL, "
      << std::dec << res.records_moved << ", 0x" << std::hex << words_bits
      << "ULL, \"" << model << "\", \"" << ranks << "\"}},";
  EXPECT_EQ(time_bits, it->second.time_bits);
  EXPECT_EQ(res.records_moved, it->second.records_moved);
  EXPECT_EQ(words_bits, it->second.histogram_words);
  EXPECT_EQ(model, it->second.model);
  EXPECT_EQ(ranks, it->second.ranks) << ranks_text(res);
}

INSTANTIATE_TEST_SUITE_P(
    Vertical, BaselinesGolden,
    ::testing::Combine(::testing::Values(Setup::Binned, Setup::KMeans),
                       ::testing::Values(Scheme::Vertical),
                       ::testing::Values(2, 4, 9)),
    config_name);

INSTANTIATE_TEST_SUITE_P(
    HostWorker, BaselinesGolden,
    ::testing::Combine(::testing::Values(Setup::Binned, Setup::KMeans),
                       ::testing::Values(Scheme::HostWorker),
                       ::testing::Values(2, 5, 16)),
    config_name);

}  // namespace
}  // namespace pdt::core
