// Collective goldens. Every Group collective is pinned to what it charged
// and recorded before its recording protocol was shared: each rank's clock
// bits, RankStats and MemStats (live and peak per tag), the mpsim::Trace
// events, and SHA-256 of the pdt-events-v1, pdt-comm-v1 and pdt-mem-v1
// documents an Observability attached to the machine writes. Machines of
// P=6 (not a power of two) and P=8 run each collective on the whole
// machine, on a four-rank group and on a singleton, under three fault
// plans: none, transient retries (a timeout that fails twice, then a
// corrupt link that fails once) and slow links plus a straggler.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dtree/sha256.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/group.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"

namespace pdt::mpsim {
namespace {

enum class Op {
  AllReduce,
  Broadcast,
  Pairwise,
  Transfers,
  AllToAll,
  SumInt64,
  SumDouble
};
enum class Plan { Clean, Retry, Delay };

const char* op_name(Op op) {
  switch (op) {
    case Op::AllReduce: return "all_reduce";
    case Op::Broadcast: return "broadcast";
    case Op::Pairwise: return "pairwise";
    case Op::Transfers: return "transfers";
    case Op::AllToAll: return "all_to_all";
    case Op::SumInt64: return "sum_int64";
    case Op::SumDouble: return "sum_double";
  }
  return "?";
}

const char* plan_name(Plan plan) {
  switch (plan) {
    case Plan::Clean: return "clean";
    case Plan::Retry: return "retry";
    case Plan::Delay: return "delay";
  }
  return "?";
}

FaultPlan fault_plan(Plan plan, int procs) {
  FaultPlan f;
  if (plan == Plan::Retry) {
    f.transient_timeout(/*rank=*/1, /*level=*/0, /*count=*/2);
    f.corrupt_link(/*a=*/0, /*b=*/3, /*level=*/0, /*count=*/1);
  } else if (plan == Plan::Delay) {
    f.delay_link(0, procs / 2, 2.5);
    f.delay_link(1, 2, 1.5);
    f.straggler(/*rank=*/2, /*from_level=*/0, /*to_level=*/0, 1.75);
  }
  return f;
}

/// Run `op` once on `g`; `call` varies the payload between calls.
void run_op(Op op, const Group& g, int call) {
  const int p = g.size();
  const double scale = 1.0 + 0.5 * call;
  switch (op) {
    case Op::AllReduce:
      g.charge_all_reduce(37.0 * scale);
      return;
    case Op::Broadcast:
      g.charge_broadcast(19.5 * scale);
      return;
    case Op::Pairwise: {
      std::vector<double> out;
      for (int i = 0; i < p; ++i) out.push_back(scale * ((i * 5) % 7));
      g.pairwise_exchange(out);
      return;
    }
    case Op::Transfers: {
      // The first call plans nothing (balanced counts): it records an
      // entry only when its barriers burned retries.
      std::vector<std::int64_t> counts;
      for (int i = 0; i < p; ++i) {
        counts.push_back(call == 0 ? 9 : (i * 13 + 4) % 17);
      }
      g.charge_transfers(Group::plan_balance(counts), 3.5 * scale);
      return;
    }
    case Op::AllToAll: {
      std::vector<std::vector<double>> out(
          static_cast<std::size_t>(p), std::vector<double>(
                                           static_cast<std::size_t>(p)));
      for (int i = 0; i < p; ++i) {
        for (int j = 0; j < p; ++j) {
          out[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              i == j ? 0.0 : 1.25 * scale * ((i * 7 + j * 3) % 11);
        }
      }
      g.all_to_all_personalized(out);
      return;
    }
    case Op::SumInt64: {
      std::vector<std::vector<std::int64_t>> bufs(
          static_cast<std::size_t>(p), std::vector<std::int64_t>(11 + call));
      std::vector<std::int64_t*> ptrs;
      for (auto& b : bufs) ptrs.push_back(b.data());
      g.all_reduce_sum(ptrs, bufs.front().size());
      return;
    }
    case Op::SumDouble: {
      std::vector<std::vector<double>> bufs(
          static_cast<std::size_t>(p), std::vector<double>(5 + call));
      std::vector<double*> ptrs;
      for (auto& b : bufs) ptrs.push_back(b.data());
      g.all_reduce_sum(ptrs, bufs.front().size(),
                       call == 0 ? -1.0 : 4.0 * scale);
      return;
    }
  }
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Clocks, time split, traffic and byte accounts, one line per rank.
std::string ranks_text(const Machine& m) {
  std::string out;
  for (Rank r = 0; r < m.size(); ++r) {
    const RankStats& s = m.stats(r);
    const MemStats& mem = m.mem(r);
    out += "rank " + std::to_string(r) + " " + hex(m.clock(r)) + " " +
           hex(s.compute_time) + " " + hex(s.comm_time) + " " +
           hex(s.io_time) + " " + hex(s.idle_time) + " " +
           std::to_string(s.words_sent) + " " +
           std::to_string(s.words_received) + " " +
           std::to_string(s.messages_sent) + " live";
    for (const std::int64_t b : mem.live) out += " " + std::to_string(b);
    out += " " + std::to_string(mem.live_total) + " peak";
    for (const std::int64_t b : mem.peak) out += " " + std::to_string(b);
    out += " " + std::to_string(mem.peak_total) + "\n";
  }
  return out;
}

std::string trace_text(const Trace& t) {
  std::string out;
  for (const TraceEvent& ev : t.events()) {
    out += std::string(to_string(ev.kind)) + " " + hex(ev.time) + " " +
           std::to_string(ev.rank) + " " + std::to_string(ev.group_base) +
           " " + std::to_string(ev.group_size) + " " + hex(ev.words) + " " +
           ev.detail + "\n";
  }
  return out;
}

struct Golden {
  const char* ranks;   ///< SHA-256 of ranks_text
  const char* trace;   ///< SHA-256 of trace_text
  const char* events;  ///< SHA-256 of the pdt-events-v1 document
  const char* comm;    ///< SHA-256 of the pdt-comm-v1 document
  const char* mem;     ///< SHA-256 of the pdt-mem-v1 document
};

using Config = std::tuple<int, Op, Plan>;

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const auto [procs, op, plan] = info.param;
  return std::string(op_name(op)) + "_" + plan_name(plan) + "_P" +
         std::to_string(procs);
}

const std::map<std::string, Golden>& goldens() {
  static const std::map<std::string, Golden> g = {
      {"all_reduce_clean_P6",
       {"1dfc468524e41d9a52179da1f33a6f2fb099e9d5856fb265345e23fa88560c95",
        "8dd0d264ec770665132dd3d0212294efc05936455978c6281c71bd2131dc40b0",
        "dddc054125721a7b6a46ca86b482926bd4e9bab481535aeb3ba0b07c33dd3bcb",
        "a647a9de18922e1c8e62e4972be830d2cc956c4f07a4e5e9d38c30ca3a62fc7a",
        "5f794314932d2b2f644747449c00c824ed6606ea036087b404a71b03c4e9e5ea"}},
      {"all_reduce_retry_P6",
       {"03aa667f91ac639e663ff1f2fea6854aa01c005d7b6c47f0f43814800b49a8ca",
        "791e05ec5f0eec1766990e5c4ecda439db86f113755c2881de028379f13d31fe",
        "297daba76f53601a0b52f5af60d0ddd8eeaaa5fe75900927023fdfdbf1b90062",
        "789a0001f9b4e33ed0173d3ec229368c7a1b162a9101f46ab102176d8c3e1bdc",
        "5f794314932d2b2f644747449c00c824ed6606ea036087b404a71b03c4e9e5ea"}},
      {"all_reduce_delay_P6",
       {"cd48a85288b59c316885a247ca77af080690f0bfd560d2c8c25026a4aaaa569c",
        "68fbe77b3860c34cc7e8a1b93d671cdd8b0d994297fc008fe1cab927e428ff92",
        "768088406a8178b89072cd01ac998351278dfde2f6de48cf09346ae4d45c9e19",
        "1f1b10ad3f75e2ee75001c60cfec8a84bad391b1bbf9e60b41526f6659292449",
        "5f794314932d2b2f644747449c00c824ed6606ea036087b404a71b03c4e9e5ea"}},
      {"broadcast_clean_P6",
       {"0d05be7ed166d357442562ba33db31f5d25239e52121f0416fa6c1efb19028b5",
        "b2f9665e2fe43ecd7837f675b313e944061593459b23397ff390399481cc111c",
        "45c4062492b6c04fd69f3249c8aa78f749ccb6e2cccce6595869f01972e97c7d",
        "c079d0e7ffa6d4d4cee559140cca29a2619cefdb228a8d0f812bce1aafce9e6a",
        "b468a798545bd338b3d6df669808ab57b4eb5c9e63b529faebed29d8bd9e1fd9"}},
      {"broadcast_retry_P6",
       {"61e3747aac5fff73312b584c68108d8e4ef72793684171a85f4342403f2b8d69",
        "8474046f3e4fe99137a49233536b032adce7055416ab84898cbd2fbb923c52cd",
        "012c566a11d199c758049c317a2d8a55d5102b581911faf4cb1ee8806b314791",
        "890f1820d1b66d827f7ffa9862f2be0a26fda0b2301b6b83e6a255278c5c42b3",
        "b468a798545bd338b3d6df669808ab57b4eb5c9e63b529faebed29d8bd9e1fd9"}},
      {"broadcast_delay_P6",
       {"9bc9d9ae5ee05dae6f6ddb2c0989e36a07ef8db90009d5fa442691fd494397b8",
        "1859ca06178d2d9c43b69ad9e0394517ea7de6141028b2959690a5d4fd50f760",
        "d524b4e79ab5a346f6de52b557a93dbacc9c2e274e49dd75f974900ecbace98c",
        "8efeb80444e37769e996a7177ba52fb2757a8b6d9afaec20e6dfc0c214a99284",
        "b468a798545bd338b3d6df669808ab57b4eb5c9e63b529faebed29d8bd9e1fd9"}},
      {"pairwise_clean_P6",
       {"9350dcf38d6554418814826cc8aecb6c11a2202eaecb9b157daff7c00db11309",
        "063904041bdbb0cff414ef9bf2b50ed5ef49534cb7dc7b84a773fb529d7e8402",
        "a1fb0dfdf7ea3ccddc5f7b61ac942de1973f05676a125b33bc969b2167fa3536",
        "851a68e90af688dd59e507695ae4cbffb35c4281c0a84d2e28107d3b7a039fc8",
        "66ab0e279f8e9f2216a7a2a25ed3ecba5ff819462bfc1312e0a3d17ec2a80a9a"}},
      {"pairwise_retry_P6",
       {"d7fc6be064ae2e56ffe57666c8634f97751e98416cce6cec4eec5a6870cddc5a",
        "64e766a937da300cad4bb78551f06cd5353a8aaea8f3bd04542ffa2f8551c03b",
        "8ea4db9b48defcaca6a6eeb6a6b00f2212e45fb112966d8d866483b775856403",
        "27c9783d1274223d595f8abd3caa3c4fb92a3842f54da344abdc7207ebaca58f",
        "66ab0e279f8e9f2216a7a2a25ed3ecba5ff819462bfc1312e0a3d17ec2a80a9a"}},
      {"pairwise_delay_P6",
       {"770c56da00a73af0292afe454e622f80fe71e47d0a9e09eb26a863adae3d2fb9",
        "233ecedfada372c380330ce59a4137376e2e20c707973c6e7fbbce225ea075bd",
        "ec8efb4e383e98e8a86bbbfa8635826c6cfb6ffe139fdb7e9ac37152b787c067",
        "e737863c2dec6d4fd43d28ec92b593b4f06f111ec630c4f0bf629e2d8e1c1861",
        "66ab0e279f8e9f2216a7a2a25ed3ecba5ff819462bfc1312e0a3d17ec2a80a9a"}},
      {"transfers_clean_P6",
       {"0217950f444e76bdfd63b098d2cab6e2ed8099c4bfa09749b8b608a6f4ea5b95",
        "54d61c2d947dbf7c110f8168af40db977902a447946c62db963a5ff2c432e574",
        "782c54d7a81f8cea0e949642d0eb4b23bcc5efe7456b4eb047477be6eb0ac75f",
        "6919f0d44afdffaede5f00163de6f33df7b998556da57c1adb6bfa5ba3c624e1",
        "5159e14880f98f4fe5411eea7f8e667bf42a711793c992cf120a3abd6821f0e3"}},
      {"transfers_retry_P6",
       {"07c7c4e6f3200d6be51d2a70857a28ecc40da5515fa0257393b93d7789477df6",
        "35098f3d18f103ad0f1c8175018cd19bbac31ca1a62e2349180ea8c4e0eed5d0",
        "8cf726bef679d1ed9d9966e08ceae91d04b1ef6c0c10e2281652bfda780d81bd",
        "fba45dbd701993b2718a58faa41b222113ccc912626b8b11cc8c2ecad78d243f",
        "5159e14880f98f4fe5411eea7f8e667bf42a711793c992cf120a3abd6821f0e3"}},
      {"transfers_delay_P6",
       {"f4738b257bf9d66eba5283ea4035fdfc8d66b6a4af4341feeba14d7afadaa2ad",
        "2b9af6ad4f5bc0dfadc65e30588ecbbaa37a71d694c4f9f499a8d602c4e21126",
        "6fe73da5af2a6d9cbdac3a3dda9427c2dc39e991488367d8fedf61622a877b00",
        "91f1a29c34e00587858e7dc6bece77acca4edf17f6f1ed565204c7f5f2f7b60f",
        "5159e14880f98f4fe5411eea7f8e667bf42a711793c992cf120a3abd6821f0e3"}},
      {"all_to_all_clean_P6",
       {"d02893fa7240e8d3befea1f8e8bb9aa486ef3bffd55fe76773a0fafb8e4a578d",
        "1c3f9424be123a0f7bc848d357df572356b47f95e591819340af3db379feb821",
        "10fedb1e1f0f2940de2a1d9b4aec903a87bccf274370da558577ce3761500901",
        "1a0094cfaf1a33f1d4cd6aad5015baf17f4fe98bbf6c3c3a2f2eb3be57821fce",
        "8db7711551c835ac74bda1e2e31a24d123f662a1bcc1eb6b9e4bd439099c0268"}},
      {"all_to_all_retry_P6",
       {"57b864731da17b2a06a1ef63a2e1a7e5a171fffbfcf1e3eb2f4752928bcebd35",
        "c2c9c7be96f3ff83f2e141ca44426f42f277dc03c4d5e1430e75c430806fb125",
        "7bc00351e8fa39c865ccd597dd2bf5890161b772130d1eecba1febd41cb11799",
        "d3140d77e8bb2e6ab45b20ae350faa42fe0fd6f8d1273308c2fa4ee65185578a",
        "8db7711551c835ac74bda1e2e31a24d123f662a1bcc1eb6b9e4bd439099c0268"}},
      {"all_to_all_delay_P6",
       {"6638a741574caddf537cffef52922f36b8500abdeb3efbda2b16f886ffa49fe3",
        "d56c8efa0bd531a4219c6053afd0fa96d3f154774d6ddce86160b43edf625fb3",
        "871f6c91e5ee09863d70699a785049465528d5287c4b7e62d85723cf6cd7c45c",
        "9fa1828b99f014eba45365bea61c1c53b5c8d98b6069d58cfad63eebbd8a4ed2",
        "8db7711551c835ac74bda1e2e31a24d123f662a1bcc1eb6b9e4bd439099c0268"}},
      {"sum_int64_clean_P6",
       {"0cfe215ea84eba12abe7557e6b955e5a19ffba2c751613869fc0c42cf7a0462e",
        "6d864682a9359acf441b624b4b2b67c6804759e234db811005b90436e8f88f7c",
        "fbbe4c8a4fc211bf48dbea0b1082378c342eac2c3e16b9d34c26faae4e8f8d8b",
        "d990b790d10d5985917b020b7bcb9363f24a3331dd7c44180b9b1838d1ccace7",
        "21f986da4db4576d61f0d546ef94f709dff1abd15e82441306927189e24ce49c"}},
      {"sum_int64_retry_P6",
       {"ac160f36594c862d1fec32a79e345ad9a35dbcadf157f67e3ea87a5a2927ba7d",
        "9aaffb1ed51b4b1c4fe5d44dde1c2bc8ce47a4f65b21d7a2d8a231a448c27000",
        "7a7cabe3c2595e60105f350ee86b1b8925a8cf26ad2f5e0095b9ed18f9af56ef",
        "dbd03d4c334d114eb831dad6f0b5e98aebf3f829f95e6be34f8250ce7d40439d",
        "21f986da4db4576d61f0d546ef94f709dff1abd15e82441306927189e24ce49c"}},
      {"sum_int64_delay_P6",
       {"1a96ea45e978b8c9e303e10b720677fb1869925ffc543beadbdb8792749c78ad",
        "9dba58e6a8d7529c5c30ba9d459be5e9911048b5bf1a4b2646c547e31451cc39",
        "cbcec32a4a44ddb66b8b7213cca57bdd5f7941b57e1495a39ae2b8e936e54c93",
        "e16ef92156b4278dbd75fe0232effe87ae2c6654d769ed73a7e7636f2f2d8c1a",
        "21f986da4db4576d61f0d546ef94f709dff1abd15e82441306927189e24ce49c"}},
      {"sum_double_clean_P6",
       {"87a743b6de7ec2128e42bc1b913a7d64586e32d76d2893b5da7c717210871e0c",
        "fcfddb391043f6ff77e90e9f7c795f49b0f96efb130f431f496827a4919d1e4f",
        "6404e7a065c7220db14e8c4b8b3a625914cc53e005cfb3ee202639a4064faf86",
        "07d74ae68bd78723fdbaa03cac8d01cc2dd68a754f26ac71894d0ec45a2057e9",
        "2ef1fcc09d691f08b1292c3ba2681ef64ae9bc6d97c91964a70a94ecd46df788"}},
      {"sum_double_retry_P6",
       {"b21e27ab71c4dce7a66c3342cf626dc75d9bf782dbd791c31a5194e4be50d645",
        "69a7225fb15d2d3462401e484fdaae23ffada7a8228df60632ba4f32c82df974",
        "209f0e2421b068256ea2a2f202d933c4e5e74219b9cb7a705d6fcf2831fff8c4",
        "efa34430ae551545a1b76c828d29e2aad525f957cf45c38820d5e6f446f7f2cb",
        "2ef1fcc09d691f08b1292c3ba2681ef64ae9bc6d97c91964a70a94ecd46df788"}},
      {"sum_double_delay_P6",
       {"e14a4d4852e8a5fb330d56b7980c1d72689a929c761c67adab336ade25d0d12b",
        "abb0a1624c5eefbf31f31208ca5a3746d62206bf03a2fcc562da1551f3e7013d",
        "9b289a1b5670ad13c6b5183471969a69433376ef7299b76dc94f355ffa6e6b7a",
        "80ac9153d4346669bb922cd6e2210a51c2568221e6fc379f8afea4fb5ca15b3c",
        "2ef1fcc09d691f08b1292c3ba2681ef64ae9bc6d97c91964a70a94ecd46df788"}},
      {"all_reduce_clean_P8",
       {"51e3b8c6d23d196c5c711fce75199b951cfbb17563fe74898502be5dd153ac90",
        "e2864e16f5a65be947c881d443c8a8be742bd265da0b1d15ff274ef19ab6ab4b",
        "d67cfef35ae02063fc646871ab7ab3ce8a3be43a121ca0e9aa8aa72174585b6c",
        "9cc322238f650f89b1db359ea3d28a431dcc55f4632d4081d7e48070beb70911",
        "2ced7f0478ebf0f2735ea1da6c291487d9a1edea8fad91485443595a69e9f5e2"}},
      {"all_reduce_retry_P8",
       {"c887b9b36e962e1ffae610cf616f2aeca864df2d3eccb93970eaa6b173861e45",
        "5a9bebcda40ec17187aee215807718b56cf9530b6abbd026df44c89005c90795",
        "8c4ab929e23477a592bef1e604c11d249d5aa56afd3f713d0e6c284ae2c59616",
        "0a03f3f5f992ca611add7f0425cef482b87fde4dafd05a4df1b3b5e8dff1bc56",
        "2ced7f0478ebf0f2735ea1da6c291487d9a1edea8fad91485443595a69e9f5e2"}},
      {"all_reduce_delay_P8",
       {"635e99e22cbfa4925869a5b7c616ff360c16eed4ba40c21bf959fe20b7d9f6c8",
        "8d3fd85cd12dda699222b87a2d6efe4cdffa4ddece34d46daa8c705465b8654b",
        "a1d7814fc7614b91bee5e487fb97d513b3bb0ede36cf64083e0b5a4203333b41",
        "e2abc1692dc652ba665268543b43dd9b0a1e4b3c1a76a3ca4a21ad739b5e9ef1",
        "2ced7f0478ebf0f2735ea1da6c291487d9a1edea8fad91485443595a69e9f5e2"}},
      {"broadcast_clean_P8",
       {"7d323a15df753bcd06e08d6b928f615f20988c387aaf86a77b06bbd2b9026b19",
        "a5a33e16172551dbb66210253cc7ff9e6ba40964e51f6dbb2289786e7f333608",
        "4ba0dbf8f198b87275535bd4cf2e8f5611c7a28d7331e562bdc5a255d9ddf983",
        "e27502ba9c05a306b73c34abaaf25f43919cd28cf2fb346a22bf5d5276586ef5",
        "d5af4eb5d3592b383485fdbdeb7d7c12d3c565b8449578d34e0e553642140ebb"}},
      {"broadcast_retry_P8",
       {"ea58f12fbb6e6c0fd32eb01a64489514954e86d9d2daebf0b2fffda79faebac0",
        "9db56417b27a51b5d3737609854b219ec5b157e5d0a829138f14f432b613af2a",
        "87e2bdbcb26fedbbffdd64d0d86adf6d6c3fd9b7e729288dbd0f14f3b1070bba",
        "46eafce8e03409c8eb9a30b1d357e19b2f2bc4851a16a7ca068b102e9813096f",
        "d5af4eb5d3592b383485fdbdeb7d7c12d3c565b8449578d34e0e553642140ebb"}},
      {"broadcast_delay_P8",
       {"4d2a80a2ff9e4fa3061b4b0f4fb338348f6f925f59b009a0d21796d381f9a236",
        "d14cd61734b8c4e9f63b0424ddcfe35979b39e71ba6aaa896daa8aa5d5d9880b",
        "72958b0fcf2f02bb01e8914e4e79db51b73c33d485aa3bd01647a3cef0c01805",
        "e8c2dee4ebcfe7f5b003e2eba3d4d6a1b7f62eee0835b70d4a296414fe33d62c",
        "d5af4eb5d3592b383485fdbdeb7d7c12d3c565b8449578d34e0e553642140ebb"}},
      {"pairwise_clean_P8",
       {"b0054b9326970ecdad0b6c155f7b115c18591ca433f0c372da38dff4d5cdcd54",
        "b6e5c2416b030ce7df6decce1341978f5f97d52a9308bb3f269737a8e89c8361",
        "288545ea37423e5cd0cfce60565ed6327cc4ae0e043a91bbf3dfe290de561666",
        "d303606293bca41f9568fb8797188548965fe788549e7f0556da7f4379b8399d",
        "ed664015f888a7f40ed070d27c90494b3219babfc296e33e39207191a907668e"}},
      {"pairwise_retry_P8",
       {"df9ddf7215581463bc0eaddab32aacd020ef1a61f878b676dd62b03cce524c27",
        "c64302d6203756434fb6c85bfc97a005aeed8d5eb8917a71f91701bf6e992634",
        "a56709e6b412cf807c35e198db658ae27e4581aab407c19243ec2baf7dec0aee",
        "b5378ebf70189d72ea8768f8cfd0abc16afed96eb4437ddc9af09188574f5884",
        "ed664015f888a7f40ed070d27c90494b3219babfc296e33e39207191a907668e"}},
      {"pairwise_delay_P8",
       {"67a6482c289390cb8ff5a90b286cbeccc5ffb7044381ad421acbdc567b621178",
        "1df2a605d04b2ed50dff1f99c78f78c3b102d1be55899d91955a8a738c14aa93",
        "1716dba1f24276a421b5f5d0e0d0052ed68715900370a743afc1cce52a543bf8",
        "6d15d608a2841777456f5c60a853135ba881f323a60cb762a96c54ab924d0699",
        "ed664015f888a7f40ed070d27c90494b3219babfc296e33e39207191a907668e"}},
      {"transfers_clean_P8",
       {"8fbdd698cef5c33bf8494a659a51271aa80ba462136de0f4ba2b08b47c505726",
        "6f58eb7a0c27fe48b9c6a65f2f43a80614cfda1df4880f34bc6289b0d14a002b",
        "e6c1bc4a13553f99dc4fa31e814eaf265f3f61f9d0576de991b6a8885fb747f3",
        "7a04d409c8e0ea9b83b6050893c395fff1476843c42958a64c10af26e85fd8ae",
        "2623a1ce26abb2c628149cca1ce6b19cecaaaaf5b86d731d6f1d72df5368a48b"}},
      {"transfers_retry_P8",
       {"475d2558a73fc9c4aba0878a197dd0c8db8803907e1ed08938465f636ee66cfd",
        "35233050fdd9bdb0a4742c58165702c4a398d4296131d0d7c2fbd28adcc6c348",
        "729a9074e4915d0f947bbd17a575d6368ae5a3779b2d11f9b373c664eb825325",
        "e57358432da2119bd0c99cba7d62d1b91b5251ac447c1e57f048604e44b046fd",
        "2623a1ce26abb2c628149cca1ce6b19cecaaaaf5b86d731d6f1d72df5368a48b"}},
      {"transfers_delay_P8",
       {"9034b04656a35cb905a75a78fec0eb933fa90b7dcfc190204f9df0f33ad43ec4",
        "d7be8daba21e1ad7f0cb3b5c64a3d455994ca649be91de4bf6e593225ca0cc60",
        "05e929b1100b014d720ad5884a73919f43515e99a7d55058c23397a4076c5f7e",
        "9d92e1853630a402ab317d56c8f307e772731c2c312b151970b28ee6c275dff5",
        "2623a1ce26abb2c628149cca1ce6b19cecaaaaf5b86d731d6f1d72df5368a48b"}},
      {"all_to_all_clean_P8",
       {"271fb09789425a81c8e5520740a03ad501e9d4f34eabce8d06d2c0d98b4dda6f",
        "7417ed73029bc4411d836f2c49266bb5501f7f57e3218029d9ede28f6c38769e",
        "00503433f224c276f66e89beaa0695c0843795bb4a61fe7d4d8dbf593b67a1aa",
        "36a4cf99de1b4a2336661681b952363a6a40925f887adb5f1c421a6378bf2762",
        "3cd99eab2ea59fb8ea8c8d38c0ff09503b15df9eff5204071df37860893ecfe1"}},
      {"all_to_all_retry_P8",
       {"63631b2a1950efde6edea9076275930817d24fe089b277479725b6f26be4e76b",
        "ab6b9b4b0dfa8cc5ab10dce258d2ea17ae1392c78149e8b3dee5d761e887b497",
        "8a775d392f7ace563479660865768d1693c0da742f5bed5a5274abbc41e78604",
        "4f1fbf6e087d65cdaeb45000d62615c4c31f1936915693f2d3dac0e0e940ca8f",
        "3cd99eab2ea59fb8ea8c8d38c0ff09503b15df9eff5204071df37860893ecfe1"}},
      {"all_to_all_delay_P8",
       {"cd216391c82a920ea61ce3696d59d8c4015dd11d040efeca83b8885b5717e16d",
        "f4cd60e7ab175577e7929fb69807b8e58ccd45b07d644cd68c8a8d162202ea8c",
        "98d09d869ac39ddbf257382bd51ab0982754e868cfbb1bbc3b8432fe5a15c5e1",
        "70fdd1340acce84d988a8f0875ccfa864ef6078def79bfd79cb982829378ee86",
        "3cd99eab2ea59fb8ea8c8d38c0ff09503b15df9eff5204071df37860893ecfe1"}},
      {"sum_int64_clean_P8",
       {"e8d3f53ca5fed5ce8d0a5fa00161952789e525d1dd9a4176122f1f99fa15da64",
        "585d8668ed015538a2bafee2d240596b6d59fe9c43b1fb3673ebf45f394d38e6",
        "8dd134de289b0480eadf7da19b0800dd5642a1b4a606fbc8f55270964c927ce0",
        "3c10e4d5ad9f0b89a8ddac1ac5189499a50aa8c05aad756e40068eead965fe0d",
        "c335b38e149d22ef68ba8bf3f9ff61d57bd02a265610a56f52e9a3f81ab3c6e4"}},
      {"sum_int64_retry_P8",
       {"32cade418a2338df7cce9d9e15beb1b972b24c9ffdcf2f054c379a6df1061da6",
        "65fd5bbd820bf89368e599ad077f31ed9a771cc2acf06c39feaa11f90cece9bd",
        "8cbf0d637259de39e0aa276ffe59c5a1048712ddd4a7f5c0c48c878d653c3b31",
        "3713c8a8cfaa61d02922a0ee3653e0fb64ed6d99413d21c017d5063f2b96b1c0",
        "c335b38e149d22ef68ba8bf3f9ff61d57bd02a265610a56f52e9a3f81ab3c6e4"}},
      {"sum_int64_delay_P8",
       {"facd471a496b99d39540ddfdc6c3720f61e16a9db82259dea6a848958c678267",
        "ba979ab92e47c4083d12ea72b695bb10900466157c3d4d68137de84a8a6a73ee",
        "d7ba8e4d63364482ee59e82486b40a2e0ff31ee4e51bfa519565aeaa3fbe8b42",
        "fed31d72efc5b8f789c407a92b9f6b7a336b1c3e22ffed88e874222ce18b956a",
        "c335b38e149d22ef68ba8bf3f9ff61d57bd02a265610a56f52e9a3f81ab3c6e4"}},
      {"sum_double_clean_P8",
       {"fe6fe49938335a6cab011076b6d193285da913098b1b0759a7567edad0a20e53",
        "f1f2895435ffc742098bf37e5f72350338b0c2d6aef64a169afdbc011b7588e6",
        "73f186228feec8b410ea0a152337d4adc577b2cfedaef2fec2991ac8ba397b25",
        "66393a47ea43d697d771610c79d74e7480706fd8df4b91fe52fa91bcf95639f3",
        "85c365dffc338850aac97a1f342be178baf75c62bac69b4b922b4c646fdc3983"}},
      {"sum_double_retry_P8",
       {"8ca4b21d3687a72959ebdaafa1e8d465509ff28bb6596aad9dcdf8895b76c2e9",
        "12571d0ff69b2165ab54fcce92e4cf0a24bebb7eaac6401a9238c70a8f59638f",
        "95c0390b9aa37c0ad6aeb471614414923a512f2f0f52cf102a99f177de996d70",
        "4470ca06c721c768e6fbb108bfeded37c91643fadda7dee3e336dd2f43ca11d4",
        "85c365dffc338850aac97a1f342be178baf75c62bac69b4b922b4c646fdc3983"}},
      {"sum_double_delay_P8",
       {"bffc3faf3386a12d6b05469a1d63dcb11d22a8394bfde31c34559184dcdf3937",
        "c8a15849dadadfcc03b47553e55f40a1b83366334e0b7a988e9f04bc81ff093d",
        "45088bcd7feca9601cfc9926a88d66463bc00c47746bf9d43b04ddc12fd9eb07",
        "171b9fd4a9a75812fe72111844100c00347f0c44f0cd91926ac80d1f8ab3a00d",
        "85c365dffc338850aac97a1f342be178baf75c62bac69b4b922b4c646fdc3983"}},
  };
  return g;
}

class CollectiveGolden : public ::testing::TestWithParam<Config> {};

TEST_P(CollectiveGolden, ClocksAccountsTraceAndReports) {
  const auto [procs, op, plan] = GetParam();
  const std::string name = config_name({GetParam(), /*index=*/0});

  Machine m(procs);
  obs::Observability o;
  o.enable_event_log();
  o.attach(m);
  m.trace().enable(true);
  std::vector<Rank> all;
  for (Rank r = 0; r < procs; ++r) all.push_back(r);
  if (plan != Plan::Clean) {
    m.arm_faults(fault_plan(plan, procs));
    m.fault()->enter_level(0, all);
  }
  // Staggered clocks, so every entry barrier has idle to account.
  for (Rank r = 0; r < procs; ++r) m.charge_compute(r, 100.0 * ((r * 3) % 5));

  const Group whole = Group::whole(m);
  const Group four = procs == 8 ? Group(m, std::vector<Rank>{4, 5, 6, 7})
                                : Group(m, std::vector<Rank>{1, 2, 4, 5});
  const Group one(m, std::vector<Rank>{procs - 1});
  for (int call = 0; call < 2; ++call) run_op(op, whole, call);
  run_op(op, four, 0);
  m.charge_compute(3, 250.0);
  run_op(op, four, 1);
  if (op != Op::Pairwise) run_op(op, one, 0);

  std::ostringstream events;
  obs::write_events_report(events, *o.event_log());
  std::ostringstream comm;
  obs::JsonWriter cw(comm);
  obs::write_comm(cw, o.comm_ledger(), &o.critical_path(), &o.profiler());
  std::vector<MemStats> per_rank;
  for (Rank r = 0; r < procs; ++r) per_rank.push_back(m.mem(r));
  std::ostringstream mem;
  obs::JsonWriter mw(mem);
  obs::write_mem(mw, per_rank, nullptr, &o.mem_ledger(), &o.profiler());

  const std::string got_ranks = dtree::sha256_hex(ranks_text(m));
  const std::string got_trace = dtree::sha256_hex(trace_text(m.trace()));
  const std::string got_events = dtree::sha256_hex(events.str());
  const std::string got_comm = dtree::sha256_hex(comm.str());
  const std::string got_mem = dtree::sha256_hex(mem.str());

  const auto it = goldens().find(name);
  if (it == goldens().end()) {
    ADD_FAILURE() << "no golden for " << name << "; this run:\n"
                  << "      {\"" << name << "\",\n       {\"" << got_ranks
                  << "\",\n        \"" << got_trace << "\",\n        \""
                  << got_events << "\",\n        \"" << got_comm
                  << "\",\n        \"" << got_mem << "\"}},";
    return;
  }
  const Golden& want = it->second;
  EXPECT_EQ(got_ranks, want.ranks) << name << "\n" << ranks_text(m);
  EXPECT_EQ(got_trace, want.trace) << name << "\n" << trace_text(m.trace());
  EXPECT_EQ(got_events, want.events) << name;
  EXPECT_EQ(got_comm, want.comm) << name;
  EXPECT_EQ(got_mem, want.mem) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCollectives, CollectiveGolden,
    ::testing::Combine(::testing::Values(6, 8),
                       ::testing::Values(Op::AllReduce, Op::Broadcast,
                                         Op::Pairwise, Op::Transfers,
                                         Op::AllToAll, Op::SumInt64,
                                         Op::SumDouble),
                       ::testing::Values(Plan::Clean, Plan::Retry,
                                         Plan::Delay)),
    config_name);

}  // namespace
}  // namespace pdt::mpsim
