// Seeded parser mutation test: bounded byte flips, inserts and deletes
// applied to a pdt-model-v1 document and a small pdt-events-v1 log, each
// mutant fed through json_parse, the model-node reader and
// tree_from_nodes. Every mutant must fail with an error message or yield
// a tree that is consistent with its own canonical form. Event-log
// mutants that parse as JSON also go through pdt replay's
// parse_event_log and an identity replay: each fails with a message or
// replays. The pdt-runs-v1 registry and pdt-diff-baseline-v1 readers
// get the same treatment: each mutant is
// rejected with a message or reads back to records whose written form
// reads back to the same bytes. Run under the sanitizers, this is the
// fuzz gate for the one JSON reader and every tools reader of perf
// history.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "diff/diff.hpp"
#include "dtree/builder.hpp"
#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"
#include "json/json.hpp"
#include "mpsim/event_log.hpp"
#include "mpsim/machine.hpp"
#include "obs/export.hpp"
#include "replay/replay.hpp"
#include "trend/trend.hpp"

namespace pdt {
namespace {

constexpr int kMutantsPerDocument = 1500;

/// Bytes an insert or replace draws from: mostly JSON syntax and digits,
/// so many mutants stay well-formed and reach the node reader.
constexpr char kAlphabet[] = "0123456789-+.eE,:[]{}\" ntrufalsx\\";

std::string mutate(const std::string& doc, std::mt19937_64& rng) {
  std::string m = doc;
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < ops && !m.empty(); ++i) {
    const std::size_t pos = rng() % m.size();
    const char c = kAlphabet[rng() % (sizeof kAlphabet - 1)];
    switch (rng() % 4) {
      case 0: m[pos] = static_cast<char>(m[pos] ^ (1u << (rng() % 8))); break;
      case 1: m[pos] = c; break;
      case 2: m.insert(m.begin() + static_cast<std::ptrdiff_t>(pos), c); break;
      default: m.erase(pos, 1); break;
    }
  }
  return m;
}

/// Outcome counts, so the test can show that the loop reached every stage.
struct Tally {
  int parse_errors = 0;
  int reader_errors = 0;
  int replay_errors = 0;
  int trees = 0;
  int log_errors = 0;  ///< parse_event_log rejected the document
  int replays = 0;     ///< parsed as a log and replayed
};

/// Feed one mutant through the whole read path; returns false (with a
/// gtest failure) when a stage fails without an error message or a
/// rebuilt tree disagrees with its canonical form.
bool check_mutant(const std::string& text, Tally* tally) {
  JsonValue root;
  std::string err;
  if (!json_parse(text, &root, &err)) {
    ++tally->parse_errors;
    EXPECT_FALSE(err.empty()) << "parse failed silently";
    return !err.empty();
  }
  // A document that parses re-serializes to a document that parses back
  // to the same bytes.
  JsonValue again;
  const std::string compact = json_serialize(root);
  EXPECT_TRUE(json_parse(compact, &again, &err)) << err;
  EXPECT_EQ(json_serialize(again), compact);

  std::vector<dtree::NodeSpec> nodes;
  err = dtree::nodes_from_json(root.get("nodes"), &nodes);
  if (!err.empty()) {
    ++tally->reader_errors;
    return true;
  }
  dtree::Tree tree;
  err = dtree::tree_from_nodes(nodes, &tree);
  if (!err.empty()) {
    ++tally->replay_errors;
    return true;
  }
  ++tally->trees;
  const std::string canon = dtree::canonical_nodes_json(tree);
  EXPECT_EQ(dtree::model_digest(tree), dtree::sha256_hex(canon));
  // The rebuilt tree's canonical bytes read back to the same tree.
  JsonValue canon_root;
  std::vector<dtree::NodeSpec> canon_nodes;
  dtree::Tree canon_tree;
  const bool ok = json_parse(canon, &canon_root) &&
                  dtree::nodes_from_json(canon_root, &canon_nodes).empty() &&
                  dtree::tree_from_nodes(canon_nodes, &canon_tree).empty() &&
                  dtree::canonical_nodes_json(canon_tree) == canon;
  EXPECT_TRUE(ok) << "rebuilt tree does not round-trip its canonical form";
  return ok;
}

std::string model_document() {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(150, {.function = 2, .seed = 17}),
      data::quest_paper_bins());
  dtree::ModelMeta meta;
  meta.harness = "mutation_test";
  meta.tag = "serial.P1";
  return dtree::model_json(dtree::grow_bfs(ds, {}), meta);
}

std::string events_document() {
  mpsim::Machine m(3);
  mpsim::EventRecorder rec;
  m.set_event_recorder(&rec);
  rec.open_phase("histogram");
  m.charge_compute_time(0, 10.7);
  m.charge_compute_time(1, 3.3);
  m.charge_comm(2, 40.55, 5.0, 5.0, 1, 40.0);
  rec.close_phase();
  m.barrier_over({0, 1, 2});
  m.charge_io(1, 2.5);
  obs::EventLogMeta meta;
  meta.formulation = "sync";
  meta.procs = 3;
  std::ostringstream os;
  obs::write_events_report(os, rec, meta);
  return os.str();
}

TEST(ParserMutation, ModelDocumentMutantsFailCleanlyOrRoundTrip) {
  const std::string doc = model_document();
  Tally tally;
  ASSERT_TRUE(check_mutant(doc, &tally));
  ASSERT_EQ(tally.trees, 1);
  std::mt19937_64 rng(1998);
  for (int i = 0; i < kMutantsPerDocument; ++i) {
    const std::string m = mutate(doc, rng);
    ASSERT_TRUE(check_mutant(m, &tally)) << "mutant " << i << ":\n" << m;
  }
  EXPECT_GT(tally.parse_errors, 0);
  EXPECT_GT(tally.reader_errors, 0);
  EXPECT_GT(tally.replay_errors, 0);
  EXPECT_GT(tally.trees, 1);
}

/// Feed a mutant that parses as JSON through the events reader; a log
/// it accepts must replay (blame on) to one clock per rank.
bool check_event_log_mutant(const std::string& text, Tally* tally) {
  JsonValue root;
  if (!json_parse(text, &root)) return true;  // counted by check_mutant
  tools::EventLog log;
  std::string err;
  if (!tools::parse_event_log(root, &log, &err)) {
    ++tally->log_errors;
    EXPECT_FALSE(err.empty()) << "parse_event_log failed silently";
    return !err.empty();
  }
  ++tally->replays;
  const mpsim::ClockFold fold =
      tools::replay_log(log, log.cost, /*with_blame=*/true);
  EXPECT_EQ(fold.clocks().size(), static_cast<std::size_t>(log.nprocs));
  return fold.clocks().size() == static_cast<std::size_t>(log.nprocs);
}

TEST(ParserMutation, EventLogMutantsFailCleanlyOrRoundTrip) {
  const std::string doc = events_document();
  Tally tally;
  ASSERT_TRUE(check_event_log_mutant(doc, &tally));
  ASSERT_EQ(tally.replays, 1);
  std::mt19937_64 rng(1998);
  for (int i = 0; i < kMutantsPerDocument; ++i) {
    const std::string m = mutate(doc, rng);
    ASSERT_TRUE(check_mutant(m, &tally)) << "mutant " << i << ":\n" << m;
    ASSERT_TRUE(check_event_log_mutant(m, &tally))
        << "mutant " << i << ":\n" << m;
  }
  EXPECT_GT(tally.parse_errors, 0);
  // An event log has no "nodes" array: every well-formed mutant stops at
  // the node reader with an error.
  EXPECT_GT(tally.reader_errors, 0);
  EXPECT_EQ(tally.trees, 0);
  EXPECT_GT(tally.log_errors, 0);
  EXPECT_GT(tally.replays, 1);
}

/// A perf-history reader under test: reads `text`, and on success
/// writes the records it read back out through the matching writer.
/// Returns false with a message when it rejects the text.
using ReadWrite = bool (*)(const std::string& text, std::string* written,
                           std::string* error);

/// Seeded mutants of `doc` through `read`: each is rejected with a
/// message, or its written form reads back to the same bytes. Both
/// outcomes must occur, so the loop provably reaches the record code.
void fuzz_reader(const std::string& doc, ReadWrite read) {
  std::string written;
  std::string err;
  ASSERT_TRUE(read(doc, &written, &err)) << err;
  int rejected = 0;
  int round_trips = 0;
  std::mt19937_64 rng(1998);
  for (int i = 0; i < kMutantsPerDocument; ++i) {
    const std::string m = mutate(doc, rng);
    err.clear();
    if (!read(m, &written, &err)) {
      ++rejected;
      ASSERT_FALSE(err.empty()) << "mutant " << i << " rejected silently:\n"
                                << m;
      continue;
    }
    std::string again;
    ASSERT_TRUE(read(written, &again, &err))
        << "mutant " << i << ": written form does not read back: " << err
        << "\n" << m;
    ASSERT_EQ(again, written) << "mutant " << i << ":\n" << m;
    ++round_trips;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(round_trips, 0);
}

tools::RunRecord run_record(std::int64_t seq) {
  tools::RunRecord rec;
  rec.seq = seq;
  rec.timestamp = "2026-01-02T03:04:05Z";
  rec.label = "ci-" + std::to_string(seq);
  EXPECT_TRUE(json_parse(R"({"git_sha": "abc123", "git_dirty": false})",
                         &rec.fingerprint));
  rec.virt.push_back({"fig6_speedup", "quest-f2", "hybrid", 8, 1234.5, 6.25,
                      0.78125});
  tools::TrendHostTuple host;
  host.entry = {"fig6_speedup", "hybrid.P8", "hybrid", 8, 3, 2.5e6, 1.25e4};
  host.cells.push_back({"histogram", 2, 1.5e6, 830.25});
  host.cells.push_back({"(unattributed)", -1, 2e5, 0.0});
  rec.host.push_back(host);
  rec.model.push_back({"fig6_speedup", "hybrid.P8", "hybrid", 8,
                       "9f86d081884c7d65", 31, 16, 7, 0.9375});
  tools::TrendFtTuple ft;
  ft.harness = "fault_tolerance";
  ft.formulation = "sync";
  ft.procs = 8;
  ft.scenario = "fail-stop";
  ft.time_us = 5e4;
  ft.overhead_us = 1.5e3;
  ft.retries = 2;
  rec.ft.push_back(ft);
  rec.blame.push_back({3, 2, 5, "all-reduce", 42.5});
  return rec;
}

TEST(ParserMutation, RegistryMutantsFailCleanlyOrRoundTrip) {
  fuzz_reader(
      tools::registry_text({run_record(1), run_record(2)}),
      [](const std::string& text, std::string* written, std::string* error) {
        std::vector<tools::RunRecord> runs;
        if (!tools::parse_registry(text, &runs, error)) return false;
        *written = tools::registry_text(runs);
        return true;
      });
}

TEST(ParserMutation, BaselineMutantsFailCleanlyOrRoundTrip) {
  std::ostringstream doc;
  tools::write_baseline(
      {{"fig6_speedup", "quest-f2", "sync", 4, 2048.5, 3.5, 0.875},
       {"fig6_speedup", "quest-f2", "hybrid", 16, 1024.25, 9.75, 0.609375}},
      doc);
  fuzz_reader(doc.str(), [](const std::string& text, std::string* written,
                            std::string* error) {
    JsonValue root;
    std::vector<tools::DiffEntry> entries;
    if (!json_parse(text, &root, error) ||
        !tools::parse_baseline(root, &entries, error)) {
      return false;
    }
    std::ostringstream os;
    tools::write_baseline(entries, os);
    *written = os.str();
    return true;
  });
}

}  // namespace
}  // namespace pdt
