#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "mpsim/comm_ledger.hpp"

namespace pdt::obs {
namespace {

// ---------------------------------------------------------------------------
// A strict little JSON syntax checker (values are not materialized). Keeps
// the golden-file checks self-contained without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > begin;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};
// ---------------------------------------------------------------------------

TEST(JsonWriter, BasicDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "x");
  w.kv("n", 3);
  w.key("list").begin_array().value(1.5).value(true).null().end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"name":"x","n":3,"list":[1.5,true,null]})");
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(JsonWriter, EscapesStringsAndControlCharacters) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("s", "a\"b\\c\n\t\x01");
  w.end_object();
  EXPECT_EQ(os.str(), "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.0);
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,null,1]");
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(JsonWriter, NonFiniteObjectValuesBecomeNullToo) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("bad", std::nan(""));
  w.kv("worse", -std::numeric_limits<double>::infinity());
  w.kv("fine", 2.0);
  w.end_object();
  EXPECT_EQ(os.str(), R"({"bad":null,"worse":null,"fine":2})");
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(JsonWriter, RoundTripsDoublesExactly) {
  std::ostringstream os;
  JsonWriter w(os);
  w.value(0.1 + 0.2);
  EXPECT_EQ(std::stod(os.str()), 0.1 + 0.2) << "%.17g must round-trip";
}

/// One small instrumented hybrid run shared by the export checks.
struct InstrumentedRun {
  InstrumentedRun() : o(ProfilerConfig{.timeline = true}) {
    const data::Dataset ds = data::discretize_uniform(
        data::quest_generate(1500, {.function = 2, .seed = 21}),
        data::quest_paper_bins());
    core::ParOptions opt;
    opt.num_procs = 8;
    opt.trace = true;
    opt.obs = &o;
    res = core::build(core::Formulation::Hybrid, ds, opt);
  }
  Observability o;
  core::ParResult res;
};

TEST(PerfettoExport, IsValidJsonWithTrackMetadata) {
  InstrumentedRun run;
  std::ostringstream os;
  write_perfetto_trace(os, run.o.profiler(), run.res.trace);
  const std::string trace = os.str();

  EXPECT_TRUE(JsonChecker(trace).valid()) << "trace must parse as JSON";
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"rank 7\""), std::string::npos);
  // Collectives became flow events.
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
}

TEST(PerfettoExport, SlicesAreMonotonePerRank) {
  InstrumentedRun run;
  ASSERT_FALSE(run.o.profiler().slices().empty());
  std::map<mpsim::Rank, double> end;
  for (const Slice& s : run.o.profiler().slices()) {
    EXPECT_GE(s.dur, 0.0);
    auto [it, fresh] = end.try_emplace(s.rank, 0.0);
    if (!fresh) {
      EXPECT_GE(s.start, it->second - 1e-9)
          << "rank " << s.rank << " slices must not overlap";
    }
    it->second = s.start + s.dur;
  }
  EXPECT_EQ(static_cast<int>(end.size()), 8) << "every rank has a track";
}

TEST(PerfettoExport, DeterministicForIdenticalRuns) {
  InstrumentedRun a;
  InstrumentedRun b;
  std::ostringstream osa;
  std::ostringstream osb;
  write_perfetto_trace(osa, a.o.profiler(), a.res.trace);
  write_perfetto_trace(osb, b.o.profiler(), b.res.trace);
  EXPECT_EQ(osa.str(), osb.str());
}

TEST(MetricsExport, ReportIsValidJsonWithExpectedFields) {
  InstrumentedRun run;
  std::ostringstream os;
  JsonWriter w(os);
  write_metrics(w, run.o);
  const std::string rep = os.str();

  EXPECT_TRUE(JsonChecker(rep).valid()) << "metrics report must parse";
  EXPECT_NE(rep.find("\"pdt-metrics-v1\""), std::string::npos);
  EXPECT_NE(rep.find("\"levels\""), std::string::npos);
  EXPECT_NE(rep.find("\"compute_us\""), std::string::npos);
  EXPECT_NE(rep.find("\"comm_us\""), std::string::npos);
  EXPECT_NE(rep.find("\"idle_us\""), std::string::npos);
  EXPECT_NE(rep.find("\"load_imbalance\""), std::string::npos);
  EXPECT_NE(rep.find("\"comm_to_compute\""), std::string::npos);
  EXPECT_NE(rep.find("\"record-shuffle\""), std::string::npos)
      << "the hybrid must have shuffled records";
  for (const char* gone : {"\"counters\"", "\"gauges\"", "\"histograms\""}) {
    EXPECT_EQ(rep.find(gone), std::string::npos) << gone;
  }
}

TEST(MetricsExport, EmptyObservabilityStillExportsCleanly) {
  Observability o;
  std::ostringstream os;
  JsonWriter w(os);
  write_metrics(w, o);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(CommExport, IsValidJsonWithSchemaFields) {
  InstrumentedRun run;
  std::ostringstream os;
  JsonWriter w(os);
  write_comm(w, run.o.comm_ledger(), &run.o.critical_path(),
             &run.o.profiler());
  const std::string doc = os.str();

  EXPECT_TRUE(JsonChecker(doc).valid()) << "pdt-comm-v1 must parse as JSON";
  EXPECT_NE(doc.find("\"pdt-comm-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"collectives\""), std::string::npos);
  EXPECT_NE(doc.find("\"all-reduce\""), std::string::npos);
  EXPECT_NE(doc.find("\"predicted_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"measured_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"delta_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"matrix\""), std::string::npos);
  EXPECT_NE(doc.find("\"bytes\""), std::string::npos);
  EXPECT_NE(doc.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(doc.find("\"top_segments\""), std::string::npos);
  EXPECT_NE(doc.find("\"by_phase\""), std::string::npos);
  EXPECT_NE(doc.find("\"handoffs\""), std::string::npos);
}

TEST(CommExport, DeterministicForIdenticalRuns) {
  InstrumentedRun a;
  InstrumentedRun b;
  std::ostringstream osa;
  std::ostringstream osb;
  JsonWriter wa(osa);
  JsonWriter wb(osb);
  write_comm(wa, a.o.comm_ledger(), &a.o.critical_path(), &a.o.profiler());
  write_comm(wb, b.o.comm_ledger(), &b.o.critical_path(), &b.o.profiler());
  EXPECT_EQ(osa.str(), osb.str());
}

TEST(CommExport, LedgerAloneExportsWithNullCriticalPath) {
  mpsim::CommLedger ledger;
  ledger.add_traffic(0, 1, 3.0);
  std::ostringstream os;
  JsonWriter w(os);
  write_comm(w, ledger);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
  EXPECT_NE(os.str().find("\"pdt-comm-v1\""), std::string::npos);
}

// Like InstrumentedRun but with the event log and host profiler riding
// along, for the pdt-host-v1 and events-overlay tests.
struct HostedRun {
  HostedRun(bool with_host = true) : o(ProfilerConfig{.timeline = true}) {
    o.enable_event_log();
    if (with_host) o.enable_host_profiler();
    const data::Dataset ds = data::discretize_uniform(
        data::quest_generate(1500, {.function = 2, .seed = 21}),
        data::quest_paper_bins());
    core::ParOptions opt;
    opt.num_procs = 8;
    opt.obs = &o;
    res = core::build(core::Formulation::Hybrid, ds, opt);
  }
  Observability o;
  core::ParResult res;
};

TEST(HostExport, ReportIsValidJsonWithSchemaFields) {
  HostedRun run;
  ASSERT_NE(run.o.host_profiler(), nullptr);
  std::ostringstream os;
  write_host_report(os, *run.o.host_profiler());
  const std::string doc = os.str();
  EXPECT_TRUE(JsonChecker(doc).valid());
  EXPECT_NE(doc.find("\"pdt-host-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"clock\":\"steady_clock\""), std::string::npos);
  EXPECT_EQ(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"phases\""), std::string::npos);
  // Rows are (phase, level) scopes: one thread runs every simulated
  // rank, so there is no per-rank host split.
  EXPECT_NE(doc.find("\"level\""), std::string::npos);
  EXPECT_EQ(doc.find("\"per_rank\""), std::string::npos);
  EXPECT_NE(doc.find("\"by_phase\""), std::string::npos);
  EXPECT_NE(doc.find("\"divergence_pp\""), std::string::npos);
  // Every host group carries its paired virtual account.
  EXPECT_NE(doc.find("\"virtual_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"virtual_total_us\""), std::string::npos);
}

TEST(HostExport, EventsLogWithoutHostStaysHostFree) {
  // A run whose exporter is not handed a host profiler must serialize
  // the exact pre-host pdt-events-v1 bytes: the overlay key is absent
  // even when a profiler was attached to the run.
  HostedRun hosted;
  HostedRun plain(/*with_host=*/false);
  ASSERT_NE(hosted.o.event_log(), nullptr);
  ASSERT_NE(plain.o.event_log(), nullptr);

  std::ostringstream with_overlay;
  write_events_report(with_overlay, *hosted.o.event_log(), {},
                      hosted.o.host_profiler());
  EXPECT_TRUE(JsonChecker(with_overlay.str()).valid());
  EXPECT_NE(with_overlay.str().find("\"host\""), std::string::npos);

  std::ostringstream hosted_no_overlay;
  write_events_report(hosted_no_overlay, *hosted.o.event_log(), {});
  std::ostringstream plain_os;
  write_events_report(plain_os, *plain.o.event_log(), {});
  EXPECT_EQ(hosted_no_overlay.str(), plain_os.str())
      << "host profiler must not perturb the recorded event stream";
  EXPECT_EQ(hosted_no_overlay.str().find("\"host\""), std::string::npos);
}

TEST(WriteThreads, EmitsOnlySchemaAndHardwareConcurrency) {
  Observability o;
  std::ostringstream a;
  write_threads_report(a, o);
  const std::string expected =
      "{\"schema\":\"pdt-threads-v1\",\"hardware_concurrency\":" +
      std::to_string(std::thread::hardware_concurrency()) + "}\n";
  EXPECT_EQ(a.str(), expected);
  EXPECT_TRUE(JsonChecker(a.str()).valid());
}

}  // namespace
}  // namespace pdt::obs
