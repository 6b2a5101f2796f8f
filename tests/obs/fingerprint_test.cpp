// EnvFingerprint: provenance collection and deterministic JSON shape.
#include "obs/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "obs/export.hpp"

namespace pdt::obs {
namespace {

TEST(EnvFingerprint, CollectFillsEveryFieldWithSaneValues) {
  ::setenv("PDT_FP_TEST_B", "2", 1);
  ::setenv("PDT_FP_TEST_A", "1", 1);
  const EnvFingerprint fp = EnvFingerprint::collect();
  ::unsetenv("PDT_FP_TEST_A");
  ::unsetenv("PDT_FP_TEST_B");

  // The build embeds git metadata at configure time; outside a checkout
  // the fallback is "unknown", never empty.
  EXPECT_FALSE(fp.git_sha.empty());
  EXPECT_FALSE(fp.compiler.empty());
  EXPECT_NE(fp.compiler.find(' '), std::string::npos)
      << "compiler is \"<id> <version>\": " << fp.compiler;
  EXPECT_FALSE(fp.cpu.empty());
  EXPECT_GE(fp.cores, 1);
  EXPECT_FALSE(fp.hostname.empty());

  // Only PDT_* vars, sorted by name.
  bool saw_a = false;
  bool saw_b = false;
  for (std::size_t i = 0; i < fp.pdt_env.size(); ++i) {
    EXPECT_EQ(fp.pdt_env[i].first.rfind("PDT_", 0), 0u)
        << "non-PDT var leaked: " << fp.pdt_env[i].first;
    if (i > 0) {
      EXPECT_LT(fp.pdt_env[i - 1].first, fp.pdt_env[i].first)
          << "env not sorted";
    }
    if (fp.pdt_env[i].first == "PDT_FP_TEST_A") {
      saw_a = true;
      EXPECT_EQ(fp.pdt_env[i].second, "1");
    }
    if (fp.pdt_env[i].first == "PDT_FP_TEST_B") saw_b = true;
  }
  EXPECT_TRUE(saw_a && saw_b);
}

TEST(EnvFingerprint, WritesDeterministicJsonObject) {
  EnvFingerprint fp;
  fp.git_sha = "abc123";
  fp.git_dirty = true;
  fp.compiler = "gcc 13.2.0";
  fp.flags = "-O2 -g";
  fp.cpu = "Test CPU";
  fp.cores = 8;
  fp.hostname = "box";
  fp.pdt_env = {{"PDT_HOST", "1"}, {"PDT_SCALE", "0.05"}};

  std::ostringstream os1, os2;
  {
    JsonWriter w(os1);
    write_fingerprint(w, fp);
  }
  {
    JsonWriter w(os2);
    write_fingerprint(w, fp);
  }
  EXPECT_EQ(os1.str(), os2.str()) << "byte-identical re-render";
  const std::string out = os1.str();
  EXPECT_NE(out.find("\"git_sha\":\"abc123\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"git_dirty\":true"), std::string::npos);
  EXPECT_NE(out.find("\"compiler\":\"gcc 13.2.0\""), std::string::npos);
  EXPECT_NE(out.find("\"cores\":8"), std::string::npos);
  EXPECT_NE(out.find("\"PDT_HOST\":\"1\""), std::string::npos);
  EXPECT_LT(out.find("\"PDT_HOST\""), out.find("\"PDT_SCALE\""));
}

TEST(EnvFingerprint, PdtThreadsIsLiftedOutOfEnvAndOmittedWhenUnset) {
  // PDT_THREADS gets its own first-class field (next to cores) so
  // pdt trend explain can attribute a perf move to a requested
  // thread-count change without digging through the env map.
  ::setenv("PDT_THREADS", "16", 1);
  const EnvFingerprint with = EnvFingerprint::collect();
  ::unsetenv("PDT_THREADS");
  const EnvFingerprint without = EnvFingerprint::collect();
  EXPECT_EQ(with.pdt_threads, "16");
  EXPECT_TRUE(without.pdt_threads.empty());

  std::ostringstream os_with, os_without;
  {
    JsonWriter w(os_with);
    write_fingerprint(w, with);
  }
  {
    JsonWriter w(os_without);
    write_fingerprint(w, without);
  }
  EXPECT_NE(os_with.str().find("\"pdt_threads\":\"16\""), std::string::npos)
      << os_with.str();
  // Byte-identity rule: the key is omitted entirely when unset, so
  // pre-existing fingerprints don't change by a single byte.
  EXPECT_EQ(os_without.str().find("\"pdt_threads\""), std::string::npos)
      << os_without.str();
}

TEST(EnvFingerprint, CollectIsCachedPerProcess) {
  // bench_util::fingerprint() memoizes; collect() itself must also be
  // stable call-to-call for the fields that cannot change mid-process.
  const EnvFingerprint a = EnvFingerprint::collect();
  const EnvFingerprint b = EnvFingerprint::collect();
  EXPECT_EQ(a.git_sha, b.git_sha);
  EXPECT_EQ(a.compiler, b.compiler);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.cpu, b.cpu);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.hostname, b.hostname);
}

}  // namespace
}  // namespace pdt::obs
