// `pdt tree ckpt` — inspect and verify pdt-ckpt-v1 durable checkpoints.
//
// Points at either one epoch file or a checkpoint directory. Every file
// is validated through core::parse_ckpt — the same parser the resume
// path uses — so "pdt tree ckpt says ok" and "a crash-restart will
// accept this epoch" are the same statement. The MANIFEST is shown for
// orientation but, like the loader, never trusted: the verdict comes
// from the epoch files themselves.
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/ckpt.hpp"
#include "tree/tree.hpp"

namespace pdt::tools {

namespace {

namespace fs = std::filesystem;

std::int64_t total_records(const core::RunSnapshot& snap) {
  std::int64_t total = 0;
  for (const core::CkptPart& p : snap.parts) {
    for (const core::NodeWork& nw : p.frontier) total += nw.total_records();
  }
  return total;
}

std::size_t frontier_nodes(const core::RunSnapshot& snap) {
  std::size_t nodes = 0;
  for (const core::CkptPart& p : snap.parts) nodes += p.frontier.size();
  return nodes;
}

/// One epoch file: validate and print a summary line. Returns true when
/// the file parses clean.
bool inspect_file(const fs::path& path, bool verbose, std::ostream& os) {
  std::string bytes;
  if (!read_file(path.string(), &bytes)) {
    os << path.string() << ": unreadable\n";
    return false;
  }
  core::RunSnapshot snap;
  const std::string err = core::parse_ckpt(bytes, &snap);
  if (!err.empty()) {
    os << path.string() << ": INVALID (" << err << ")\n";
    return false;
  }
  os << path.string() << ": ok — epoch " << snap.epoch << ", "
     << snap.formulation << " P=" << snap.num_procs << ", " << bytes.size()
     << " bytes\n";
  os << "  tree    " << snap.tree_digest.substr(0, 12) << "...  ("
     << snap.tree_json.size() << " canonical bytes), " << snap.levels
     << " level(s) grown\n";
  os << "  work    " << snap.parts.size() << " partition(s), "
     << frontier_nodes(snap) << " frontier node(s), " << total_records(snap)
     << " owned record(s)";
  if (!snap.idle.empty()) os << ", " << snap.idle.size() << " idle group(s)";
  os << "\n";
  if (!verbose) return true;
  os << "  seed " << snap.seed << ", record_words " << snap.record_words
     << ", splits " << snap.partition_splits << ", rejoins " << snap.rejoins
     << ", moved " << snap.records_moved << "\n";
  os << "  cost model: t_s=" << snap.cost.t_s << " t_w=" << snap.cost.t_w
     << " t_c=" << snap.cost.t_c << " t_io=" << snap.cost.t_io
     << " t_timeout=" << snap.cost.t_timeout << "\n";
  os << "  fingerprint: " << snap.fingerprint << "\n";
  for (std::size_t q = 0; q < snap.parts.size(); ++q) {
    const core::CkptPart& p = snap.parts[q];
    std::int64_t recs = 0;
    for (const core::NodeWork& nw : p.frontier) recs += nw.total_records();
    os << "  part " << q << ": ranks [";
    for (std::size_t m = 0; m < p.ranks.size(); ++m) {
      if (m > 0) os << " ";
      os << p.ranks[m];
    }
    os << "], " << p.frontier.size() << " node(s), " << recs << " record(s)";
    if (p.acc_comm > 0.0) os << ", acc_comm " << p.acc_comm << " us";
    os << "\n";
  }
  return true;
}

/// Epoch number from a `ckpt-<digits>.pdt` filename, or -1.
int epoch_of(const fs::path& path) {
  const std::string name = path.filename().string();
  if (name.size() <= 9 || name.compare(0, 5, "ckpt-") != 0 ||
      name.compare(name.size() - 4, 4, ".pdt") != 0) {
    return -1;
  }
  const std::string digits = name.substr(5, name.size() - 9);
  if (digits.empty()) return -1;
  for (const char c : digits) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return -1;
  }
  return std::atoi(digits.c_str());
}

int inspect_dir(const fs::path& dir, std::ostream& os) {
  std::vector<fs::path> epochs;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (epoch_of(e.path()) >= 0) epochs.push_back(e.path());
  }
  if (ec) {
    os << dir.string() << ": cannot list: " << ec.message() << "\n";
    return kExitFail;
  }
  std::sort(epochs.begin(), epochs.end(),
            [](const fs::path& a, const fs::path& b) {
              return epoch_of(a) < epoch_of(b);
            });

  std::string manifest;
  if (read_file((dir / "MANIFEST").string(), &manifest)) {
    os << "MANIFEST (advisory, never trusted by the loader):\n";
    std::istringstream ms(manifest);
    for (std::string line; std::getline(ms, line);) {
      os << "  " << line << "\n";
    }
  }
  if (epochs.empty()) {
    os << dir.string() << ": no ckpt-<epoch>.pdt files\n";
    return kExitFail;
  }

  int valid = 0;
  for (const fs::path& p : epochs) {
    if (inspect_file(p, /*verbose=*/false, os)) ++valid;
  }
  os << valid << "/" << epochs.size() << " epoch(s) valid\n";
  // Verify semantics: the directory passes only when every epoch file
  // it holds would be accepted by a resume.
  return valid == static_cast<int>(epochs.size()) ? kExitOk : kExitFail;
}

}  // namespace

int run_ckpt(const std::string& path, std::ostream& os) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) return inspect_dir(path, os);
  return inspect_file(path, /*verbose=*/true, os) ? kExitOk : kExitFail;
}

}  // namespace pdt::tools
