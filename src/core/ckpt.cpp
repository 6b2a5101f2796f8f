#include "core/ckpt.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"
#include "json/json.hpp"
#include "mpsim/fault.hpp"
#include "obs/atomic_file.hpp"
#include "obs/fingerprint.hpp"

namespace pdt::core {

namespace {

namespace fs = std::filesystem;

/// Exact round-trip double rendering (C99 %a hexfloat): strtod restores
/// the identical bit pattern, which counters like histogram_words need —
/// a resumed run must finish with the same accounting as an
/// uninterrupted one, not one ulp off.
std::string double_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Read one whitespace-delimited token and strtod it (istream's >> does
/// not accept hexfloat). False when the token is missing or malformed.
bool read_double(std::istream& in, double* v) {
  std::string tok;
  if (!(in >> tok) || tok.empty()) return false;
  char* end = nullptr;
  *v = std::strtod(tok.c_str(), &end);
  return end == tok.c_str() + tok.size();
}

/// Expect the literal keyword `key` as the next token.
bool expect_key(std::istream& in, const char* key) {
  std::string tok;
  return (in >> tok) && tok == key;
}

// ---------------------------------------------------------------- meta --

std::string meta_text(const RunSnapshot& s) {
  std::ostringstream os;
  os << "formulation " << s.formulation << "\n"
     << "num_procs " << s.num_procs << "\n"
     << "seed " << s.seed << "\n"
     << "levels " << s.levels << "\n"
     << "partition_splits " << s.partition_splits << "\n"
     << "rejoins " << s.rejoins << "\n"
     << "records_moved " << s.records_moved << "\n"
     << "histogram_words " << double_exact(s.histogram_words) << "\n"
     << "record_words " << double_exact(s.record_words) << "\n"
     << "cost " << double_exact(s.cost.t_s) << " " << double_exact(s.cost.t_w)
     << " " << double_exact(s.cost.t_c) << " " << double_exact(s.cost.t_io)
     << " " << double_exact(s.cost.t_timeout) << "\n"
     << "fingerprint " << s.fingerprint << "\n"
     << "tree_digest " << s.tree_digest << "\n";
  return os.str();
}

std::string parse_meta(const std::string& text, RunSnapshot* out) {
  std::istringstream in(text);
  if (!expect_key(in, "formulation") || !(in >> out->formulation)) {
    return "meta: bad formulation";
  }
  if (!expect_key(in, "num_procs") || !(in >> out->num_procs) ||
      out->num_procs < 1) {
    return "meta: bad num_procs";
  }
  if (!expect_key(in, "seed") || !(in >> out->seed)) return "meta: bad seed";
  if (!expect_key(in, "levels") || !(in >> out->levels) || out->levels < 0) {
    return "meta: bad levels";
  }
  if (!expect_key(in, "partition_splits") || !(in >> out->partition_splits)) {
    return "meta: bad partition_splits";
  }
  if (!expect_key(in, "rejoins") || !(in >> out->rejoins)) {
    return "meta: bad rejoins";
  }
  if (!expect_key(in, "records_moved") || !(in >> out->records_moved)) {
    return "meta: bad records_moved";
  }
  if (!expect_key(in, "histogram_words") ||
      !read_double(in, &out->histogram_words)) {
    return "meta: bad histogram_words";
  }
  if (!expect_key(in, "record_words") || !read_double(in, &out->record_words)) {
    return "meta: bad record_words";
  }
  if (!expect_key(in, "cost") || !read_double(in, &out->cost.t_s) ||
      !read_double(in, &out->cost.t_w) || !read_double(in, &out->cost.t_c) ||
      !read_double(in, &out->cost.t_io) ||
      !read_double(in, &out->cost.t_timeout)) {
    return "meta: bad cost constants";
  }
  {
    std::string key;
    if (!(in >> key) || key != "fingerprint") return "meta: bad fingerprint";
    std::getline(in, out->fingerprint);
    if (!out->fingerprint.empty() && out->fingerprint.front() == ' ') {
      out->fingerprint.erase(0, 1);
    }
  }
  if (!expect_key(in, "tree_digest") || !(in >> out->tree_digest) ||
      out->tree_digest.size() != 64) {
    return "meta: bad tree_digest";
  }
  return "";
}

// --------------------------------------------------------------- state --

const std::vector<mpsim::Rank>& ranks_of(const CkptPart& p) { return p.ranks; }
const std::vector<mpsim::Rank>& ranks_of(const Part& p) {
  return p.group.ranks();
}

/// The state section of `s` with `parts` (CkptPart or Part) in place of
/// s.parts, each node id written through `canon_of` when it is given.
template <class P>
std::string state_text(const RunSnapshot& s, const std::vector<P>& parts,
                       const std::vector<int>* canon_of) {
  std::ostringstream os;
  os << "parts " << parts.size() << "\n";
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const P& p = parts[k];
    const std::vector<mpsim::Rank>& ranks = ranks_of(p);
    os << "part " << k << " acc_comm " << double_exact(p.acc_comm) << " ranks "
       << ranks.size();
    for (const mpsim::Rank r : ranks) os << " " << r;
    os << "\n"
       << "nodes " << p.frontier.size() << "\n";
    for (const NodeWork& nw : p.frontier) {
      const int id = canon_of == nullptr
                         ? nw.node_id
                         : (*canon_of)[static_cast<std::size_t>(nw.node_id)];
      assert(id >= 0);  // frontier nodes are reachable by construction
      os << "node " << id << " " << nw.members() << "\n";
      for (int m = 0; m < nw.members(); ++m) {
        os << "rows " << nw.member_records(m);
        for (const data::RowId row : nw.member_rows(m)) os << " " << row;
        os << "\n";
      }
    }
  }
  os << "idle " << s.idle.size() << "\n";
  for (const auto& g : s.idle) {
    os << "igroup " << g.size();
    for (const mpsim::Rank r : g) os << " " << r;
    os << "\n";
  }
  os << "mem " << s.mem.size() << "\n";
  for (std::size_t r = 0; r < s.mem.size(); ++r) {
    const mpsim::MemStats& m = s.mem[r];
    os << "rank " << r << " live";
    for (const std::int64_t b : m.live) os << " " << b;
    os << " " << m.live_total << " peak";
    for (const std::int64_t b : m.peak) os << " " << b;
    os << " " << m.peak_total << "\n";
  }
  return os.str();
}

std::string parse_state(const std::string& text, RunSnapshot* out) {
  std::istringstream in(text);
  const int P = out->num_procs;
  // A group lists its ranks in range and strictly ascending, as
  // mpsim::Group keeps them, so none twice. One rank may be in two
  // different groups: recovery's machine-wide adopter makes such cuts.
  const auto read_ranks = [&in, P](std::vector<mpsim::Rank>& group) {
    mpsim::Rank prev = -1;
    for (mpsim::Rank& r : group) {
      if (!(in >> r) || r <= prev || r >= P) return false;
      prev = r;
    }
    return true;
  };

  std::size_t nparts = 0;
  if (!expect_key(in, "parts") || !(in >> nparts)) return "state: bad parts";
  out->parts.resize(nparts);
  for (std::size_t k = 0; k < nparts; ++k) {
    CkptPart& p = out->parts[k];
    std::size_t idx = 0, nranks = 0;
    if (!expect_key(in, "part") || !(in >> idx) || idx != k ||
        !expect_key(in, "acc_comm") || !read_double(in, &p.acc_comm) ||
        !expect_key(in, "ranks") || !(in >> nranks) || nranks == 0 ||
        nranks > static_cast<std::size_t>(P)) {
      return "state: bad part header";
    }
    p.ranks.resize(nranks);
    if (!read_ranks(p.ranks)) return "state: part ranks not ascending in range";
    std::size_t nnodes = 0;
    if (!expect_key(in, "nodes") || !(in >> nnodes)) {
      return "state: bad node count";
    }
    p.frontier.resize(nnodes);
    for (NodeWork& nw : p.frontier) {
      std::size_t nmembers = 0;
      if (!expect_key(in, "node") || !(in >> nw.node_id) || nw.node_id < 0 ||
          !(in >> nmembers) || nmembers != nranks) {
        return "state: bad node header";
      }
      nw.offsets.assign(1, 0);
      for (std::size_t m = 0; m < nmembers; ++m) {
        std::size_t count = 0;
        if (!expect_key(in, "rows") || !(in >> count)) {
          return "state: bad row count";
        }
        const std::size_t begin = nw.rows.size();
        nw.rows.resize(begin + count);
        for (std::size_t i = begin; i < nw.rows.size(); ++i) {
          if (!(in >> nw.rows[i])) return "state: bad row id";
        }
        nw.offsets.push_back(static_cast<std::uint32_t>(nw.rows.size()));
      }
    }
  }

  std::size_t nidle = 0;
  if (!expect_key(in, "idle") || !(in >> nidle)) return "state: bad idle";
  out->idle.resize(nidle);
  for (auto& g : out->idle) {
    std::size_t n = 0;
    if (!expect_key(in, "igroup") || !(in >> n) || n == 0 ||
        n > static_cast<std::size_t>(P)) {
      return "state: bad idle group";
    }
    g.resize(n);
    if (!read_ranks(g)) return "state: idle ranks not ascending in range";
  }

  std::size_t nmem = 0;
  if (!expect_key(in, "mem") || !(in >> nmem) ||
      nmem != static_cast<std::size_t>(P)) {
    return "state: bad mem count";
  }
  out->mem.resize(nmem);
  for (std::size_t r = 0; r < nmem; ++r) {
    mpsim::MemStats& m = out->mem[r];
    std::size_t idx = 0;
    if (!expect_key(in, "rank") || !(in >> idx) || idx != r ||
        !expect_key(in, "live")) {
      return "state: bad mem rank";
    }
    for (std::int64_t& b : m.live) {
      if (!(in >> b)) return "state: bad mem live";
    }
    if (!(in >> m.live_total) || !expect_key(in, "peak")) {
      return "state: bad mem live total";
    }
    for (std::int64_t& b : m.peak) {
      if (!(in >> b)) return "state: bad mem peak";
    }
    if (!(in >> m.peak_total)) return "state: bad mem peak total";
  }
  std::string extra;
  if (in >> extra) return "state: trailing tokens";
  return "";
}

// ------------------------------------------------------------- framing --

void append_section(std::string& out, const char* name,
                    const std::string& payload) {
  out += "section ";
  out += name;
  out += " " + std::to_string(payload.size()) + " " +
         dtree::sha256_hex(payload) + "\n";
  out += payload;
  out += "\n";
}

/// Pull the next '\n'-terminated line off `rest`.
bool take_line(std::string_view& rest, std::string_view* line) {
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) return false;
  *line = rest.substr(0, nl);
  rest.remove_prefix(nl + 1);
  return true;
}

/// Parse `section <name> <bytes> <sha>` + payload + '\n' off `rest`,
/// verifying the framing and the payload digest.
std::string take_section(std::string_view& rest, const char* name,
                         std::string* payload) {
  std::string_view line;
  if (!take_line(rest, &line)) {
    return std::string("truncated before section ") + name;
  }
  std::istringstream hdr{std::string(line)};
  std::string tag, got;
  std::size_t nbytes = 0;
  std::string sha;
  if (!(hdr >> tag >> got >> nbytes >> sha) || tag != "section" ||
      got != name || sha.size() != 64) {
    return std::string("bad section header for ") + name;
  }
  if (rest.size() < nbytes + 1 || rest[nbytes] != '\n') {
    return std::string("section ") + name + " truncated";
  }
  *payload = std::string(rest.substr(0, nbytes));
  rest.remove_prefix(nbytes + 1);
  if (dtree::sha256_hex(*payload) != sha) {
    return std::string("section ") + name + " digest mismatch";
  }
  return "";
}

/// `epoch_path` file-name part, shared by writer and globber.
std::string epoch_file(int epoch) {
  return "ckpt-" + std::to_string(epoch) + ".pdt";
}

/// The file bytes of `snap` with `state` as its state section.
std::string file_text(const RunSnapshot& snap, const std::string& state) {
  std::string out = "pdt-ckpt-v1\n";
  out += "epoch " + std::to_string(snap.epoch) + "\n";
  out += "sections 3\n";
  append_section(out, "meta", meta_text(snap));
  append_section(out, "tree", snap.tree_json);
  append_section(out, "state", state);
  return out;
}

}  // namespace

std::string ckpt_text(const RunSnapshot& snap) {
  return file_text(snap, state_text(snap, snap.parts, nullptr));
}

std::string parse_ckpt(std::string_view text, RunSnapshot* out) {
  *out = RunSnapshot{};
  std::string_view rest = text;
  std::string_view line;
  if (!take_line(rest, &line) || line != "pdt-ckpt-v1") {
    return "not a pdt-ckpt-v1 file";
  }
  if (!take_line(rest, &line) || line.substr(0, 6) != "epoch ") {
    return "missing epoch line";
  }
  {
    std::istringstream in{std::string(line.substr(6))};
    if (!(in >> out->epoch) || out->epoch < 0) return "bad epoch number";
  }
  if (!take_line(rest, &line) || line != "sections 3") {
    return "missing sections line";
  }

  std::string meta, tree, state;
  std::string err = take_section(rest, "meta", &meta);
  if (err.empty()) err = take_section(rest, "tree", &tree);
  if (err.empty()) err = take_section(rest, "state", &state);
  if (!err.empty()) return err;
  if (!rest.empty()) return "trailing bytes after state section";

  err = parse_meta(meta, out);
  if (!err.empty()) return err;
  out->tree_json = std::move(tree);
  // The meta's digest must name the tree payload — the cross-check that
  // binds the sections of one epoch together.
  if (dtree::sha256_hex(out->tree_json) != out->tree_digest) {
    return "tree section does not match meta tree_digest";
  }
  return parse_state(state, out);
}

// ------------------------------------------------------ CheckpointStore --

CheckpointStore::CheckpointStore(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(std::max(1, keep)) {}

std::string CheckpointStore::epoch_path(int epoch) const {
  return dir_ + "/" + epoch_file(epoch);
}

std::vector<int> CheckpointStore::list_epochs() const {
  std::vector<int> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.compare(0, 5, "ckpt-") != 0 ||
        name.compare(name.size() - 4, 4, ".pdt") != 0) {
      continue;
    }
    const std::string num = name.substr(5, name.size() - 9);
    if (num.empty() ||
        num.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    epochs.push_back(std::atoi(num.c_str()));
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

int CheckpointStore::latest_epoch() const {
  const std::vector<int> epochs = list_epochs();
  return epochs.empty() ? -1 : epochs.back();
}

bool CheckpointStore::save(int epoch, const std::string& text,
                           std::int64_t* bytes_out) {
  {
    obs::AtomicFile f(epoch_path(epoch));
    if (!f.ok()) return false;
    f.stream().write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!f.commit()) return false;
  }
  {
    // Best effort: the manifest is a convenience pointer, not the source
    // of truth — load_latest globs and validates the epoch files.
    obs::AtomicFile mf(dir_ + "/MANIFEST");
    if (mf.ok()) {
      mf.stream() << "pdt-ckpt-manifest-v1\n"
                  << "latest " << epoch << "\n"
                  << "file " << epoch_file(epoch) << "\n";
      (void)mf.commit();
    }
  }
  const std::vector<int> epochs = list_epochs();
  if (static_cast<int>(epochs.size()) > keep_) {
    for (std::size_t i = 0; i + static_cast<std::size_t>(keep_) < epochs.size();
         ++i) {
      std::error_code ec;
      fs::remove(epoch_path(epochs[i]), ec);
    }
  }
  if (bytes_out != nullptr) {
    *bytes_out = static_cast<std::int64_t>(text.size());
  }
  return true;
}

int CheckpointStore::load_latest(RunSnapshot* out, int max_epoch, int* skipped,
                                 std::string* error) const {
  const std::vector<int> epochs = list_epochs();
  int skip = 0;
  std::string first_err;
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const int e = *it;
    if (max_epoch >= 0 && e > max_epoch) continue;  // bounded resume
    std::string err;
    std::ifstream in(epoch_path(e), std::ios::binary);
    if (!in) {
      err = "cannot open";
    } else {
      std::ostringstream buf;
      buf << in.rdbuf();
      RunSnapshot snap;
      err = parse_ckpt(buf.str(), &snap);
      if (err.empty() && snap.epoch != e) {
        err = "epoch field disagrees with file name";
      }
      if (err.empty()) *out = std::move(snap);
    }
    if (!err.empty()) {
      ++skip;
      if (first_err.empty()) first_err = epoch_file(e) + ": " + err;
      continue;
    }
    if (skipped != nullptr) *skipped = skip;
    if (error != nullptr) *error = first_err;
    return e;
  }
  if (skipped != nullptr) *skipped = skip;
  if (error != nullptr) {
    *error = first_err.empty() ? "no checkpoint epochs found" : first_err;
  }
  return -1;
}

// --------------------------------------------------- DurableCheckpointer --

DurableCheckpointer::DurableCheckpointer(ParContext& ctx,
                                         std::string formulation)
    : ctx_(&ctx),
      formulation_(std::move(formulation)),
      store_(ctx.options().ckpt_dir, ctx.options().ckpt_keep) {
  if (enabled()) epoch_ = store_.latest_epoch() + 1;
}

std::vector<Part> DurableCheckpointer::start(std::vector<mpsim::Group>* idle) {
  mpsim::Machine& machine = ctx_->machine();
  std::vector<Part> work;
  RunSnapshot snap;
  if (resume_from_checkpoint(*ctx_, formulation_, &snap)) {
    // The worklist was saved in vector order, so rebuilding it in the
    // same order preserves the pop sequence across the restart.
    for (CkptPart& p : snap.parts) {
      work.push_back(Part{mpsim::Group(machine, std::move(p.ranks)),
                          std::move(p.frontier), p.acc_comm});
    }
    for (std::vector<mpsim::Rank>& g : snap.idle) {
      if (idle != nullptr) idle->emplace_back(machine, std::move(g));
    }
    return work;
  }
  mpsim::Group all = mpsim::Group::whole(machine);
  std::vector<NodeWork> frontier;
  frontier.push_back(ctx_->initial_root(all));
  work.push_back(Part{std::move(all), std::move(frontier)});
  return work;
}

void DurableCheckpointer::save(const std::vector<Part>& parts,
                               const std::vector<mpsim::Group>& idle) {
  if (!enabled()) return;
  const obs::PhaseScope phase(ctx_->profiler(), "checkpoint");
  mpsim::Machine& machine = ctx_->machine();
  const dtree::Tree& tree = ctx_->tree();

  RunSnapshot snap;
  snap.formulation = formulation_;
  snap.epoch = epoch_;
  snap.num_procs = ctx_->options().num_procs;
  snap.seed = ctx_->options().seed;
  snap.levels = ctx_->levels;
  snap.partition_splits = ctx_->partition_splits;
  snap.rejoins = ctx_->rejoins;
  snap.records_moved = ctx_->records_moved;
  snap.histogram_words = ctx_->histogram_words;
  snap.record_words = ctx_->record_words();
  snap.cost = machine.cost();
  {
    const obs::EnvFingerprint fp = obs::EnvFingerprint::collect();
    snap.fingerprint = fp.compiler + " | " + fp.git_sha +
                       (fp.git_dirty ? "+dirty" : "") + " | " + fp.hostname;
  }
  snap.tree_json = dtree::canonical_nodes_json(tree);
  snap.tree_digest = dtree::sha256_hex(snap.tree_json);
  for (const mpsim::Group& g : idle) snap.idle.push_back(g.ranks());

  // Each rank serializes its frontier shard to stable storage through a
  // staging buffer at t_io per record word — the same charge the
  // in-memory take_checkpoint makes, so durable and in-memory
  // checkpoints are comparable in the cost breakdowns. No barrier: the
  // single-threaded simulation makes the cut consistent for free, and a
  // global sync would serialize the hybrid's asynchronous partitions. A
  // rank that died since its partition's last level writes nothing: the
  // partition's next checkpoint detects the death and recovers its rows.
  std::vector<std::int64_t> owned(static_cast<std::size_t>(machine.size()), 0);
  for (const Part& p : parts) {
    for (int m = 0; m < p.group.size(); ++m) {
      owned[static_cast<std::size_t>(p.group.rank(m))] +=
          frontier_member_records(p.frontier, m);
    }
  }
  mpsim::Time io_total = 0.0;
  std::int64_t records = 0;
  const mpsim::FaultInjector* inj = machine.fault();
  for (int r = 0; r < machine.size(); ++r) {
    const std::int64_t n = owned[static_cast<std::size_t>(r)];
    if (n == 0 || (inj != nullptr && !inj->alive(r))) continue;
    records += n;
    io_total += ctx_->write_records(r, n);
  }
  snap.mem.reserve(static_cast<std::size_t>(machine.size()));
  for (int r = 0; r < machine.size(); ++r) {
    snap.mem.push_back(machine.mem(r));
  }

  // Frontier node ids are arena ids mid-run; on disk they are canonical
  // (the ids the resumed, freshly replayed tree will carry).
  const std::vector<int> canon_of =
      dtree::canonical_ids(tree, dtree::canonical_order(tree));
  std::int64_t bytes = 0;
  if (!store_.save(
          epoch_, file_text(snap, state_text(snap, parts, &canon_of)),
          &bytes)) {
    throw std::runtime_error("durable checkpoint write failed: " +
                             store_.epoch_path(epoch_));
  }
  ctx_->recovery.durable_checkpoints += 1;
  ctx_->recovery.durable_bytes += bytes;
  ctx_->recovery.durable_io_us += io_total;
  if (machine.trace().enabled()) {
    machine.trace().record(
        {.time = machine.max_clock(),
         .kind = mpsim::EventKind::Checkpoint,
         .rank = parts.empty() ? 0 : parts.front().group.rank(0),
         .group_base = 0,
         .group_size = machine.size(),
         .words = static_cast<double>(bytes) / 4.0,
         .detail = "durable epoch " + std::to_string(epoch_) + ": " +
                   std::to_string(records) + " records, " +
                   std::to_string(bytes) + " bytes"});
  }
  if (ctx_->options().ckpt_crash_epoch == epoch_) {
    // SIGKILL stand-in for the crash-restart tests: no exit handlers, no
    // flushes — only files already committed through AtomicFile survive.
    std::_Exit(137);
  }
  ++epoch_;
}

// ------------------------------------------------ resume_from_checkpoint --

bool resume_from_checkpoint(ParContext& ctx, const std::string& formulation,
                            RunSnapshot* out) {
  const ParOptions& opt = ctx.options();
  if (!opt.resume || opt.ckpt_dir.empty()) return false;
  const obs::PhaseScope phase(ctx.profiler(), "resume");
  mpsim::Machine& machine = ctx.machine();

  const CheckpointStore store(opt.ckpt_dir, opt.ckpt_keep);
  int skipped = 0;
  std::string err;
  const int epoch = store.load_latest(out, opt.resume_epoch, &skipped, &err);
  ctx.recovery.resume_skipped = skipped;
  if (epoch < 0) return false;  // nothing valid on disk: cold start

  if (out->formulation != formulation) {
    throw std::runtime_error("resume: checkpoint is a " + out->formulation +
                             " run, not " + formulation);
  }
  if (out->num_procs != opt.num_procs) {
    throw std::runtime_error(
        "resume: checkpoint has P=" + std::to_string(out->num_procs) +
        ", run has P=" + std::to_string(opt.num_procs));
  }
  if (out->seed != opt.seed) {
    throw std::runtime_error("resume: checkpoint seed " +
                             std::to_string(out->seed) + " != run seed " +
                             std::to_string(opt.seed));
  }
  if (out->record_words != ctx.record_words()) {
    throw std::runtime_error(
        "resume: checkpoint record width does not match this dataset");
  }

  // Rebuild the tree by replaying expand() over the canonical nodes; the
  // replayed arena ids equal the canonical ids, so the checkpointed
  // frontier node ids are directly valid. The section digest covers these
  // exact bytes, so the rebuilt tree must re-serialize to them: any
  // variant spelling (whitespace, key order, number text) is rejected.
  // The split observer (model audit) is detached during the replay —
  // these are not new decisions.
  JsonValue section;
  std::vector<dtree::NodeSpec> nodes;
  dtree::Tree rebuilt;
  if (json_parse(out->tree_json, &section, &err)) {
    err = dtree::nodes_from_json(section, &nodes);
    if (err.empty()) err = dtree::tree_from_nodes(nodes, &rebuilt);
  }
  if (err.empty() && dtree::canonical_nodes_json(rebuilt) != out->tree_json) {
    err = "tree section is not canonical pdt-model-v1 nodes JSON";
  }
  if (err.empty()) {
    dtree::SplitObserver* observer = ctx.tree().split_observer();
    ctx.tree() = std::move(rebuilt);
    ctx.tree().set_split_observer(observer);
  }
  if (!err.empty()) {
    throw std::runtime_error("resume: epoch " + std::to_string(epoch) +
                             " tree rejected: " + err);
  }
  // Each node must hold exactly the rows the tree routes to it: as many
  // as its class counts, none listed twice across the frontier, each one
  // reaching it from the root. Any other set grows a different tree. A
  // node's rows are all checked against the dataset before any is read.
  const dtree::Tree& tree = ctx.tree();
  const data::Dataset& ds = ctx.dataset();
  std::vector<char> listed(ds.num_rows(), 0);
  for (CkptPart& p : out->parts) {
    for (NodeWork& nw : p.frontier) {
      const std::string node = "resume: frontier node " +
                               std::to_string(nw.node_id);
      if (nw.node_id >= tree.num_nodes() || !tree.node(nw.node_id).is_leaf()) {
        throw std::runtime_error(node + " is not a leaf of the tree");
      }
      for (const data::RowId row : nw.rows) {
        if (row >= ds.num_rows()) {
          throw std::runtime_error(
              node + " lists row " + std::to_string(row) + " of a " +
              std::to_string(ds.num_rows()) + "-row dataset");
        }
      }
      const std::int64_t counted = tree.node(nw.node_id).num_records();
      if (nw.total_records() != counted) {
        throw std::runtime_error(node + " holds " +
                                 std::to_string(nw.total_records()) +
                                 " rows; the tree counts " +
                                 std::to_string(counted));
      }
      for (const data::RowId row : nw.rows) {
        int id = tree.root();
        while (!tree.node(id).is_leaf()) {
          id = tree.node(id).first_child + tree.route(id, ds, row);
        }
        if (id != nw.node_id) {
          throw std::runtime_error(node + " lists row " + std::to_string(row) +
                                   ", which the tree routes to node " +
                                   std::to_string(id));
        }
        if (listed[row]++ != 0) {
          throw std::runtime_error(node + " lists row " + std::to_string(row) +
                                   " twice");
        }
      }
      // The file holds rows only: each node gathers its cells once.
      nw.cells = ctx.cells_of(nw.rows);
    }
  }

  ctx.levels = out->levels;
  ctx.partition_splits = out->partition_splits;
  ctx.rejoins = out->rejoins;
  ctx.records_moved = out->records_moved;
  ctx.histogram_words = out->histogram_words;

  // Every rank re-reads its frontier shard from the checkpoint at t_io
  // per record word and re-enters the rows in its Records account (peaks
  // restart at the live level — the pre-crash highs died with the
  // process and are kept in the file only as provenance).
  mpsim::Time io_total = 0.0;
  std::int64_t records = 0;
  for (const CkptPart& p : out->parts) {
    for (std::size_t m = 0; m < p.ranks.size(); ++m) {
      const std::int64_t n =
          frontier_member_records(p.frontier, static_cast<int>(m));
      if (n == 0) continue;
      records += n;
      io_total += ctx.read_records(p.ranks[m], n);
    }
  }

  ctx.recovery.resumed = true;
  ctx.recovery.resume_epoch = epoch;
  ctx.recovery.resume_io_us = io_total;
  ctx.recovery.resume_records = records;
  if (machine.trace().enabled()) {
    machine.trace().record(
        {.time = machine.max_clock(),
         .kind = mpsim::EventKind::Resume,
         .rank = out->parts.empty() ? 0 : out->parts.front().ranks.front(),
         .group_base = 0,
         .group_size = machine.size(),
         .words = static_cast<double>(records) * ctx.record_words(),
         .detail = "resumed from epoch " + std::to_string(epoch) +
                   (skipped > 0
                        ? " (skipped " + std::to_string(skipped) + " invalid)"
                        : "") +
                   ": " + std::to_string(records) + " records, tree " +
                   out->tree_digest.substr(0, 12)});
  }
  return true;
}

}  // namespace pdt::core
