// Durable on-disk checkpoints (pdt-ckpt-v1) and crash-restart resume.
//
// The in-memory LevelCheckpoint (core/recovery.hpp) survives a rank
// fail-stop but not a process death: kill the driver and the whole tree
// is gone. This module makes the same cut durable. With
// ParOptions::ckpt_dir set, every worklist iteration of the three
// formulations serializes its run state to `ckpt-<epoch>.pdt` — the
// canonical tree bytes (dtree::canonical_nodes_json, so the section
// digest IS the model digest at the cut), the frontier row ownership of
// every partition, per-rank memory accounts as provenance, and the
// cost-model + environment fingerprint the run was built with. Files are
// committed through obs::AtomicFile (fsync + rename), each section
// carries its own SHA-256, and the loader validates newest-to-oldest:
// a corrupt, torn or truncated epoch is rejected and the previous valid
// epoch is used instead — a bad file is never trusted, only skipped.
//
// Resume (ParOptions::resume) rebuilds the tree by replaying expand()
// over the parsed canonical nodes (dtree::tree_from_nodes), checks each
// saved row against its node, re-charges the restore I/O at t_io per
// record word, and hands the builders back their worklists, each part on
// the ranks it was saved with. Tree content is a pure function of the
// dataset and grow options — partitioning, virtual clocks and rng state
// affect only *when* work happens, never which split wins — so a resumed
// run's final model digest is bit-identical to an uninterrupted run's
// even though its clocks differ. That digest identity is the acceptance
// criterion (DESIGN.md §13); clock state is deliberately not
// checkpointed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/frontier.hpp"

namespace pdt::core {

/// One core::Part as the file holds it, with no Machine: its member
/// ranks (ascending), the hybrid's accumulated communication cost since
/// the last split (zero for sync/partitioned), and the frontier it was
/// about to expand. On disk the frontier's node ids are canonical
/// (level-order over reachable nodes); DurableCheckpointer::save remaps
/// from arena ids, and the tree a resume rebuilds has arena == canonical,
/// so loaded ids are valid without a reverse map.
struct CkptPart {
  std::vector<mpsim::Rank> ranks;
  double acc_comm = 0.0;
  std::vector<NodeWork> frontier;
};

/// Everything one pdt-ckpt-v1 epoch holds. `tree_json` is the exact
/// canonical_nodes_json byte string; `tree_digest` is its SHA-256 — the
/// model digest of the partially grown tree at this cut.
struct RunSnapshot {
  std::string formulation;   ///< "sync" | "partitioned" | "hybrid"
  int epoch = -1;
  int num_procs = 0;
  std::uint64_t seed = 0;
  int levels = 0;
  int partition_splits = 0;
  int rejoins = 0;
  std::int64_t records_moved = 0;
  double histogram_words = 0.0;
  double record_words = 0.0;          ///< wire words per record (dataset check)
  mpsim::CostModel cost;              ///< constants the run was charged with
  std::string fingerprint;            ///< build/host provenance, never validated
  std::string tree_digest;
  std::string tree_json;
  std::vector<CkptPart> parts;        ///< active worklist, in restore order
  std::vector<std::vector<mpsim::Rank>> idle;  ///< hybrid idle groups
  std::vector<mpsim::MemStats> mem;   ///< per-rank byte accounts (provenance)
};

/// Serialize a snapshot to the full pdt-ckpt-v1 file bytes: a header
/// naming the epoch, then three sections (meta, tree, state), each
/// framed as `section <name> <bytes> <sha256hex>\n` + payload + `\n`.
[[nodiscard]] std::string ckpt_text(const RunSnapshot& snap);

/// Parse + validate pdt-ckpt-v1 bytes: header structure, section
/// framing, per-section digests, meta completeness, state consistency
/// (each group's ranks in bounds and strictly ascending, member counts).
/// Returns "" on success, else a description of the first problem —
/// callers treat any non-empty return as "this epoch is corrupt, skip
/// back".
[[nodiscard]] std::string parse_ckpt(std::string_view text, RunSnapshot* out);

/// The on-disk epoch store: `<dir>/ckpt-<epoch>.pdt` files plus a
/// MANIFEST naming the newest commit. The manifest is written for
/// humans and tools; the loader never trusts it — it globs the epoch
/// files and validates their content directly.
class CheckpointStore {
 public:
  /// `dir` must already exist (empty disables the store); `keep` newest
  /// epochs are retained, older files pruned after each save.
  CheckpointStore(std::string dir, int keep);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string epoch_path(int epoch) const;
  /// Newest epoch number present on disk (no content validation), -1
  /// when the directory holds no epoch files.
  [[nodiscard]] int latest_epoch() const;

  /// Write `text` (ckpt_text bytes) as epoch `epoch`'s file atomically,
  /// refresh the MANIFEST, prune old epochs. `bytes_out` (optional)
  /// receives the committed size.
  [[nodiscard]] bool save(int epoch, const std::string& text,
                          std::int64_t* bytes_out = nullptr);

  /// Load the newest valid epoch (<= max_epoch when >= 0): epochs that
  /// fail to read or validate are counted in `skipped` and skipped
  /// back. Returns the loaded epoch, or -1 when none validates;
  /// `error` receives the first rejection reason (or why nothing was
  /// found). Never throws on corrupt input — corruption is a skip, not
  /// a crash.
  [[nodiscard]] int load_latest(RunSnapshot* out, int max_epoch, int* skipped,
                                std::string* error) const;

 private:
  [[nodiscard]] std::vector<int> list_epochs() const;  // ascending

  std::string dir_;
  int keep_;
};

/// Builder-side driver: constructed once per build_* call, it numbers
/// epochs after the newest already on disk (so a resumed run continues
/// the sequence), and save() snapshots the live ParContext + worklist,
/// charges each rank ParContext::write_records for its frontier shard,
/// commits the epoch and honours the ckpt_crash_epoch test hook
/// (std::_Exit(137) after commit — a SIGKILL stand-in that leaves only
/// committed files behind).
class DurableCheckpointer {
 public:
  DurableCheckpointer(ParContext& ctx, std::string formulation);

  /// The worklist to build from: the resumed parts, with their idle
  /// groups appended to `idle` when given, or else the whole-machine
  /// root part (ParContext::initial_root).
  [[nodiscard]] std::vector<Part> start(
      std::vector<mpsim::Group>* idle = nullptr);

  /// Checkpoint the current cut; a no-op unless ckpt_dir is set. `parts`
  /// carry arena node ids (written as canonical ones); `idle` lists the
  /// hybrid's idle groups. Throws std::runtime_error when the write
  /// cannot be committed — a requested durability guarantee that
  /// silently is not one would be worse than failing the run.
  void save(const std::vector<Part>& parts,
            const std::vector<mpsim::Group>& idle = {});

 private:
  [[nodiscard]] bool enabled() const { return !store_.dir().empty(); }

  ParContext* ctx_;
  std::string formulation_;
  CheckpointStore store_;
  int epoch_ = 0;
};

/// Resume `ctx` from the newest valid epoch in options().ckpt_dir (for
/// DurableCheckpointer::start). Returns false (leaving ctx untouched)
/// when resume is off or no valid epoch exists — the build starts from
/// scratch. On success: the tree is rebuilt from the canonical bytes, run
/// counters restored, each rank's rows re-read (read_records),
/// recovery.resume_* filled in, and `out` holds the snapshot whose
/// parts/idle become the worklist, every node with its cells gathered.
/// Throws std::runtime_error when the checkpoint is valid but
/// incompatible with this run (different formulation, P, seed or
/// dataset record width, a row past the dataset, or a node whose rows
/// are not exactly the ones the tree routes to it) — that is a caller
/// bug, not corruption.
[[nodiscard]] bool resume_from_checkpoint(ParContext& ctx,
                                          const std::string& formulation,
                                          RunSnapshot* out);

}  // namespace pdt::core
