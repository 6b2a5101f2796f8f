// pdt tree — offline inspector for pdt-model-v1 documents.
//
// Unlike the other tools, pdt tree deliberately links the simulator's
// dtree and data libraries: its whole point is to *reconstruct* the
// serialized classifier (replaying Tree::expand() over the canonical
// node array, validating every derived field), recompute the content
// digest from the rebuilt tree, and re-run the held-out evaluation from
// the recorded provenance — none of which a pure-JSON reader could vouch
// for. A document that merely claims a digest is never trusted: the
// recomputed value wins, and a mismatch is flagged on every command.
//
//   inspect  shape/purity/audit summary of one model
//   diff     first divergent canonical node between two models (exit 1)
//   eval     regenerate the held-out Quest sample, re-measure accuracy,
//            exit 1 when it does not reproduce the recorded value
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "dtree/serialize.hpp"
#include "dtree/tree.hpp"

namespace pdt::tools {

/// A fully validated pdt-model-v1 document: the parsed node specs, the
/// tree rebuilt from them, and both digests (recorded vs. recomputed).
struct ModelDoc {
  std::string name;  ///< input path, for messages
  dtree::Tree tree;
  std::vector<dtree::NodeSpec> nodes;
  std::string recorded_digest;
  std::string computed_digest;
  JsonValue meta;   ///< the document's "meta" object (Null when absent)
  JsonValue audit;  ///< the document's "audit" array (Null when absent)

  [[nodiscard]] bool digest_match() const {
    return recorded_digest == computed_digest;
  }
};

/// One audited decision margin, looked up by canonical node id.
struct AuditMargin {
  bool found = false;
  double gain = 0.0;
  double runner_up_gain = 0.0;
  int runner_up_attr = -1;
};
[[nodiscard]] AuditMargin audit_margin(const ModelDoc& m, int node);

/// Parse + validate `root` (already JSON-parsed) into `*out`. Returns ""
/// on success, else a one-line description of the first inconsistency
/// (unknown schema, malformed node, replay validation failure).
[[nodiscard]] std::string parse_model(const JsonValue& root, ModelDoc* out);

/// `pdt tree inspect`: provenance, shape, per-level node/leaf table,
/// leaf-purity histogram, audit summary. Always kExitOk (informational),
/// but a recorded/recomputed digest mismatch is called out loudly.
int run_inspect(const ModelDoc& m, std::ostream& os);

/// `pdt tree diff`: kExitOk when the recomputed digests agree (the trees
/// are byte-identical in canonical form), else prints the first divergent
/// canonical node — with each side's test and its audited decision margin
/// — and returns kExitFail.
int run_diff(const ModelDoc& a, const ModelDoc& b, std::ostream& os);

/// `pdt tree eval`: regenerate the held-out sample from the recorded
/// provenance (Quest generator + optional paper binning), re-measure
/// accuracy and the confusion matrix, tally per-leaf hit counts. Returns
/// kExitFail when the document recorded a different accuracy (or the
/// provenance cannot be regenerated), else kExitOk.
int run_eval(const ModelDoc& m, std::ostream& os);

/// `pdt tree ckpt`: inspect/verify pdt-ckpt-v1 durable checkpoints.
/// `path` is one epoch file (detailed dump) or a checkpoint directory
/// (every epoch validated through core::parse_ckpt — the resume path's
/// own parser — plus the advisory MANIFEST). Returns kExitOk only when
/// everything inspected would be accepted by a crash-restart resume.
int run_ckpt(const std::string& path, std::ostream& os);

}  // namespace pdt::tools
