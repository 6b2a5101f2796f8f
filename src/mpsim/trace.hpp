// Lightweight event trace of the simulated run. Used by the
// `formulations_tour` example to replay the schematics of Figures 2-5 and
// by tests to assert that the expected sequence of phases happened.
#pragma once

#include <string>
#include <vector>

#include "mpsim/cost_model.hpp"

namespace pdt::mpsim {

enum class EventKind {
  Compute,        ///< a local-computation charge
  AllReduce,      ///< a class-histogram (or other) reduction
  Broadcast,
  PointToPoint,
  MovingPhase,    ///< subcube<->subcube record exchange at a split
  LoadBalance,    ///< intra-subcube record-count evening
  PartitionSplit, ///< a processor partition divided in two
  Rejoin,         ///< an idle partition joined a busy one
  Barrier,
  Checkpoint,     ///< a per-level frontier checkpoint was written
  RankFail,       ///< a fail-stopped rank was detected by its group
  Recovery,       ///< the group shrank and restored from a checkpoint
  Retry,          ///< a collective attempt failed transiently and retried
  Resume,         ///< the run restarted from a durable on-disk checkpoint
  Note,           ///< free-form annotation from the algorithm
};

[[nodiscard]] const char* to_string(EventKind k);

struct TraceEvent {
  Time time = 0.0;       ///< virtual time at which the event completed
  EventKind kind = EventKind::Note;
  int rank = -1;         ///< representative rank (first group member for
                         ///< collectives); -1 when no rank applies
  int group_base = 0;    ///< subcube base of the group involved
  int group_size = 1;
  double words = 0.0;    ///< traffic volume, where applicable
  std::string detail;    ///< human-readable annotation
};

/// Append-only trace. Disabled by default (zero overhead beyond a branch);
/// enable for examples and debugging.
class Trace {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(TraceEvent ev) {
    if (enabled_) events_.push_back(std::move(ev));
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// Number of recorded events of the given kind.
  [[nodiscard]] std::size_t count(EventKind k) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace pdt::mpsim
