// Host (wall-clock) time sources for the HostProfiler.
//
// Everything else in src/obs measures the *virtual* clocks of the
// simulated machine; this header is the one place that touches the real
// host CPU. A HostClock abstracts the nanosecond timestamp source so the
// profiler's attribution logic is testable against a deterministic fake,
// while SteadyHostClock (std::chrono::steady_clock) is what production
// runs use.
#pragma once

#include <cstdint>

namespace pdt::obs {

/// Monotonic nanosecond timestamp source. Implementations must be
/// monotonic (now_ns() never decreases) and cheap: the profiler calls
/// now_ns() once per simulated charge.
class HostClock {
 public:
  virtual ~HostClock() = default;
  [[nodiscard]] virtual std::int64_t now_ns() = 0;
  /// Stable identifier serialized into pdt-host-v1 ("steady_clock",
  /// "fake", ...), so reports name their time source.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The production clock: std::chrono::steady_clock in nanoseconds.
class SteadyHostClock final : public HostClock {
 public:
  [[nodiscard]] std::int64_t now_ns() override;
  [[nodiscard]] const char* name() const override { return "steady_clock"; }
};

}  // namespace pdt::obs
