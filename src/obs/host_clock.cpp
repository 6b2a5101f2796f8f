#include "obs/host_clock.hpp"

#include <chrono>

namespace pdt::obs {

std::int64_t SteadyHostClock::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace pdt::obs
