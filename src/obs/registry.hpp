// Named-metrics registry: counters, gauges, and histograms that the
// formulations update on their hot paths and the exporters serialize.
//
// Handles (Counter* / Gauge* / Histogram*) are stable for the life of the
// registry, so call sites resolve a metric once and update it with a
// single null-check branch when observability is disabled.
//
// The registry is updated and read by the one thread that drives the
// Machine (DESIGN.md §14).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace pdt::obs {

/// Monotonically increasing total. Double-valued so word counts (which
/// the cost model keeps fractional) fit; exported as a number.
class Counter {
 public:
  void add(double v) { value_ += v; }
  void inc() { value_ += 1.0; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution summary: count/sum/min/max plus base-2 exponential
/// buckets (bucket i counts values in [2^(i-1), 2^i), bucket 0 counts
/// values < 1).
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void observe(double v) {
    ++count_;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = count_ == 1 ? v : std::max(max_, v);
    ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  /// Upper bound of bucket i (inclusive lower bounds are the previous
  /// bucket's upper bound).
  [[nodiscard]] static double bucket_bound(int i) {
    return std::ldexp(1.0, i);
  }

  [[nodiscard]] static int bucket_of(double v) {
    if (!(v >= 1.0)) return 0;
    // Clamp before the int cast: log2(huge/inf) would overflow the cast.
    if (v >= std::ldexp(1.0, kBuckets - 2)) return kBuckets - 1;
    const int b = static_cast<int>(std::floor(std::log2(v))) + 1;
    return std::min(b, kBuckets - 1);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Registry of named metrics. Lookup interns the name on first use;
/// iteration order is lexicographic (deterministic exports).
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name) {
    return state_.counters[std::string(name)];
  }
  [[nodiscard]] Gauge& gauge(std::string_view name) {
    return state_.gauges[std::string(name)];
  }
  [[nodiscard]] Histogram& histogram(std::string_view name) {
    return state_.histograms[std::string(name)];
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return state_.counters;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return state_.gauges;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return state_.histograms;
  }

 private:
  struct State {
    // std::map node stability keeps handles valid across later
    // insertions.
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
  };
  State state_;
};

}  // namespace pdt::obs
