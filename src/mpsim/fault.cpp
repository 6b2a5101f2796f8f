#include "mpsim/fault.hpp"

#include <algorithm>
#include <cassert>

namespace pdt::mpsim {

namespace {

/// Local splitmix64 so mpsim stays independent of the data library's Rng.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

RankFailure::RankFailure(Rank rank_in, int level_in, bool detected_in)
    : std::runtime_error("rank " + std::to_string(rank_in) +
                         " fail-stopped at level " +
                         std::to_string(level_in)),
      rank(rank_in),
      level(level_in),
      detected(detected_in) {}

namespace {

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::invalid_argument(std::string("FaultPlan: ") + what);
  }
}

}  // namespace

FaultPlan& FaultPlan::fail_stop(Rank rank, int level) {
  require(rank >= 0, "fail_stop rank must be >= 0");
  require(level >= 0, "fail_stop level must be >= 0");
  fail_stops_.push_back(FailStop{rank, level});
  return *this;
}

FaultPlan& FaultPlan::straggler(Rank rank, int from_level, int to_level,
                                double factor) {
  require(rank >= 0, "straggler rank must be >= 0");
  require(from_level >= 0, "straggler from_level must be >= 0");
  require(to_level >= from_level, "straggler to_level must be >= from_level");
  require(factor > 0.0, "straggler factor must be > 0");
  stragglers_.push_back(Straggler{rank, from_level, to_level, factor});
  return *this;
}

FaultPlan& FaultPlan::delay_link(Rank a, Rank b, double factor) {
  require(a >= 0 && b >= 0, "delay_link ranks must be >= 0");
  require(a != b, "delay_link endpoints must differ");
  require(factor > 0.0, "delay_link factor must be > 0");
  link_delays_.push_back(LinkDelay{a, b, factor});
  return *this;
}

FaultPlan& FaultPlan::corrupt_link(Rank a, Rank b, int level, int count) {
  require(a >= 0 && b >= 0, "corrupt_link ranks must be >= 0");
  require(a != b, "corrupt_link endpoints must differ");
  require(level >= 0, "corrupt_link level must be >= 0");
  require(count >= 1, "corrupt_link count must be >= 1");
  link_corrupts_.push_back(LinkCorrupt{a, b, level, count});
  return *this;
}

FaultPlan& FaultPlan::transient_timeout(Rank rank, int level, int count) {
  require(rank >= 0, "transient_timeout rank must be >= 0");
  require(level >= 0, "transient_timeout level must be >= 0");
  require(count >= 1, "transient_timeout count must be >= 1");
  transient_timeouts_.push_back(TransientTimeout{rank, level, count});
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, int nprocs, int max_level) {
  assert(nprocs >= 1 && max_level >= 1);
  std::uint64_t s = seed;
  FaultPlan plan;
  const Rank victim =
      static_cast<Rank>(splitmix64(s) % static_cast<std::uint64_t>(nprocs));
  const int fail_level =
      static_cast<int>(splitmix64(s) % static_cast<std::uint64_t>(max_level));
  plan.fail_stop(victim, fail_level);
  const Rank slow =
      static_cast<Rank>(splitmix64(s) % static_cast<std::uint64_t>(nprocs));
  const int from =
      static_cast<int>(splitmix64(s) % static_cast<std::uint64_t>(max_level));
  const double factor = 2.0 + static_cast<double>(splitmix64(s) % 7);
  plan.straggler(slow, from, from + 2, factor);
  return plan;
}

std::string FaultPlan::describe() const {
  if (empty()) return "no faults";
  std::string out;
  for (const FailStop& f : fail_stops_) {
    out += "fail-stop rank " + std::to_string(f.rank) + " @ level " +
           std::to_string(f.level) + "; ";
  }
  for (const Straggler& s : stragglers_) {
    out += "straggler rank " + std::to_string(s.rank) + " x" +
           std::to_string(s.factor).substr(0, 4) + " @ levels [" +
           std::to_string(s.from_level) + "," + std::to_string(s.to_level) +
           "]; ";
  }
  for (const LinkDelay& l : link_delays_) {
    out += "link " + std::to_string(l.a) + "<->" + std::to_string(l.b) +
           " x" + std::to_string(l.factor).substr(0, 4) + "; ";
  }
  for (const LinkCorrupt& c : link_corrupts_) {
    out += "corrupt link " + std::to_string(c.a) + "<->" +
           std::to_string(c.b) + " @ level " + std::to_string(c.level) +
           " x" + std::to_string(c.count) + "; ";
  }
  for (const TransientTimeout& t : transient_timeouts_) {
    out += "transient timeout rank " + std::to_string(t.rank) + " @ level " +
           std::to_string(t.level) + " x" + std::to_string(t.count) + "; ";
  }
  out.resize(out.size() - 2);
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, int nprocs)
    : plan_(std::move(plan)),
      alive_(static_cast<std::size_t>(nprocs), 1),
      recovered_(static_cast<std::size_t>(nprocs), 0),
      escalated_(static_cast<std::size_t>(nprocs), 0),
      level_(static_cast<std::size_t>(nprocs), -1),
      fired_(plan_.fail_stops().size(), 0) {
  assert(nprocs >= 1);
  corrupt_remaining_.reserve(plan_.link_corrupts().size());
  for (const LinkCorrupt& c : plan_.link_corrupts()) {
    corrupt_remaining_.push_back(c.count);
  }
  timeout_remaining_.reserve(plan_.transient_timeouts().size());
  for (const TransientTimeout& t : plan_.transient_timeouts()) {
    timeout_remaining_.push_back(t.count);
  }
}

void FaultInjector::enter_level(int level, const std::vector<Rank>& ranks) {
  for (const Rank r : ranks) {
    level_[static_cast<std::size_t>(r)] = level;
  }
  const auto& stops = plan_.fail_stops();
  for (std::size_t i = 0; i < stops.size(); ++i) {
    if (fired_[i] != 0 || stops[i].level != level) continue;
    for (const Rank r : ranks) {
      if (r == stops[i].rank && alive(r)) {
        alive_[static_cast<std::size_t>(r)] = 0;
        fired_[i] = 1;
        break;
      }
    }
  }
}

double FaultInjector::time_factor(Rank r) const {
  const int lvl = level_[static_cast<std::size_t>(r)];
  double factor = 1.0;
  for (const Straggler& s : plan_.stragglers()) {
    if (s.rank == r && lvl >= s.from_level && lvl <= s.to_level) {
      factor *= s.factor;
    }
  }
  return factor;
}

double FaultInjector::link_factor(Rank a, Rank b) const {
  double factor = 1.0;
  for (const LinkDelay& l : plan_.link_delays()) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      factor *= l.factor;
    }
  }
  return factor;
}

TransientVerdict FaultInjector::take_transient(const std::vector<Rank>& ranks,
                                               int max_attempts) {
  assert(max_attempts >= 1);
  const auto is_member = [&ranks](Rank r) {
    return std::find(ranks.begin(), ranks.end(), r) != ranks.end();
  };
  const auto consume = [this, max_attempts](int* remaining,
                                            Rank faulty) -> TransientVerdict {
    TransientVerdict v;
    v.faulty = faulty;
    if (*remaining <= max_attempts) {
      v.failures = *remaining;
      *remaining = 0;
    } else {
      v.failures = max_attempts;
      v.exhausted = true;
      *remaining = 0;  // the rank escalates to dead; drop the stale budget
    }
    return v;
  };
  const auto& corrupts = plan_.link_corrupts();
  for (std::size_t i = 0; i < corrupts.size(); ++i) {
    const LinkCorrupt& c = corrupts[i];
    if (corrupt_remaining_[i] <= 0) continue;
    if (!is_member(c.a) || !is_member(c.b) || !alive(c.a) || !alive(c.b)) {
      continue;
    }
    if (level(c.a) != c.level) continue;
    return consume(&corrupt_remaining_[i], c.a);
  }
  const auto& timeouts = plan_.transient_timeouts();
  for (std::size_t i = 0; i < timeouts.size(); ++i) {
    const TransientTimeout& t = timeouts[i];
    if (timeout_remaining_[i] <= 0) continue;
    if (!is_member(t.rank) || !alive(t.rank)) continue;
    if (level(t.rank) != t.level) continue;
    return consume(&timeout_remaining_[i], t.rank);
  }
  return TransientVerdict{};
}

void FaultInjector::kill(Rank r) {
  if (!alive(r)) return;
  alive_[static_cast<std::size_t>(r)] = 0;
  escalated_[static_cast<std::size_t>(r)] = 1;
}

std::vector<Rank> FaultInjector::alive_ranks() const {
  std::vector<Rank> out;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i] != 0) out.push_back(static_cast<Rank>(i));
  }
  return out;
}

}  // namespace pdt::mpsim
