#include "mpsim/comm_ledger.hpp"

#include <algorithm>
#include <cassert>

namespace pdt::mpsim {

const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::AllReduce: return "all-reduce";
    case CollectiveKind::Broadcast: return "broadcast";
    case CollectiveKind::PairwiseExchange: return "pairwise-exchange";
    case CollectiveKind::Transfers: return "transfers";
    case CollectiveKind::AllToAll: return "all-to-all";
  }
  return "?";
}

void CommLedger::ensure_ranks(int n) {
  if (n <= n_) return;
  std::vector<double> words(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n), 0.0);
  std::vector<std::uint64_t> messages(words.size(), 0);
  for (Rank f = 0; f < n_; ++f) {
    for (Rank t = 0; t < n_; ++t) {
      const std::size_t src = cell(f, t);
      const std::size_t dst = static_cast<std::size_t>(f) *
                                  static_cast<std::size_t>(n) +
                              static_cast<std::size_t>(t);
      words[dst] = words_[src];
      messages[dst] = messages_[src];
    }
  }
  words_ = std::move(words);
  messages_ = std::move(messages);
  n_ = n;
}

int CommLedger::set_level(int level) {
  const int prev = level_;
  level_ = level;
  return prev;
}

void CommLedger::record(CollectiveEntry e) {
  e.level = level_;
  max_level_ = std::max(max_level_, e.level);
  entries_.push_back(e);
}

void CommLedger::add_traffic(Rank from, Rank to, double words,
                             std::uint64_t messages) {
  ensure_ranks(std::max(from, to) + 1);
  assert(from >= 0 && to >= 0 && words >= 0.0);
  words_[cell(from, to)] += words;
  messages_[cell(from, to)] += messages;
}

double CommLedger::words(Rank from, Rank to) const {
  if (from >= n_ || to >= n_) return 0.0;
  return words_[cell(from, to)];
}

std::uint64_t CommLedger::messages(Rank from, Rank to) const {
  if (from >= n_ || to >= n_) return 0;
  return messages_[cell(from, to)];
}

double CommLedger::words_sent(Rank r) const {
  double sum = 0.0;
  if (r >= n_) return sum;
  for (Rank t = 0; t < n_; ++t) sum += words_[cell(r, t)];
  return sum;
}

double CommLedger::words_received(Rank r) const {
  double sum = 0.0;
  if (r >= n_) return sum;
  for (Rank f = 0; f < n_; ++f) sum += words_[cell(f, r)];
  return sum;
}

namespace {

void accumulate(CommLedger::Totals& t, const CollectiveEntry& e) {
  ++t.calls;
  t.words += e.words;
  t.predicted_us += e.predicted_us;
  t.measured_us += e.measured_us;
  t.io_us += e.io_us;
  t.retry_us += e.retry_us;
  t.messages += e.messages;
  t.retries += e.retries;
}

}  // namespace

CommLedger::Totals CommLedger::kind_totals(CollectiveKind k) const {
  Totals t;
  for (const CollectiveEntry& e : entries_) {
    if (e.kind == k) accumulate(t, e);
  }
  return t;
}

CommLedger::Totals CommLedger::level_totals(int level) const {
  Totals t;
  for (const CollectiveEntry& e : entries_) {
    if (e.level == level) accumulate(t, e);
  }
  return t;
}

}  // namespace pdt::mpsim
