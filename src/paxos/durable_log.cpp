#include "paxos/durable_log.h"

#include <algorithm>
#include <utility>

namespace sdur::paxos {

const InMemoryDurableLog::Entry* InMemoryDurableLog::find(InstanceId inst) const {
  if (inst < first_ || inst - first_ >= entries_.size()) return nullptr;
  return &entries_[inst - first_];
}

InMemoryDurableLog::Entry& InMemoryDurableLog::slot(InstanceId inst) {
  if (inst < first_) {
    entries_.insert(entries_.begin(), first_ - inst, Entry{});
    first_ = inst;
  }
  if (inst - first_ >= entries_.size()) entries_.resize(inst - first_ + 1);
  return entries_[inst - first_];
}

void InMemoryDurableLog::save_promise(Ballot b) {
  promise_ = b;
  ++writes_;
}

void InMemoryDurableLog::save_accepted(InstanceId inst, Ballot b, Value v) {
  Entry& e = slot(inst);
  // A decision sharing the old bytes keeps them if new ones replace them.
  if (e.decided && !e.aside && e.value != v) {
    decided_aside_[inst] = std::move(e.value);
    e.aside = true;
  }
  e.ballot = b;
  e.value = std::move(v);
  e.accepted = true;
  ++writes_;
}

std::optional<LogRecord> InMemoryDurableLog::load_accepted(InstanceId inst) const {
  const Entry* e = find(inst);
  if (e == nullptr || !e->accepted) return std::nullopt;
  return LogRecord{e->ballot, e->value};
}

void InMemoryDurableLog::save_decided(InstanceId inst, Value v) {
  Entry& e = slot(inst);
  if (!e.accepted) {
    e.value = std::move(v);
  } else if (e.value == v) {
    // The quorum path decides the bytes accepted here: share them.
    if (e.aside) decided_aside_.erase(inst);
    e.aside = false;
  } else {
    decided_aside_[inst] = std::move(v);
    e.aside = true;
  }
  e.decided = true;
  ++writes_;
}

std::optional<Value> InMemoryDurableLog::load_decided(InstanceId inst) const {
  const Entry* e = find(inst);
  if (e == nullptr || !e->decided) return std::nullopt;
  return e->aside ? decided_aside_.at(inst) : e->value;
}

InstanceId InMemoryDurableLog::decided_prefix() const {
  InstanceId next = truncated_below_;
  for (const Entry* e = find(next); e != nullptr && e->decided; e = find(next)) ++next;
  return next;
}

void InMemoryDurableLog::save_checkpoint(const Value& app_state, InstanceId covered_upto) {
  checkpoint_ = {app_state, covered_upto};
  ++writes_;
}

std::optional<std::pair<Value, InstanceId>> InMemoryDurableLog::load_checkpoint() const {
  return checkpoint_;
}

void InMemoryDurableLog::truncate_below(InstanceId bound) {
  const auto drop = static_cast<std::ptrdiff_t>(
      std::min<InstanceId>(bound > first_ ? bound - first_ : 0, entries_.size()));
  entries_.erase(entries_.begin(), entries_.begin() + drop);
  first_ += static_cast<InstanceId>(drop);
  decided_aside_.erase(decided_aside_.begin(), decided_aside_.lower_bound(bound));
  truncated_below_ = std::max(truncated_below_, bound);
  if (entries_.empty()) first_ = truncated_below_;
  ++writes_;
}

std::map<InstanceId, LogRecord> InMemoryDurableLog::accepted_from(InstanceId low) const {
  std::map<InstanceId, LogRecord> out;
  for (InstanceId inst = std::max(low, first_); inst - first_ < entries_.size(); ++inst) {
    const Entry& e = entries_[inst - first_];
    if (e.accepted) out.emplace_hint(out.end(), inst, LogRecord{e.ballot, e.value});
  }
  return out;
}

}  // namespace sdur::paxos
