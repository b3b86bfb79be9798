#include "paxos/durable_log.h"

#include <utility>

namespace sdur::paxos {

void InMemoryDurableLog::save_promise(Ballot b) {
  promise_ = b;
  ++writes_;
}

void InMemoryDurableLog::save_accepted(InstanceId inst, Ballot b, Value v) {
  LogRecord& rec = accepted_[inst];
  // A decision sharing the old bytes keeps them if new ones replace them.
  if (const auto d = decided_.find(inst); d != decided_.end() && !d->second && rec.value != v) {
    d->second = std::move(rec.value);
  }
  rec = LogRecord{b, std::move(v)};
  ++writes_;
}

std::optional<LogRecord> InMemoryDurableLog::load_accepted(InstanceId inst) const {
  auto it = accepted_.find(inst);
  if (it == accepted_.end()) return std::nullopt;
  return it->second;
}

void InMemoryDurableLog::save_decided(InstanceId inst, Value v) {
  // The quorum path decides the bytes accepted here: share them.
  const auto acc = accepted_.find(inst);
  if (acc != accepted_.end() && acc->second.value == v) {
    decided_[inst] = std::nullopt;
  } else {
    decided_[inst] = std::move(v);
  }
  ++writes_;
}

std::optional<Value> InMemoryDurableLog::load_decided(InstanceId inst) const {
  auto it = decided_.find(inst);
  if (it == decided_.end()) return std::nullopt;
  if (it->second) return it->second;
  return accepted_.at(inst).value;
}

InstanceId InMemoryDurableLog::decided_prefix() const {
  InstanceId next = truncated_below_;
  for (auto it = decided_.lower_bound(truncated_below_); it != decided_.end(); ++it) {
    if (it->first != next) break;
    ++next;
  }
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
  accepted_.erase(accepted_.begin(), accepted_.lower_bound(bound));
  decided_.erase(decided_.begin(), decided_.lower_bound(bound));
  truncated_below_ = std::max(truncated_below_, bound);
  ++writes_;
}

std::map<InstanceId, LogRecord> InMemoryDurableLog::accepted_from(InstanceId low) const {
  std::map<InstanceId, LogRecord> out;
  for (auto it = accepted_.lower_bound(low); it != accepted_.end(); ++it) out.insert(*it);
  return out;
}

}  // namespace sdur::paxos
