// Durable acceptor state.
//
// The paper's prototype logs delivered values with Berkeley DB so "the
// committed state of a server can be recovered from the log" (Section V).
// We model the same property: an acceptor persists its promise and every
// accepted (instance, ballot, value) before acknowledging, and a recovering
// replica reloads this state. The I/O cost is modeled by the engine, which
// delays acknowledgements by GroupConfig::log_write_latency.
//
// InMemoryDurableLog survives Process::crash()/recover() (the process
// object keeps owning it) — it plays the role of the disk. It keeps one
// dense record per instance, and a record's value is a slice of the
// message that carried it (paxos::Value): the members of a group that
// accepted one Phase 2A all hold that one buffer, never a copy of it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "paxos/types.h"

namespace sdur::paxos {

struct LogRecord {
  Ballot ballot;
  Value value;
};

class DurableLog {
 public:
  virtual ~DurableLog() = default;

  /// Persists the highest promised ballot.
  virtual void save_promise(Ballot b) = 0;
  virtual Ballot load_promise() const = 0;

  /// Persists an accepted value for an instance (overwrites lower ballots).
  /// Takes the value by value so callers that are done with the buffer can
  /// move it into the log instead of copying.
  virtual void save_accepted(InstanceId inst, Ballot b, Value v) = 0;
  virtual std::optional<LogRecord> load_accepted(InstanceId inst) const = 0;

  /// Marks an instance decided with `v` (learner checkpoint used for
  /// catchup after recovery).
  virtual void save_decided(InstanceId inst, Value v) = 0;
  virtual std::optional<Value> load_decided(InstanceId inst) const = 0;
  virtual InstanceId decided_prefix() const = 0;

  /// All accepted records with instance >= low (for Phase 1B).
  virtual std::map<InstanceId, LogRecord> accepted_from(InstanceId low) const = 0;

  // --- Checkpointing -------------------------------------------------------
  /// Persists an application checkpoint covering every instance below
  /// `covered_upto`, then allows the log below it to be truncated.
  virtual void save_checkpoint(const Value& app_state, InstanceId covered_upto) = 0;
  /// Latest persisted checkpoint, if any: (app_state, covered_upto).
  virtual std::optional<std::pair<Value, InstanceId>> load_checkpoint() const = 0;
  /// Discards accepted and decided records below `bound` (they are covered
  /// by a checkpoint).
  virtual void truncate_below(InstanceId bound) = 0;
  /// Smallest retained decided instance (covered_upto if everything below
  /// was truncated; 0 on a fresh log).
  virtual InstanceId first_retained() const = 0;

  /// Number of persisted write operations (tests verify write-before-ack).
  virtual std::uint64_t write_count() const = 0;
};

class InMemoryDurableLog final : public DurableLog {
 public:
  void save_promise(Ballot b) override;
  Ballot load_promise() const override { return promise_; }

  void save_accepted(InstanceId inst, Ballot b, Value v) override;
  std::optional<LogRecord> load_accepted(InstanceId inst) const override;

  void save_decided(InstanceId inst, Value v) override;
  std::optional<Value> load_decided(InstanceId inst) const override;
  InstanceId decided_prefix() const override;

  std::map<InstanceId, LogRecord> accepted_from(InstanceId low) const override;

  void save_checkpoint(const Value& app_state, InstanceId covered_upto) override;
  std::optional<std::pair<Value, InstanceId>> load_checkpoint() const override;
  void truncate_below(InstanceId bound) override;
  InstanceId first_retained() const override { return truncated_below_; }

  std::uint64_t write_count() const override { return writes_; }

 private:
  /// One instance. `value` holds the accepted bytes, or the decided ones
  /// while nothing is accepted; a decision whose bytes differ from the
  /// accepted record's (another ballot's value, learned by catchup, or one
  /// whose accepted record was overwritten since) keeps them aside.
  struct Entry {
    Ballot ballot;
    Value value;
    bool accepted = false;
    bool decided = false;
    bool aside = false;  // the decided bytes are decided_aside_[instance]
  };
  const Entry* find(InstanceId inst) const;
  /// The entry of `inst`, growing the log to cover it.
  Entry& slot(InstanceId inst);

  Ballot promise_;
  /// entries_[i] is instance first_ + i. first_ is first_retained() unless
  /// a record was saved below the truncation point since.
  std::deque<Entry> entries_;
  InstanceId first_ = 0;
  std::map<InstanceId, Value> decided_aside_;
  std::optional<std::pair<Value, InstanceId>> checkpoint_;
  InstanceId truncated_below_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace sdur::paxos
