// Multi-Paxos atomic broadcast engine for one replica group.
//
// One engine instance runs per server per partition; together the group's
// engines implement the abcast/adeliver primitive of the paper (Section
// II-A): all correct group members deliver the same values in the same
// order, tolerating f < n/2 crash failures.
//
// Protocol structure (classic Multi-Paxos with a stable leader):
//  - Leader election: the leader heartbeats every 50 ms. A follower
//    suspects it once two heartbeats are missed, plus its link's jitter
//    and a 5 ms slack, and campaigns then (Phase 1 with a higher ballot)
//    from a timer at that very deadline. Candidates rank by their delay
//    to the last leader, successor order on ties, and rank r campaigns r
//    staggers later, so candidates do not duel. A candidate re-campaigns,
//    and a follower that last heard a candidate campaigns, only after the
//    election timeout, which covers a Phase 1 round trip. Both derive from
//    the group's worst one-way member delay d, jitter included, which the
//    engine reads from its endpoint's topology: a timeout of 200 ms + 2d
//    and a stagger of 2d + 50 ms, so the next candidate hears a Phase 1A
//    before its own deadline.
//  - Forwarding: a follower relays submitted values to its leader; once it
//    has missed two heartbeats it parks them until a leader's heartbeat
//    instead of relaying them to a leader that may be dead.
//  - Phase 1 runs once per leadership change over all instances >= the
//    candidate's decided prefix; the new leader re-proposes the
//    highest-ballot accepted value per instance and fills gaps with no-ops.
//  - Phase 2: the leader batches forwarded values (up to max_batch per
//    instance) and pipelines up to pipeline_window open instances.
//    Acceptors persist to the durable log before acknowledging, and
//    broadcast Phase 2B to *all* members so every replica learns a decision
//    two message delays after the proposal (this is the 4-delta local
//    termination path of the paper's Figure 1).
//  - Lagging replicas catch up from the leader's decided log, one request
//    outstanding at a time; a full reply asks for the next chunk at once.
//
// Values are opaque bytes. Delivery is exactly-ordered but, as with any
// forwarding-based broadcast, a value can be delivered more than once after
// leader changes; the layer above deduplicates by transaction id.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "paxos/durable_log.h"
#include "paxos/messages.h"
#include "paxos/types.h"
#include "sim/endpoint.h"
#include "trace/trace.h"
#include "util/counters.h"

namespace sdur::paxos {

#define SDUR_PAXOS_COUNTER_LIST(X) \
  X(proposed_batches)              \
  X(decided_instances)             \
  X(delivered_values)              \
  X(leader_elections)              \
  X(nacks)                         \
  X(resends)                       \
  X(checkpoints)                   \
  X(state_transfers_sent)          \
  X(state_transfers_installed)     \
  X(forwards_parked)

class PaxosEngine {
 public:
  /// Called once per delivered value, in delivery order.
  using DeliverFn = std::function<void(const Value&)>;
  /// Called to install a full application checkpoint (state transfer /
  /// recovery); replaces all application state derived from the log.
  using InstallFn = std::function<void(const Value&)>;

  PaxosEngine(sim::Endpoint& endpoint, GroupConfig config, std::unique_ptr<DurableLog> log,
              DeliverFn deliver);

  /// Starts timers. Member 0 immediately campaigns so the group has a
  /// leader from the start.
  void start();

  /// True if `t` falls in the Paxos message-tag range.
  static bool handles(sim::MsgType t) {
    return t >= msgtype::kFirst && t <= msgtype::kLast;
  }

  /// Feeds a network message into the engine.
  void handle_message(const sim::Message& m, ProcessId from);

  /// Submits a value for atomic broadcast. Forwards to the believed leader
  /// if this replica is not the leader.
  void propose(Value v);

  /// Rebuilds volatile state from the durable log after a crash/recover.
  void on_recover();

  /// Registers the application checkpoint installer (required to accept
  /// state transfers and to recover from a checkpointed log).
  void set_install_handler(InstallFn fn) { install_ = std::move(fn); }

  /// Last-hop hook over every message the engine sends: the wrapper may
  /// replace the outgoing message (same destination) — e.g. the SDUR vote
  /// batcher piggybacks pending cross-partition votes on engine traffic.
  /// Identity when unset. The wrapper must preserve delivery semantics:
  /// the receiver-side unwrap dispatches the inner message unchanged.
  using SendWrapper = std::function<sim::Message(ProcessId, sim::Message)>;
  void set_send_wrapper(SendWrapper fn) { send_wrapper_ = std::move(fn); }

  /// Persists `app_state`, the application state once every instance
  /// below `covered_upto` is applied, as a checkpoint and truncates the
  /// log below it; a no-op if a state transfer moved the log past it.
  /// Lagging replicas that request truncated instances receive the
  /// checkpoint instead.
  void save_checkpoint(Value app_state, InstanceId covered_upto);

  /// TEST-ONLY fault injection: when set, the acceptor skips the
  /// promised-ballot guard in Phase 2A and accepts values at stale
  /// ballots — a protocol safety bug the audit layer must catch
  /// (tests/audit_test.cpp). Never set outside tests.
  void test_accept_stale_ballots(bool v) { test_accept_stale_ballots_ = v; }

  bool is_leader() const { return role_ == Role::kLeader; }
  /// False from on_recover() until a leader's heartbeat shows this
  /// replica's delivered prefix within kCatchupThreshold of the leader's,
  /// or until it leads: a replica still replaying the log it missed.
  bool caught_up() const { return caught_up_; }
  /// Process id of the believed leader (self if leading).
  ProcessId leader_hint() const;
  InstanceId next_deliver() const { return next_deliver_; }
  Ballot current_ballot() const { return promised_; }
  const GroupConfig& config() const { return cfg_; }
  const DurableLog& log() const { return *log_; }
  /// Election timing derived from the members' worst one-way delay in the
  /// endpoint's topology: a candidate's re-campaign timeout, and the
  /// stagger between ranks.
  Time election_timeout() const;
  Time election_stagger() const;
  /// How long after its last leader contact a follower ranked first
  /// campaigns: two missed heartbeats plus its link's jitter and a slack.
  Time suspicion_timeout() const;
  /// When this replica last became leader (0: never).
  Time elected_at() const { return elected_at_; }

  struct Stats {
    SDUR_COUNTERS(Stats, SDUR_PAXOS_COUNTER_LIST)
  };
  const Stats& stats() const { return stats_; }

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  /// A value waiting for a leader, beside its hash (computed once, when it
  /// is queued, so value_in_flight() never re-hashes the queue).
  struct Queued {
    std::uint64_t hash = 0;
    Value value;
  };

  // Message handlers.
  void on_phase1a(const Phase1A& m, ProcessId from);
  void on_phase1b(const Phase1B& m, ProcessId from);
  void on_phase2a(Phase2A m, ProcessId from);
  void on_phase2b(const Phase2B& m, ProcessId from);
  void on_nack(const Nack& m);
  void on_heartbeat(const Heartbeat& m, ProcessId from);
  /// Queues a submitted or forwarded value for the leader.
  void on_forward(Queued item);
  void on_catchup_req(const CatchupReq& m, ProcessId from);
  void on_catchup_resp(const CatchupResp& m, ProcessId from);
  /// Asks `to` for the decided values from `from_instance` on; at most one
  /// request is outstanding (catchup_expires_).
  void request_catchup(ProcessId to, InstanceId from_instance);
  void on_state_transfer(const StateTransfer& m);

  void start_campaign();
  void become_leader();
  void step_down(Ballot seen);
  void maybe_propose();
  void open_instance(InstanceId inst, Value value, std::vector<std::uint64_t> item_hashes);
  void record_ack(InstanceId inst, Ballot b, std::uint32_t acceptor_index);
  void decide(InstanceId inst, Value value);
  void try_deliver();
  void tick();
  void broadcast(const sim::Message& m);
  /// All engine sends funnel through here so send_wrapper_ sees each one.
  void send_to(ProcessId to, const sim::Message& m);
  bool value_in_flight(std::uint64_t hash) const;
  /// A follower that has heard no leader for kLeaderSuspectAfter.
  bool leader_suspect() const;
  /// Values submitted here and last sent under a ballot below `leader`
  /// that are neither queued nor in an open instance here (forwarded to a
  /// leader that may have died with them), oldest first; marks them sent
  /// under the current ballot and restarts their resend clock.
  std::vector<Queued> stranded_submissions(Ballot leader);
  std::uint32_t member_index(ProcessId pid) const;
  /// Base one-way delay from member i to member j (0 when i == j), at the
  /// region granularity of sim::Topology::distance().
  Time delay(std::uint32_t i, std::uint32_t j) const;
  /// Worst one-way delay between two members, jitter included.
  Time member_delay() const;
  /// Member index of the proposer of the promised ballot (member 0 while
  /// nothing is promised).
  std::uint32_t last_leader_index() const;
  Time election_deadline() const;

  sim::Endpoint& ep_;
  GroupConfig cfg_;
  std::unique_ptr<DurableLog> log_;
  DeliverFn deliver_;
  InstallFn install_;
  SendWrapper send_wrapper_;

  Role role_ = Role::kFollower;
  Ballot promised_;          // highest ballot promised (persisted)
  Ballot highest_seen_;      // highest ballot observed anywhere
  ProcessId leader_hint_ = 0;
  Time last_leader_contact_ = 0;
  /// The last contact came from a leader (a heartbeat or Phase 2A), not
  /// from a candidate or this replica's own campaign.
  bool heard_leader_ = false;
  Time elected_at_ = 0;

  // Candidate state. Ordered so that become_leader()'s scan (and its
  // catchup-target tie-break) is independent of hashing/allocation.
  std::map<std::uint32_t, Phase1B> promises_;

  // Learner state: per-instance ack tracking (ballot, member bitmask).
  struct AckState {
    Ballot ballot;
    std::uint64_t mask = 0;
  };
  std::map<InstanceId, AckState> acks_;
  std::map<InstanceId, Value> undelivered_;  // decided, not yet delivered
  InstanceId next_deliver_ = 0;

  // Leader state.
  struct OpenInstance {
    Value value;
    Time proposed_at = 0;
    /// Hash of each value in the batch, computed once at open time so
    /// value_in_flight() never has to re-decode the batch.
    std::vector<std::uint64_t> item_hashes;
  };
  InstanceId next_instance_ = 0;
  std::map<InstanceId, OpenInstance> open_;
  std::deque<Queued> pending_;

  /// Values submitted via propose() on this replica, tracked until they are
  /// delivered. Periodically re-proposed so that a value submitted by a
  /// correct process is eventually delivered even if a forward message was
  /// lost or a leader died with it in flight (the layer above deduplicates
  /// by transaction id).
  struct SubmittedValue {
    Value value;
    Time submitted_at = 0;
    std::uint32_t count = 0;  // identical values in flight (e.g. ticks)
    std::uint64_t order = 0;  // submission order of the first copy
    Ballot sent_under;        // promised ballot when last forwarded or queued
  };
  /// Ordered: tick() re-proposes in iteration order, which must not depend
  /// on hashing/allocation.
  std::map<std::uint64_t, SubmittedValue> submitted_;
  std::uint64_t next_submit_order_ = 0;
  /// The newest leader ballot this replica re-drove its stranded
  /// submissions for: becoming leader, or a heartbeat at a higher ballot,
  /// re-drives them at once instead of at the next resend.
  Ballot redriven_for_;
  std::uint32_t behind_heartbeats_ = 0;
  /// While the clock is below it, a catch-up request is outstanding.
  Time catchup_expires_ = 0;
  bool caught_up_ = true;

  std::unordered_map<ProcessId, std::uint32_t> index_of_;
  /// Lifecycle trace track of this engine (kNoTrack in untraced runs).
  std::uint32_t trace_track_ = trace::kNoTrack;

  Stats stats_;
  bool test_accept_stale_ballots_ = false;
  /// Stable group identity for the audit oracle (hash of the member ids).
  std::uint64_t audit_group_ = 0;
};

}  // namespace sdur::paxos
