// SDUR server: Algorithm 2 of the paper.
//
// One Server replicates one database partition. It embeds a Paxos engine
// (the partition's atomic broadcast instance) and a Certifier (the
// deterministic certification/reordering core) and implements:
//
//  - transaction submission: projecting a client transaction per partition
//    and broadcasting each projection to its partition, optionally delaying
//    the local broadcast (Section IV-D);
//  - the 2PC-like vote exchange that terminates global transactions, with
//    the reorder-threshold completion rule (Section IV-E);
//  - the abort-request recovery path for transactions whose submitter
//    failed between broadcasts (Section IV-F);
//  - multiversion reads: an update's first read at this partition is served
//    at the key's read frontier (Certifier::read_frontier — fresh, yet
//    never above an unresolved writer of that key), later reads at the
//    transaction's fixed snapshot once the key is final there; read routing
//    for non-local keys, and stable-prefix gossip for global read-only
//    snapshots;
//  - crash recovery: replaying the Paxos durable log rebuilds the replica
//    deterministically.
//
// Determinism: all state that certification depends on lives in the
// Certifier and changes only as a function of the delivered sequence,
// which atomic broadcast makes identical across the partition's replicas.
// Votes affect only *when* a global completes, never the certification
// outcome.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>

#include "paxos/engine.h"
#include "pdur/executor.h"
#include "sdur/certifier.h"
#include "sdur/config.h"
#include "sdur/messages.h"
#include "sdur/partitioning.h"
#include "sim/process.h"
#include "sim/replica_chooser.h"
#include "storage/flat_table.h"
#include "storage/mvstore.h"
#include "trace/trace.h"
#include "util/counters.h"

namespace sdur {

#define SDUR_SERVER_COUNTER_LIST(X)                                                   \
  X(delivered)                                                                        \
  X(committed_local)                                                                  \
  X(committed_global)                                                                 \
  X(aborted)                /* every abort completion, the next two included */       \
  X(cert_aborts)            /* failed certification here */                           \
  X(abort_request_aborts)   /* completed by an abort request */                       \
  X(stale_snapshot_aborts)  /* snapshot fell out of window */                         \
  X(reordered)              /* committed locals that leaped >=1 global */             \
  X(ticks_sent)                                                                       \
  X(abort_requests_sent)                                                              \
  X(reads_served)                                                                     \
  X(reads_routed)                                                                     \
  X(reads_deferred)                                                                   \
  X(reads_above_stable)     /* reads served above the stable prefix */                \
  X(pdur_single_core)       /* txns homed on one core (P-DUR fast path) */            \
  X(pdur_cross_core)        /* txns that paid the cross-core barrier */               \
  X(vote_batches_sent)      /* VoteBatchMsg flushes (per destination replica) */      \
  X(votes_batched)          /* votes carried by explicit batch flushes */             \
  X(votes_piggybacked)      /* votes that rode existing traffic for free */           \
  X(stale_votes_dropped)    /* votes for transactions delivered or late here */       \
  X(bypassed_locals)        /* locals committed past pending entries (ooo_bypass) */  \
  X(parked_locals)          /* locals parked behind a pending write conflict */       \
  X(speculated_globals)     /* globals out of the pending list before their votes */  \
  X(spec_commits)           /* speculations committed (writes applied at finalize) */ \
  X(spec_aborts)            /* speculations aborted by a vote (nothing to undo) */    \
  X(late_first_deliveries)  /* first deliveries at or below the floor: abort */       \
  X(reforwards)             /* missing parts re-forwarded on a commit retry */        \
  X(timed_reforwards)       /* missing parts the contact re-sent on its timer */

class Server : public sim::Process {
 public:
  /// Per-replica counters, listed once in SDUR_SERVER_COUNTER_LIST: `+=`
  /// (Deployment::total_stats) and `for_each` (sdur_sim) derive from it.
  struct Stats {
    SDUR_COUNTERS(Stats, SDUR_SERVER_COUNTER_LIST)
  };

  Server(sim::Network& net, sim::ProcessId pid, sim::Location loc, ServerConfig cfg,
         paxos::GroupConfig paxos_cfg, PartitioningPtr partitioning);

  /// Sets the store up as an own layer over `image`, the partition's
  /// shared initial load (null: an empty store), then starts Paxos timers,
  /// gossip and liveness timers.
  void start(std::shared_ptr<const storage::MVStore> image);

  /// Atomically broadcasts a new reorder threshold to this partition; all
  /// replicas switch at the same point in the delivery sequence (Section
  /// IV-E: "replicas can change the reordering threshold by broadcasting a
  /// new value of k").
  void broadcast_reorder_threshold(std::uint32_t k);

  PartitionId partition() const { return cfg_.partition; }
  /// Stable snapshot version (everything at or below it resolved): the
  /// snapshot this replica gossips for read-only transactions.
  Version sc() const { return cert_.stable(); }
  /// Highest assigned (certified) version, possibly unresolved.
  Version certified() const { return cert_.certified(); }
  std::uint64_t dc() const { return dc_; }
  std::uint32_t reorder_threshold() const { return cfg_.techniques.reorder_threshold; }
  std::size_t pending_count() const { return cert_.size(); }
  const Stats& stats() const { return stats_; }
  const storage::MVStore& store() const { return store_; }
  paxos::PaxosEngine& engine() { return *engine_; }
  const ServerConfig& config() const { return cfg_; }
  /// The delay estimate of Section IV-D: the one-way delay from this
  /// replica to partition p's replica 0, which sits in p's home region
  /// (0 for this partition).
  sim::Time delay_estimate(PartitionId p) const;
  /// The replica of partition p this server routes reads to: its nearest,
  /// lowest index on ties.
  sim::ProcessId read_replica(PartitionId p) const;
  /// Deduplication state sizes: clients with a session, outcomes kept,
  /// open rounds (transactions voted on here and not complete).
  std::size_t session_count() const { return sessions_.size(); }
  std::size_t outcome_count() const { return outcomes_.ring.size(); }
  std::size_t round_count() const { return rounds_.size(); }

  /// Serializes the server's deterministic state (store, certifier,
  /// sessions, outcomes, speculated rounds) into a checkpoint blob.
  paxos::Value encode_state() const;

  /// TEST-ONLY access to the certifier, used by audit tests to inject a
  /// certification bug on a single replica (tests/audit_test.cpp).
  Certifier& certifier_for_test() { return cert_; }

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override;
  void on_recover() override;

 private:
  // --- Submission ---------------------------------------------------------
  void handle_commit_request(Transaction tx);
  /// A commit retry for a global delivered here whose round lacks a
  /// partition's vote: charges that partition's chosen replica a miss and
  /// re-forwards the part (DESIGN.md "Failover").
  void reforward_missing_parts(const Transaction& tx);
  /// Charges `lost_at` a miss and re-forwards `tx`'s part for remote
  /// partition p, named from this replica; returns the replica it went to.
  sim::ProcessId reforward_part(const Transaction& tx, const std::vector<PartitionId>& involved,
                                PartitionId p, sim::ProcessId lost_at);
  /// The contact's own resend of part p, last sent to `sent_to`: every
  /// 2·δ_p + 100 ms, while `tx`'s round here lacks p's vote and nothing
  /// came from `sent_to` for the last 100 ms, re-forwards it; stops at the
  /// verdict or completion (DESIGN.md "Failover").
  void watch_part(std::shared_ptr<const Transaction> tx, PartitionId p, sim::ProcessId sent_to);
  PartTx project(const Transaction& tx, PartitionId p,
                 const std::vector<PartitionId>& involved) const;
  /// Sends an encoded PartTx into partition p's atomic broadcast: through
  /// this replica's engine, or to replica_for(p) of a remote partition.
  /// Returns the replica it went to.
  sim::ProcessId abcast(PartitionId p, const PartTx& t);
  /// The replica of remote partition p that chooser_ picks; replica 0,
  /// the bootstrap leader, while every replica is alike.
  sim::ProcessId replica_for(PartitionId p) const;

  // --- Delivery (Algorithm 2, lines 15-33) ----------------------------------
  void adeliver(const paxos::Value& value);
  /// CPU cost charged on the dispatcher for delivered transaction `t`.
  sim::Time delivery_cost(const PartTx& t) const;
  void process_delivery(PartTx t);
  /// Emits a verdict: a global's own vote; a failed certification's
  /// completion. P-DUR defers it until the core work finished.
  void emit_verdict(const PartTx& t, Outcome vote);
  /// Resolves `t`'s slot at `version` (a removed pending entry or a
  /// speculated global), applies its writes on commit and completes it.
  void finalize(const PartTx& t, Version version, Outcome outcome);
  /// The completion epilogue of every transaction: audit record, abort
  /// count, outcome history, client reply, closing the round.
  void complete(const PartTx& t, Outcome outcome);
  /// The one completion loop (see DESIGN.md "Completion"): in-order head
  /// completions, the threshold tick, out-of-order locals
  /// (techniques.ooo_bypass), then speculation of stalled global heads and
  /// finalization of settled speculations (techniques.speculation).
  void drain_pending();
  /// Why the pending-list head cannot complete now (Algorithm 2, line 29).
  enum class Stall : std::uint8_t {
    kNone,       // it can: `outcome` is its completion outcome
    kEmpty,      // no pending entry
    kCores,      // P-DUR: its core work is still in flight
    kVotes,      // a global missing votes
    kThreshold,  // a vote-complete global below its reorder threshold
  };
  Stall head_stall(Outcome& outcome) const;
  void schedule_threshold_tick();

  // --- P-DUR multi-core replica (src/pdur/) ---------------------------------
  /// True when this replica models pdur.cores > 1 simulated cores.
  bool parallel() const { return cfg_.pdur.cores > 1; }
  /// Runs once a transaction's per-core work finished: releases the
  /// pending entry, emits the deferred verdict.
  void finish_core_work(const PartTx& t, Outcome vote, Version version);

  // --- Global termination (see DESIGN.md "Global termination") --------------
  /// One global transaction's termination at this replica (Algorithm 2's
  /// vote exchange, Section IV-F's abort requests). Opened by its first
  /// vote or its commit verdict; closed by complete().
  struct Round {
    enum class Phase : std::uint8_t {
      kVoting,      // not certified to commit here (yet): collects votes only
      kPending,     // certified to commit, waiting in the pending list
      kSpeculated,  // out of the pending list, writes held in `tx` until finalize
      kSettled,     // speculated with its verdict known: queued for finalize
    };
    Phase phase = Phase::kVoting;
    /// Votes received per partition, this replica's own included.
    std::vector<std::pair<PartitionId, Outcome>> votes;
    /// Set on leaving kVoting.
    std::vector<PartitionId> involved;
    Version version = 0;
    sim::Time delivered_at = 0;
    sim::Time last_vote_resend = 0;
    sim::Time last_abort_request = 0;  // 0: none sent
    /// kSpeculated/kSettled: the transaction and its reorder threshold,
    /// moved out of the pending list (checkpoints carry both).
    PartTx tx;
    std::uint64_t rt = 0;

    /// Partition `p`'s vote, or null while it is missing.
    const Outcome* vote(PartitionId p) const;
    /// Delivered phases: kUnknown while an involved partition's vote is
    /// missing, else commit iff no partition voted abort.
    Outcome verdict() const;
  };
  /// Moves `t`'s round (opened if absent) into `phase` at `version` and
  /// indexes it in round_order_; leaving kVoting stamps delivered_at.
  Round& enter_phase(const PartTx& t, Round::Phase phase, Version version);
  /// First round of `phase` (or a later phase) in round_order_.
  auto phase_begin(Round::Phase phase) const {
    return round_order_.lower_bound({phase, 0});  // versions start at 1
  }
  /// Liveness for a round missing votes: resend ours, request theirs and,
  /// past missing_vote_timeout, have the leader request an abort, again
  /// every resend period, charging the replica asked before a miss.
  void chase_votes(TxId id, Round& r, sim::Time t_now);

  // --- Votes ----------------------------------------------------------------
  /// The one point where a vote enters a round. A vote that settles a
  /// speculated round's verdict moves it to kSettled, where the completion
  /// loop finds it without rescanning unsettled speculations.
  void record_vote(TxId id, PartitionId partition, Outcome vote);
  /// This partition's vote for `id`, or null: the round's while it is
  /// open, the outcome once complete (abort for an aborted global).
  const Outcome* own_vote(TxId id) const;
  /// Records this partition's vote (first one only) and sends it.
  void cast_own_vote(TxId id, const std::vector<PartitionId>& involved, Outcome v);
  void send_vote_to_peers(TxId id, const std::vector<PartitionId>& involved, Outcome v);
  /// Records one vote in its round; returns false when the vote was stale
  /// (the transaction was delivered here and is neither pending nor
  /// speculated). Callers drain_pending only on recorded votes: an extra
  /// drain could arm the threshold tick at a different time.
  bool handle_vote(TxId id, PartitionId partition, Outcome vote);
  void handle_vote_batch(const VoteBatchMsg& m);

  // --- Vote batching (see DESIGN.md "Vote exchange & batching") --------------
  /// Batching is a cross-partition optimization; single-partition
  /// deployments have no vote exchange to batch.
  bool batching() const { return cfg_.techniques.vote_batching && cfg_.num_partitions > 1; }
  /// Queue length per destination partition that triggers an immediate
  /// flush.
  static constexpr std::size_t kVoteBatchMax = 64;
  /// Queues a vote for partition p; flushes at kVoteBatchMax, else arms
  /// one vote_batch_interval timer covering all destination queues.
  void enqueue_vote(PartitionId p, TxId id, Outcome v);
  void flush_votes();
  void flush_votes_for(PartitionId p);
  /// Wraps a message headed to server `to` in a VotePiggybackMsg carrying
  /// that replica's pending vote suffix; returns the message unchanged
  /// when there is nothing to carry.
  sim::Message maybe_piggyback(sim::ProcessId to, sim::Message m);

  // --- Reads ------------------------------------------------------------------
  void handle_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  /// Charges the read on the key's owning core (parallel mode) before
  /// answering; serial mode answers inline.
  void schedule_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  void answer_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  void service_deferred_reads();

  // --- Checkpointing ----------------------------------------------------------
  /// Replaces the server's state from a checkpoint blob (recovery / state
  /// transfer). Votes for pending globals are re-fetched via vote requests.
  void install_state(const paxos::Value& blob);

  // --- Timers -------------------------------------------------------------------
  /// Arms the gossip, liveness and checkpoint timers (start and recovery).
  void arm_timers();
  void gossip_tick();
  void liveness_tick();
  void checkpoint_tick();

  ServerConfig cfg_;
  PartitioningPtr partitioning_;

  storage::MVStore store_;
  Certifier cert_;
  std::uint64_t dc_ = 0;  // delivered-transactions counter

  /// Open rounds by transaction id (the paper's VOTES, plus phases).
  std::unordered_map<TxId, Round> rounds_;
  /// Delivered rounds in liveness visit order: pending (pending-list
  /// order is version order for globals), then speculated, by version.
  std::map<std::pair<Round::Phase, Version>, TxId> round_order_;
  // --- Deduplication (see DESIGN.md "Deduplication") ---------------------------
  /// One client's transactions here: `last`, the highest seq delivered or
  /// abort-requested here, and the seqs delivered here not complete yet.
  struct Session {
    std::uint32_t last = 0;
    std::vector<std::uint32_t> open;
    bool is_open(std::uint32_t seq) const { return std::ranges::count(open, seq) > 0; }
    static auto fields(auto& m) { return std::tie(m.last, m.open); }
  };
  /// Sessions by tx_client(id), ordered so checkpoints encode them sorted.
  std::map<sim::ProcessId, Session> sessions_;
  /// True once `id` was delivered here: open in its session or complete.
  bool delivered(TxId id) const;
  /// Raises `s.last` (client `client`'s session) to `seq`. The seqs it
  /// skips were never delivered here and would take the late path, so the
  /// votes collected for them decide nothing: their kVoting rounds close.
  void raise_floor(sim::ProcessId client, Session& s, std::uint32_t seq);

  /// The last kHistoryLength final outcomes: a ring in completion order
  /// (the checkpoint order), indexed by a FlatTable.
  struct History {
    std::vector<TxId> ring;
    std::size_t oldest = 0;  // ring index of the oldest entry once full
    storage::FlatTable<Outcome> index;
    const Outcome* find(TxId id) const { return index.find(id); }
    /// Records `o` unless `id` is present, evicting the oldest entry past
    /// the bound.
    void record(TxId id, Outcome o);
    void encode(util::Writer& w) const;
    void install(util::Reader& r);
  };
  /// Final outcomes of completed transactions. Every replica completes a
  /// transaction with the same outcome, so checkpoints carry them; they
  /// answer client retries after a lost outcome message and vote requests
  /// after completion, and mark a transaction delivered.
  History outcomes_;

  /// Latest known snapshot counters of all partitions (gossip).
  std::vector<Version> gsc_;
  Version last_gossiped_sc_ = -1;

  struct DeferredRead {
    std::uint64_t reqid;
    sim::ProcessId client;
    Key key;
    Version snapshot;
  };
  std::deque<DeferredRead> deferred_reads_;

  /// Per-destination-partition vote outbox. `cursor[i]` is the queue
  /// prefix already carried to replica i of that partition by a piggyback
  /// (every replica of every involved partition needs every vote; votes
  /// are idempotent, so over-delivery is harmless but under-delivery would
  /// stall completion until the vote-resend repair). The outbox is
  /// volatile — not checkpointed; after a crash the resend/vote-request
  /// machinery re-sources anything lost.
  struct VoteOutbox {
    std::vector<VoteBatchEntry> queue;
    std::vector<std::size_t> cursor;  // one per replica of the partition
    void clear() {
      queue.clear();
      std::fill(cursor.begin(), cursor.end(), 0);
    }
  };
  std::vector<VoteOutbox> vote_outbox_;
  bool vote_flush_pending_ = false;
  /// Reused flush scratch so steady-state flushes allocate only on queue
  /// high-water growth.
  VoteBatchMsg scratch_batch_;
  /// Destination pid -> (partition, replica index), for piggybacking on
  /// unicasts addressed by process id.
  std::unordered_map<sim::ProcessId, std::pair<PartitionId, std::size_t>> peer_index_;
  /// Picks the replica of a remote partition that forwards go to.
  sim::ReplicaChooser chooser_;

  std::unique_ptr<paxos::PaxosEngine> engine_;
  /// P-DUR core executor; null in the serial (cores == 1) model.
  std::unique_ptr<pdur::Executor> executor_;
  Stats stats_;
  bool tick_pending_ = false;
  /// Lifecycle trace track of this replica (kNoTrack in untraced runs).
  std::uint32_t trace_track_ = trace::kNoTrack;
};

}  // namespace sdur
