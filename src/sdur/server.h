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
#include <unordered_set>

#include "paxos/engine.h"
#include "pdur/executor.h"
#include "sdur/certifier.h"
#include "sdur/config.h"
#include "sdur/messages.h"
#include "sdur/partitioning.h"
#include "sim/process.h"
#include "storage/mvstore.h"
#include "trace/trace.h"

namespace sdur {

class Server : public sim::Process {
 public:
  struct Stats {
    std::uint64_t delivered = 0;
    std::uint64_t committed_local = 0;
    std::uint64_t committed_global = 0;
    std::uint64_t aborted = 0;
    std::uint64_t stale_snapshot_aborts = 0;  // snapshot fell out of window
    std::uint64_t reordered = 0;              // locals that leaped >=1 global
    std::uint64_t ticks_sent = 0;
    std::uint64_t abort_requests_sent = 0;
    std::uint64_t reads_served = 0;
    std::uint64_t reads_routed = 0;
    std::uint64_t reads_deferred = 0;
    std::uint64_t reads_above_stable = 0;  // reads served above the stable prefix
    std::uint64_t pdur_single_core = 0;  // txns homed on one core (P-DUR fast path)
    std::uint64_t pdur_cross_core = 0;   // txns that paid the cross-core barrier
    std::uint64_t vote_batches_sent = 0;   // VoteBatchMsg flushes (per destination replica)
    std::uint64_t votes_batched = 0;       // votes carried by explicit batch flushes
    std::uint64_t votes_piggybacked = 0;   // votes that rode existing traffic for free
    std::uint64_t stale_votes_dropped = 0; // votes for already-completed transactions
    std::uint64_t bypassed_locals = 0;     // locals committed past pending entries (ooo_bypass)
    std::uint64_t parked_locals = 0;       // locals parked behind a pending write conflict
    std::uint64_t speculated_globals = 0;  // globals applied speculatively before their votes
    std::uint64_t spec_commits = 0;        // speculations finalized (versions promoted)
    std::uint64_t spec_aborts = 0;         // speculations rolled back on a remote abort vote

    /// Field-wise sum (Deployment::total_stats). A new field must be added
    /// here too; tests/deployment_test.cpp fails on any field left out.
    Stats& operator+=(const Stats& o);
  };

  Server(sim::Network& net, sim::ProcessId pid, sim::Location loc, ServerConfig cfg,
         paxos::GroupConfig paxos_cfg, PartitioningPtr partitioning);

  /// Starts Paxos timers, gossip and liveness timers.
  void start();

  /// Atomically broadcasts a new reorder threshold to this partition; all
  /// replicas switch at the same point in the delivery sequence (Section
  /// IV-E: "replicas can change the reordering threshold by broadcasting a
  /// new value of k").
  void broadcast_reorder_threshold(std::uint32_t k);

  /// Bulk-loads a key at version 0 (initial database population; done on
  /// every replica of the partition before start()).
  void load(Key k, std::string v) { store_.load(k, std::move(v)); }

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

  /// TEST-ONLY access to the certifier, used by audit tests to inject a
  /// certification bug on a single replica (tests/audit_test.cpp).
  Certifier& certifier_for_test() { return cert_; }

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override;
  void on_recover() override;

 private:
  // --- Submission ---------------------------------------------------------
  void handle_commit_request(Transaction tx);
  PartTx project(const Transaction& tx, PartitionId p,
                 const std::vector<PartitionId>& involved) const;
  /// Sends an encoded PartTx into partition p's atomic broadcast.
  void abcast(PartitionId p, const PartTx& t);

  // --- Delivery (Algorithm 2, lines 15-33) ----------------------------------
  void adeliver(const paxos::Value& value);
  /// CPU cost charged on the dispatcher for delivered transaction `t`.
  sim::Time delivery_cost(const PartTx& t) const;
  void process_delivery(PartTx t);
  /// Emits a verdict: a global's own vote; a failed certification's
  /// completion. P-DUR defers it until the core work finished.
  void emit_verdict(const PartTx& t, Outcome vote);
  /// Resolves `t`'s slot at `version` (a removed pending entry or a
  /// speculated global), applies, promotes or undoes its writes and
  /// completes it.
  void finalize(const PartTx& t, Version version, Outcome outcome);
  /// The completion epilogue of every transaction: audit record, abort
  /// count, outcome history, client reply, closing the round.
  void complete(const PartTx& t, Outcome outcome);
  void drain_pending();
  /// Out-of-order local commit (techniques.ooo_bypass): after the in-order
  /// drain stalls, commits every ready unparked local past the blocked
  /// prefix (see DESIGN.md "Out-of-order local commit").
  void bypass_sweep();
  /// In-order head drain; factored out so the speculation sweep can
  /// interleave with it.
  void drain_in_order();
  void schedule_threshold_tick();

  // --- Speculative global commit (techniques.speculation) -------------------
  // A locally-certified global at the pending-list head applies its writes
  // as speculative MVStore versions and leaves the pending list; its votes
  // later promote or roll them back. See DESIGN.md "Speculative global
  // commit".
  /// Speculates the global at the pending-list head; true on progress.
  bool speculate_head();
  /// Post-drain sweep: speculate eligible heads, finalize speculated
  /// globals whose votes are in; true on any progress.
  bool spec_sweep();

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
      kSpeculated,  // out of the pending list, writes applied speculatively
    };
    Phase phase = Phase::kVoting;
    /// Votes received per partition, this replica's own included.
    std::vector<std::pair<PartitionId, Outcome>> votes;
    /// Set on leaving kVoting.
    std::vector<PartitionId> involved;
    Version version = 0;
    sim::Time delivered_at = 0;
    sim::Time last_vote_resend = 0;
    bool abort_requested = false;
    /// kSpeculated: the transaction and its reorder threshold, moved out
    /// of the pending list (checkpoints carry both).
    PartTx tx;
    std::uint64_t rt = 0;

    /// Partition `p`'s vote, or null while it is missing.
    const Outcome* vote(PartitionId p) const;
    /// Records `p`'s vote; a repeat only replaces a kUnknown vote.
    void add_vote(PartitionId p, Outcome v);
    /// Delivered phases: kUnknown while an involved partition's vote is
    /// missing, else commit iff no partition voted abort.
    Outcome verdict() const;
  };
  /// Moves `t`'s round (opened if absent) into `phase` at `version` and
  /// indexes it in round_order_; leaving kVoting stamps delivered_at.
  Round& enter_phase(const PartTx& t, Round::Phase phase, Version version);
  /// First speculated round in round_order_.
  auto speculated_begin() const {
    return round_order_.lower_bound({Round::Phase::kSpeculated, 0});  // versions start at 1
  }
  /// Liveness for a round missing votes: resend ours, request theirs and,
  /// past missing_vote_timeout, have the leader request an abort.
  void chase_votes(TxId id, Round& r, sim::Time t_now);

  // --- Votes ----------------------------------------------------------------
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
  /// Queues a vote for partition p; flushes at vote_batch_max, else arms
  /// one vote_batch_interval timer covering all destination queues.
  void enqueue_vote(PartitionId p, TxId id, Outcome v);
  void flush_votes();
  void flush_votes_for(PartitionId p);
  /// Wraps a message headed to replica `replica_index` of partition `p` in
  /// a VotePiggybackMsg carrying that replica's pending vote suffix;
  /// returns the message unchanged when there is nothing to carry.
  sim::Message maybe_piggyback(PartitionId p, std::size_t replica_index, sim::Message m);
  /// Same, resolving an arbitrary destination process id (Paxos forwards,
  /// vote-request replies) to its (partition, replica) coordinates.
  sim::Message maybe_piggyback_pid(sim::ProcessId to, sim::Message m);

  // --- Reads ------------------------------------------------------------------
  void handle_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  /// Charges the read on the key's owning core (parallel mode) before
  /// answering; serial mode answers inline.
  void schedule_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  void answer_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  void service_deferred_reads();

  // --- Checkpointing ----------------------------------------------------------
  /// Serializes the server's deterministic state (store, certifier, dedup
  /// and vote tables, counters) into a checkpoint blob.
  paxos::Value encode_state() const;
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
  /// Abort requests delivered before their transaction.
  std::unordered_set<TxId> poisoned_;
  /// Delivered transaction ids (dedup across leader-change re-broadcasts).
  std::unordered_set<TxId> seen_;
  /// A bounded FIFO history of per-transaction outcomes, carried in
  /// checkpoints in insertion order.
  struct History {
    std::unordered_map<TxId, Outcome> map;
    std::deque<TxId> order;
    const Outcome* find(TxId id) const;
    /// Records `o` unless `id` is present (evicting the oldest entry past
    /// the bound); true when recorded.
    bool record(TxId id, Outcome o);
    void encode(util::Writer& w) const;
    void install(util::Reader& r);
  };
  /// Own votes for globals, kept after completion so they can be resent.
  History own_votes_;
  /// Final outcomes of completed transactions. Deterministic (every
  /// replica completes every transaction with the same outcome), so it is
  /// recorded on all replicas, carried in checkpoints, and used to answer
  /// duplicate commit requests (client retries after a lost outcome
  /// message) without re-executing.
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

  std::unique_ptr<paxos::PaxosEngine> engine_;
  /// P-DUR core executor; null in the serial (cores == 1) model.
  std::unique_ptr<pdur::Executor> executor_;
  Stats stats_;
  bool tick_pending_ = false;
  /// Lifecycle trace track of this replica (kNoTrack in untraced runs).
  std::uint32_t trace_track_ = trace::kNoTrack;
};

}  // namespace sdur
