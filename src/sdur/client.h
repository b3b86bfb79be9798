// SDUR client library: Algorithm 1 of the paper.
//
// A client executes a transaction optimistically: reads go to a server of
// the partition holding the key (the first read fixes the partition's
// snapshot — with parallel first reads, the lowest snapshot any of them
// was served at; later reads at that partition carry it, so the client
// sees a consistent partition view), writes are buffered locally, and commit
// ships the whole transaction to a replica of the partition it touched
// first, which runs the termination protocol. Requests go to the nearest
// replica that has not missed more answers than the others. A read or
// snapshot still unanswered after its round trip plus a slack is retried;
// it charges its replica a miss unless that replica was heard from since
// the request reached it. A commit retry goes to the partition's next
// replica.
//
// Read-only transactions (Section III-A) first obtain a globally
// consistent snapshot vector (built asynchronously by servers via gossip)
// and then read at that snapshot on every partition; they commit without
// certification and never abort.
//
// The API is continuation-based because the client is an actor in the
// discrete-event simulation: operations complete via callbacks.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "sdur/messages.h"
#include "sdur/partitioning.h"
#include "sim/process.h"
#include "sim/replica_chooser.h"
#include "trace/trace.h"
#include "util/counters.h"

namespace sdur {

#define SDUR_CLIENT_COUNTER_LIST(X)                                            \
  X(reads)                                                                     \
  X(commits_requested)                                                         \
  X(commit_retries)                                                            \
  X(timeouts)                                                                  \
  X(read_retries) /* read and snapshot requests re-sent (no answer in time) */ \
  X(probes)       /* read and snapshot copies to a nearest replica with misses */

struct ClientConfig {
  PartitioningPtr partitioning;
  /// Per partition: its replicas, nearest first, ties broken by replica
  /// index. A request to partition p goes to the replica of servers[p]
  /// with the fewest misses (read and snapshot timeouts since it last sent
  /// this client anything), nearest first on ties; commit retries rotate
  /// through servers[p] from there. While servers[p]'s nearest replica has
  /// misses, reads and snapshots also send it a copy, so its first answer
  /// brings the client back (DESIGN.md "Failover").
  std::vector<std::vector<sim::ProcessId>> servers;
  /// The client's home partition: its replicas answer snapshot requests.
  PartitionId home = 0;
  /// Safety timeout for commit outcomes (a partition that stays without a
  /// live majority would otherwise block the client forever). Expired
  /// commits report Outcome::kUnknown.
  sim::Time commit_timeout = sim::sec(120);

  /// Commit requests are re-sent at this period until the outcome arrives
  /// (the servers remember outcomes and drop duplicate deliveries, so
  /// retries are idempotent). Covers lost request or outcome messages and
  /// a crashed contact.
  sim::Time commit_retry_interval = sim::msec(500);
};

/// What a read or snapshot request's retry period allows beyond the round
/// trip: the replica's CPU queue and its network jitter.
inline constexpr sim::Time kReadRetrySlack = sim::msec(20);

class Client : public sim::Process {
 public:
  using ReadCallback = std::function<void(bool found, const std::string& value)>;
  using MultiReadCallback = std::function<void(std::vector<std::optional<std::string>>)>;
  using CommitCallback = std::function<void(Outcome)>;
  using ReadyCallback = std::function<void()>;

  Client(sim::Network& net, sim::ProcessId pid, sim::Location loc, ClientConfig cfg);

  /// Starts a fresh update transaction (Algorithm 1, begin).
  void begin();

  /// Starts a read-only transaction against a globally consistent
  /// snapshot; `ready` fires once the snapshot vector has been fetched.
  void begin_read_only(ReadyCallback ready);

  /// Reads a key (Algorithm 1, read): buffered writes win; otherwise the
  /// request goes to the key's partition at the transaction's snapshot.
  void read(Key k, ReadCallback cb);

  /// Issues all reads in parallel and fires once every response arrived.
  void read_many(const std::vector<Key>& keys, MultiReadCallback cb);

  /// Buffers a write (Algorithm 1, write).
  void write(Key k, std::string v);

  /// Requests commit (Algorithm 1, commit). Read-only transactions commit
  /// immediately and never abort.
  void commit(CommitCallback cb);

  /// Id of the in-flight transaction.
  TxId current_txid() const { return tx_.id; }

  /// The retry period of a read or snapshot request sent to `replica`: the
  /// round trip to it plus kReadRetrySlack.
  sim::Time read_retry_period(sim::ProcessId replica) const;

  struct Stats {
    SDUR_COUNTERS(Stats, SDUR_CLIENT_COUNTER_LIST)
  };
  const Stats& stats() const { return stats_; }

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override;

 private:
  /// Sends a read or snapshot request to partition p's replica_index, plus
  /// a probe copy to the nearest replica when that one has misses; returns
  /// the replica a timeout charges.
  sim::ProcessId send_request(PartitionId p, const sim::Message& m);
  /// The round trip to `replica` at the topology's region granularity,
  /// jitter included.
  sim::Time round_trip(sim::ProcessId replica) const;
  /// The next commit retry sends committing_ to cfg_.servers[primary][replica % n].
  void schedule_commit_retry(PartitionId primary, TxId txid, std::size_t replica);

  ClientConfig cfg_;
  Transaction tx_;
  bool read_only_ = false;
  std::uint32_t next_seq_ = 1;
  std::uint64_t next_reqid_ = 1;

  /// Read and snapshot timeouts charge misses; nothing else does.
  sim::ReplicaChooser chooser_;

  /// Where the latest attempt of an unanswered read or snapshot request
  /// went, and when.
  struct Attempt {
    PartitionId partition;  // the partition asked (home for a snapshot)
    sim::ProcessId target;
    sim::Time sent_at;
  };
  struct PendingRead {
    Attempt attempt;
    Key key;
    Version snapshot;
    ReadCallback cb;
    sim::Message request(std::uint64_t reqid) const {
      return ReadReqMsg{reqid, key, snapshot}.to_message();
    }
  };
  struct PendingSnapshot {
    Attempt attempt;
    ReadyCallback ready;
    sim::Message request(std::uint64_t reqid) const { return SnapshotReqMsg{reqid}.to_message(); }
  };
  std::unordered_map<std::uint64_t, PendingRead> pending_reads_;
  std::unordered_map<std::uint64_t, PendingSnapshot> pending_snapshots_;
  /// Re-sends pending[reqid] once its replica's read_retry_period() has
  /// passed without an answer, and so on after each re-send.
  template <class Pending>
  void schedule_retry(std::unordered_map<std::uint64_t, Pending>& pending, std::uint64_t reqid);
  CommitCallback pending_commit_;
  /// What commit() sent: its retries re-send it whatever begin() did since.
  Transaction committing_;

  std::uint32_t trace_track_ = trace::kNoTrack;
  Stats stats_;
};

}  // namespace sdur
