// Transaction model (paper Section II-B).
//
// A transaction t = (id, rs, ws): the readset holds the keys t read, the
// writeset holds key/value pairs t wrote. Clients buffer writes locally and
// ship the whole transaction at commit time (deferred update). The snapshot
// vector st[1..P] records, per partition, the snapshot-counter value of the
// first read (bottom = -1 for untouched partitions); partitions(t) is the
// set of partitions with a non-bottom entry.
//
// Servers never see the full transaction: the client (or its contact
// server) projects it per partition into a PartTx — exactly the
// "readset(t)_p and writeset(t)_p plus some metadata" the paper broadcasts
// to each involved partition.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "sim/topology.h"
#include "storage/mvstore.h"
#include "util/bloom.h"
#include "util/bytes.h"
#include "util/codec.h"

namespace sdur {

using storage::Key;
using storage::Version;
using PartitionId = std::uint32_t;
using TxId = std::uint64_t;

/// A TxId is the submitting client's process id in the high 32 bits and
/// that client's transaction sequence number in the low 32 bits.
constexpr TxId make_tx_id(sim::ProcessId pid, std::uint32_t seq) { return (TxId{pid} << 32) | seq; }
constexpr sim::ProcessId tx_client(TxId id) { return static_cast<sim::ProcessId>(id >> 32); }
constexpr std::uint32_t tx_seq(TxId id) { return static_cast<std::uint32_t>(id); }

/// Version value representing bottom (no read at that partition yet).
constexpr Version kNoSnapshot = -1;

enum class Outcome : std::uint8_t { kUnknown = 0, kCommit = 1, kAbort = 2 };

const char* to_string(Outcome o);

struct WriteOp {
  Key key = 0;
  std::string value;

  static auto fields(auto& m) { return std::tie(m.key, m.value); }
};

/// Client-side view of an update transaction, shipped to the contact
/// server in the commit request.
struct Transaction {
  TxId id = 0;
  sim::ProcessId client = 0;
  /// Sparse snapshot vector: (partition, snapshot) for partitions read.
  std::vector<std::pair<PartitionId, Version>> snapshots;
  std::vector<Key> readset;
  std::vector<WriteOp> writeset;

  Version snapshot_of(PartitionId p) const;
  void set_snapshot(PartitionId p, Version v);

  static auto fields(auto& m) {
    return std::tie(m.id, m.client, m.snapshots, m.readset, m.writeset);
  }
  void encode(util::Writer& w) const { util::encode(w, *this); }
  static Transaction decode(util::Reader& r) { return util::decode<Transaction>(r); }
};

/// Per-partition projection of a transaction — the unit that is atomically
/// broadcast within a partition and certified by Algorithm 2. Also carries
/// the two control values SDUR broadcasts: abort requests (recovery from a
/// failed submitter, Section IV-F) and ticks (delivery-counter no-ops that
/// keep the reorder threshold live when the partition is idle).
struct PartTx {
  enum class Kind : std::uint8_t { kTxn = 0, kAbortRequest = 1, kTick = 2, kSetThreshold = 3 };

  Kind kind = Kind::kTxn;
  TxId id = 0;
  sim::ProcessId client = 0;
  /// Server that answers the client (only it sends the outcome message).
  sim::ProcessId contact = 0;
  /// All partitions accessed by the transaction, sorted.
  std::vector<PartitionId> involved;
  /// Snapshot at this partition (t.st[p]).
  Version snapshot = kNoSnapshot;
  /// Keys read at this partition; bloom-encoded when the prototype's
  /// bloom-filter optimization is on (Section V).
  util::KeySet readset;
  /// Exact keys written at this partition (needed for certification).
  util::KeySet write_keys;
  /// Writes to apply at this partition.
  std::vector<WriteOp> writes;

  /// New reorder threshold (kSetThreshold only): "replicas can change the
  /// reordering threshold by broadcasting a new value of k" (Section IV-E).
  std::uint32_t threshold = 0;

  bool is_global() const { return involved.size() > 1; }

  util::Bytes encode() const;
  /// Reads a PartTx from its encoding: a Paxos value (util::SharedBytes)
  /// or plain Bytes, without copying either.
  static PartTx decode(std::span<const std::uint8_t> value);

  static PartTx make_tick();
  static PartTx make_abort_request(TxId id, std::vector<PartitionId> involved);
  static PartTx make_set_threshold(std::uint32_t k);
};

}  // namespace sdur
