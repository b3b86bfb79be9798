#include "sdur/client.h"

#include <algorithm>
#include <memory>

namespace sdur {

Client::Client(sim::Network& net, sim::ProcessId pid, sim::Location loc, ClientConfig cfg)
    : sim::Process(net, pid, "client-" + std::to_string(pid), loc), cfg_(std::move(cfg)) {
  // Clients do negligible local work per message.
  set_message_service_time(sim::usec(1));
  trace_track_ = SDUR_TRACE_REGISTER(self(), name(), -1);
}

void Client::begin() {
  tx_ = Transaction{};
  tx_.id = make_tx_id(self(), next_seq_++);
  tx_.client = self();
  read_only_ = false;
  SDUR_TRACE_MARK(trace_track_, trace::Point::kTxBegin, tx_.id, now(), 0);
}

void Client::begin_read_only(ReadyCallback ready) {
  begin();
  read_only_ = true;
  const std::uint64_t reqid = next_reqid_++;
  const sim::ProcessId target = send_request(cfg_.home, SnapshotReqMsg{reqid}.to_message());
  pending_snapshots_[reqid] = PendingSnapshot{{cfg_.home, target, now()}, std::move(ready)};
  schedule_retry(pending_snapshots_, reqid);
}

sim::Time Client::round_trip(sim::ProcessId replica) const {
  const sim::Topology& topo = topology();
  return static_cast<sim::Time>(2.0 * static_cast<double>(topo.distance(self(), replica)) *
                                (1.0 + topo.jitter()));
}

sim::Time Client::read_retry_period(sim::ProcessId replica) const {
  return round_trip(replica) + kReadRetrySlack;
}

sim::ProcessId Client::send_request(PartitionId p, const sim::Message& m) {
  const std::vector<sim::ProcessId>& replicas = cfg_.servers.at(p);
  const sim::ProcessId target = replicas[chooser_.pick(replicas)];
  send(target, m);
  // The nearest replica loses only with misses: probe it, so its first
  // answer after a recovery clears them and brings the client back.
  if (target != replicas.front()) {
    ++stats_.probes;
    send(replicas.front(), m);
  }
  return target;
}

void Client::read(Key k, ReadCallback cb) {
  ++stats_.reads;
  if (!read_only_) {
    tx_.readset.push_back(k);
    // Buffered writes win (Algorithm 1, lines 7-8).
    for (auto it = tx_.writeset.rbegin(); it != tx_.writeset.rend(); ++it) {
      if (it->key == k) {
        cb(true, it->value);
        return;
      }
    }
  }
  const PartitionId p = cfg_.partitioning->partition_of(k);
  const std::uint64_t reqid = next_reqid_++;
  const Version snapshot = tx_.snapshot_of(p);
  const sim::ProcessId target = send_request(p, ReadReqMsg{reqid, k, snapshot}.to_message());
  pending_reads_[reqid] = PendingRead{{p, target, now()}, k, snapshot, std::move(cb)};
  schedule_retry(pending_reads_, reqid);
}

template <class Pending>
void Client::schedule_retry(std::unordered_map<std::uint64_t, Pending>& pending,
                            std::uint64_t reqid) {
  // Reads and snapshot requests are idempotent; retries (and probe copies)
  // cover lost requests or responses and a crashed replica. A retried read
  // carries the original snapshot, so any replica of the partition answers
  // with the same value. (A first read carries none; whichever answer
  // arrives first fixes it.)
  set_timer(read_retry_period(pending.at(reqid).attempt.target), [this, &pending, reqid] {
    auto it = pending.find(reqid);
    if (it == pending.end()) return;
    ++stats_.read_retries;
    Attempt& r = it->second.attempt;
    const sim::Message m = it->second.request(reqid);
    // A message from the replica that left it after the request arrived
    // shows it alive and holding the request (e.g. a read deferred until
    // its snapshot is applied): re-send it there alone. One that left
    // before proves nothing, as the replica may have crashed in between:
    // charge it a miss and choose again.
    if (chooser_.heard_at(r.target) > r.sent_at + round_trip(r.target)) {
      send(r.target, m);
    } else {
      chooser_.miss(r.target);
      r.target = send_request(r.partition, m);
    }
    r.sent_at = now();
    schedule_retry(pending, reqid);
  });
}

void Client::read_many(const std::vector<Key>& keys, MultiReadCallback cb) {
  if (keys.empty()) {
    cb({});
    return;
  }
  struct Gather {
    std::vector<std::optional<std::string>> results;
    std::size_t remaining;
    MultiReadCallback cb;
  };
  auto gather = std::make_shared<Gather>();
  gather->results.resize(keys.size());
  gather->remaining = keys.size();
  gather->cb = std::move(cb);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    read(keys[i], [gather, i](bool found, const std::string& value) {
      if (found) gather->results[i] = value;
      if (--gather->remaining == 0) gather->cb(std::move(gather->results));
    });
  }
}

void Client::write(Key k, std::string v) {
  // No blind writes (Section II-B): the caller reads k first, which the
  // workloads honor; the readset therefore already contains k.
  for (auto& op : tx_.writeset) {
    if (op.key == k) {
      op.value = std::move(v);
      return;
    }
  }
  tx_.writeset.push_back(WriteOp{k, std::move(v)});
}

void Client::commit(CommitCallback cb) {
  ++stats_.commits_requested;
  if (read_only_ || (tx_.writeset.empty() && tx_.snapshots.size() <= 1)) {
    // Read-only transactions against a consistent snapshot commit without
    // certification (Section III-A). A transaction that wrote nothing and
    // read from at most one partition saw exactly such a snapshot (reads
    // within a single partition are consistent by construction); a
    // multi-partition read-only transaction begun with begin() instead of
    // begin_read_only() must be certified to validate snapshot
    // consistency, so it falls through to the termination protocol.
    cb(Outcome::kCommit);
    return;
  }
  // Primary partition: the first partition the transaction touched.
  PartitionId primary = 0;
  if (!tx_.snapshots.empty()) {
    primary = tx_.snapshots.front().first;
  } else if (!tx_.writeset.empty()) {
    primary = cfg_.partitioning->partition_of(tx_.writeset.front().key);
  }
  pending_commit_ = std::move(cb);
  committing_ = tx_;
  SDUR_TRACE_MARK(trace_track_, trace::Point::kTxSubmit, tx_.id, now(), 0);
  const std::size_t first = chooser_.pick(cfg_.servers[primary]);
  send(cfg_.servers[primary][first], CommitReqMsg{tx_}.to_message());

  const TxId txid = tx_.id;
  // Retry loop: requests and outcomes can be lost and contacts crash; the
  // servers remember outcomes and drop duplicate deliveries, so retries
  // through any replica are idempotent. They charge no miss: a live
  // contact is slow to answer while its partition elects a leader.
  schedule_commit_retry(primary, txid, first + 1);
  set_timer(cfg_.commit_timeout, [this, txid] {
    if (pending_commit_ && committing_.id == txid) {
      ++stats_.timeouts;
      auto cb2 = std::move(pending_commit_);
      pending_commit_ = nullptr;
      cb2(Outcome::kUnknown);
    }
  });
}

void Client::schedule_commit_retry(PartitionId primary, TxId txid, std::size_t replica) {
  set_timer(cfg_.commit_retry_interval, [this, primary, txid, replica] {
    if (!pending_commit_ || committing_.id != txid) return;
    ++stats_.commit_retries;
    const std::vector<sim::ProcessId>& replicas = cfg_.servers[primary];
    send(replicas[replica % replicas.size()], CommitReqMsg{committing_}.to_message());
    schedule_commit_retry(primary, txid, replica + 1);
  });
}

void Client::on_message(const sim::Message& m, sim::ProcessId from) {
  chooser_.heard(from, now());
  util::Reader r(m.payload);
  switch (m.type) {
    case msgtype::kReadResp: {
      const auto resp = ReadRespMsg::decode(r);
      auto it = pending_reads_.find(resp.reqid);
      if (it == pending_reads_.end()) return;
      auto cb = std::move(it->second.cb);
      pending_reads_.erase(it);
      if (!read_only_) {
        // First read at a partition fixes its snapshot (Algorithm 1, line
        // 13). Parallel first reads are each served at their own key's
        // read frontier and may come back in any order: keep the lowest.
        // Certification then covers every write above it, so a key served
        // higher aborts the transaction if it changed in between, instead
        // of escaping certification (a lost update).
        const PartitionId p = cfg_.partitioning->partition_of(resp.key);
        const Version st = tx_.snapshot_of(p);
        if (st == kNoSnapshot || resp.snapshot < st) tx_.set_snapshot(p, resp.snapshot);
      }
      cb(resp.found, resp.value);
      break;
    }
    case msgtype::kSnapshotResp: {
      const auto resp = SnapshotRespMsg::decode(r);
      auto it = pending_snapshots_.find(resp.reqid);
      if (it == pending_snapshots_.end()) return;
      auto ready = std::move(it->second.ready);
      pending_snapshots_.erase(it);
      for (PartitionId p = 0; p < resp.snapshot.size(); ++p) {
        tx_.set_snapshot(p, resp.snapshot[p]);
      }
      ready();
      break;
    }
    case msgtype::kOutcome: {
      const auto out = OutcomeMsg::decode(r);
      if (!pending_commit_ || out.id != committing_.id) return;
      SDUR_TRACE_MARK(trace_track_, trace::Point::kTxOutcome, out.id, now(),
                      static_cast<std::uint64_t>(out.outcome));
      auto cb = std::move(pending_commit_);
      pending_commit_ = nullptr;
      cb(out.outcome);
      break;
    }
    default:
      break;
  }
}

}  // namespace sdur
