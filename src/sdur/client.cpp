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
  pending_snapshots_[reqid] = std::move(ready);
  send(cfg_.snapshot_server, SnapshotReqMsg{reqid}.to_message());
  schedule_snapshot_retry(reqid);
}

void Client::schedule_snapshot_retry(std::uint64_t reqid) {
  set_timer(cfg_.read_retry_interval, [this, reqid] {
    if (!pending_snapshots_.contains(reqid)) return;
    ++stats_.read_retries;
    send(cfg_.snapshot_server, SnapshotReqMsg{reqid}.to_message());
    schedule_snapshot_retry(reqid);
  });
}

sim::ProcessId Client::read_target(PartitionId p) const { return cfg_.read_server.at(p); }

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
  const sim::ProcessId target = read_target(p);
  const Version snapshot = tx_.snapshot_of(p);
  pending_reads_[reqid] = PendingRead{std::move(cb), target, k, snapshot};
  send(target, ReadReqMsg{reqid, k, snapshot}.to_message());
  schedule_read_retry(reqid);
}

void Client::schedule_read_retry(std::uint64_t reqid) {
  // Reads are idempotent; retries cover lost requests or responses. Note
  // the retried request carries the original snapshot, so the answer is
  // the same value either way.
  set_timer(cfg_.read_retry_interval, [this, reqid] {
    auto it = pending_reads_.find(reqid);
    if (it == pending_reads_.end()) return;
    ++stats_.read_retries;
    send(it->second.target, ReadReqMsg{reqid, it->second.key, it->second.snapshot}.to_message());
    schedule_read_retry(reqid);
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
  pending_commit_txid_ = tx_.id;
  const sim::ProcessId contact = cfg_.commit_server.at(primary);
  SDUR_TRACE_MARK(trace_track_, trace::Point::kTxSubmit, tx_.id, now(), 0);
  send(contact, CommitReqMsg{tx_}.to_message());

  const TxId txid = tx_.id;
  // Retry loop: requests and outcomes can be lost; the contact remembers
  // outcomes, so retries are idempotent.
  schedule_commit_retry(contact, txid, cfg_.commit_retry_interval);
  set_timer(cfg_.commit_timeout, [this, txid] {
    if (pending_commit_ && pending_commit_txid_ == txid) {
      ++stats_.timeouts;
      auto cb2 = std::move(pending_commit_);
      pending_commit_ = nullptr;
      cb2(Outcome::kUnknown);
    }
  });
}

void Client::schedule_commit_retry(sim::ProcessId contact, TxId txid, sim::Time delay) {
  set_timer(delay, [this, contact, txid, delay] {
    if (!pending_commit_ || pending_commit_txid_ != txid) return;
    ++stats_.commit_retries;
    send(contact, CommitReqMsg{tx_}.to_message());
    schedule_commit_retry(contact, txid, delay);
  });
}

void Client::on_message(const sim::Message& m, sim::ProcessId from) {
  (void)from;
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
      auto ready = std::move(it->second);
      pending_snapshots_.erase(it);
      for (PartitionId p = 0; p < resp.snapshot.size(); ++p) {
        tx_.set_snapshot(p, resp.snapshot[p]);
      }
      ready();
      break;
    }
    case msgtype::kOutcome: {
      const auto out = OutcomeMsg::decode(r);
      if (!pending_commit_ || out.id != pending_commit_txid_) return;
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
