#include "sdur/server.h"

#include <algorithm>
#include <iterator>

#include "audit/audit.h"
#include "util/logging.h"

namespace sdur {

namespace {
constexpr std::size_t kHistoryLength = 200'000;  // outcomes kept

// Serial CPU cost model of a single-core replica, calibrated so a replica
// group saturates at a few thousand transactions per second, the ballpark
// of the paper's EC2 medium instances (single core, 2012). P-DUR replicas
// use pdur::kIngressCost and pdur::kDispatchCost on core 0 instead.

/// Base per-message handling cost.
constexpr sim::Time kMessageServiceTime = sim::usec(15);
/// CPU cost charged per delivered transaction (certification +
/// bookkeeping).
constexpr sim::Time kCertificationCost = sim::usec(90);
/// Additional CPU cost per written item at apply time.
constexpr sim::Time kApplyCostPerWrite = sim::usec(10);

/// Period of the snapshot-counter gossip that builds globally-consistent
/// snapshots for read-only transactions.
constexpr sim::Time kGossipInterval = sim::msec(10);

/// Resend this partition's vote for a stuck pending global (lost votes);
/// the liveness pass runs at half this period.
constexpr sim::Time kVoteResendInterval = sim::msec(500);

/// A contact re-forwards a remote part whose vote is still missing this
/// long after a round trip to its partition, if the replica the part went
/// to was silent this long too: nothing it sent after the part reached it
/// arrived. Under load a live replica gossips every kGossipInterval.
constexpr sim::Time kPartResendSlack = sim::msec(100);

/// When a vote-complete global is blocked only by its reorder threshold
/// and the partition is idle, broadcast no-op ticks at this period to
/// advance the delivery counter (implementation addition; see DESIGN.md).
constexpr sim::Time kTickInterval = sim::msec(2);

/// Paxos value kind for this server's abcast payloads is the PartTx kind
/// byte; nothing extra is needed.
}  // namespace

Server::Server(sim::Network& net, sim::ProcessId pid, sim::Location loc, ServerConfig cfg,
               paxos::GroupConfig paxos_cfg, PartitioningPtr partitioning)
    : sim::Process(net, pid, "server-p" + std::to_string(cfg.partition) + "-" +
                                 std::to_string(paxos_cfg.self_index),
                   loc),
      cfg_(std::move(cfg)),
      partitioning_(std::move(partitioning)),
      cert_(cfg_.window_capacity, cfg_.pdur.cores, cfg_.techniques.ooo_bypass),
      gsc_(cfg_.num_partitions, 0) {
  set_message_service_time(kMessageServiceTime);
  trace_track_ = SDUR_TRACE_REGISTER(self(), name(), -1);
  if (parallel()) {
    // P-DUR replica: core 0 is the dispatcher (message ingress + delivery
    // fan-out); certification/execution work runs on the keys' home cores.
    set_core_count(cfg_.pdur.cores);
    set_message_service_time(pdur::kIngressCost);
    executor_ = std::make_unique<pdur::Executor>(*this, cfg_.pdur);
  }
  vote_outbox_.resize(cfg_.num_partitions);
  for (PartitionId p = 0; p < cfg_.num_partitions && p < cfg_.partition_servers.size(); ++p) {
    const std::vector<sim::ProcessId>& peers = cfg_.partition_servers[p];
    vote_outbox_[p].cursor.assign(peers.size(), 0);
    for (std::size_t i = 0; i < peers.size(); ++i) peer_index_[peers[i]] = {p, i};
  }
  engine_ = std::make_unique<paxos::PaxosEngine>(
      *this, std::move(paxos_cfg), std::make_unique<paxos::InMemoryDurableLog>(),
      [this](const paxos::Value& v) { adeliver(v); });
  engine_->set_install_handler([this](const paxos::Value& blob) { install_state(blob); });
  if (batching()) {
    // Paxos engine traffic is intra-group today, but cross-partition
    // forwards relayed through the engine (leader changes) also pass here;
    // the wrapper is identity for same-partition destinations.
    engine_->set_send_wrapper(
        [this](sim::ProcessId to, sim::Message m) { return maybe_piggyback(to, std::move(m)); });
  }
}

void Server::start(std::shared_ptr<const storage::MVStore> image) {
  store_ = storage::MVStore(std::move(image));
  engine_->start();
  arm_timers();
}

void Server::arm_timers() {
  set_timer(kGossipInterval, [this] { gossip_tick(); });
  set_timer(kVoteResendInterval / 2, [this] { liveness_tick(); });
  if (cfg_.checkpoint_interval > 0) {
    set_timer(cfg_.checkpoint_interval, [this] { checkpoint_tick(); });
  }
}

void Server::on_message(const sim::Message& m, sim::ProcessId from) {
  const auto peer = peer_index_.find(from);
  if (peer != peer_index_.end() && peer->second.first != cfg_.partition) chooser_.heard(from, now());
  if (paxos::PaxosEngine::handles(m.type)) {
    engine_->handle_message(m, from);
    return;
  }
  util::Reader r(m.payload);
  switch (m.type) {
    case msgtype::kCommitReq: {
      // A recovered replica still replaying what it missed answers no
      // client: it would hold the request until it caught up.
      if (!engine_->caught_up()) break;
      handle_commit_request(CommitReqMsg::decode(r).tx);
      break;
    }
    case msgtype::kReadReq: {
      if (!engine_->caught_up()) break;
      const auto msg = ReadReqMsg::decode(r);
      handle_read(msg.reqid, from, msg.key, msg.snapshot);
      break;
    }
    case msgtype::kReadRouted: {
      const auto msg = ReadRoutedMsg::decode(r);
      schedule_read(msg.reqid, msg.client, msg.key, msg.snapshot);
      break;
    }
    case msgtype::kVote: {
      const auto msg = VoteMsg::decode(r);
      if (handle_vote(msg.id, msg.partition, msg.vote)) drain_pending();
      break;
    }
    case msgtype::kVoteBatch: {
      handle_vote_batch(VoteBatchMsg::decode(r));
      break;
    }
    case msgtype::kVotePiggyback: {
      auto env = VotePiggybackMsg::decode(r);
      handle_vote_batch(env.batch);
      // Re-dispatch the carried message as if it arrived alone (Paxos
      // types route through the engine at the top of this function).
      const sim::Message inner{env.inner_type, sim::Payload(std::move(env.inner_payload))};
      on_message(inner, from);
      break;
    }
    case msgtype::kVoteRequest: {
      const auto msg = VoteRequestMsg::decode(r);
      if (const Outcome* v = own_vote(msg.id)) {
        send(from, maybe_piggyback(from, VoteMsg{msg.id, cfg_.partition, *v}.to_message()));
      }
      break;
    }
    case msgtype::kGossipSC: {
      const auto msg = GossipSCMsg::decode(r);
      if (msg.partition < gsc_.size()) gsc_[msg.partition] = std::max(gsc_[msg.partition], msg.sc);
      break;
    }
    case msgtype::kSnapshotReq: {
      if (!engine_->caught_up()) break;
      const auto msg = SnapshotReqMsg::decode(r);
      SnapshotRespMsg resp;
      resp.reqid = msg.reqid;
      resp.snapshot = gsc_;
      resp.snapshot[cfg_.partition] = cert_.stable();
      send(from, resp.to_message());
      break;
    }
    default:
      break;
  }
}

// --- Submission (Algorithm 2, submit) ---------------------------------------

void Server::History::record(TxId id, Outcome o) {
  if (!index.try_emplace(id, o).second) return;
  if (ring.size() < kHistoryLength) {
    ring.push_back(id);
    return;
  }
  index.erase(ring[oldest]);
  ring[oldest] = id;
  oldest = (oldest + 1) % ring.size();
}

void Server::History::encode(util::Writer& w) const {
  w.varint(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const TxId id = ring[(oldest + i) % ring.size()];
    w.u64(id);
    w.u8(static_cast<std::uint8_t>(*index.find(id)));
  }
}

void Server::History::install(util::Reader& r) {
  *this = History{};
  for (std::uint64_t n = r.varint(); n > 0; --n) {
    const TxId id = r.u64();
    record(id, static_cast<Outcome>(r.u8()));
  }
}

bool Server::delivered(TxId id) const {
  const auto s = sessions_.find(tx_client(id));
  return outcomes_.find(id) != nullptr || (s != sessions_.end() && s->second.is_open(tx_seq(id)));
}

void Server::raise_floor(sim::ProcessId client, Session& s, std::uint32_t seq) {
  // Only kVoting rounds are missing from round_order_.
  if (rounds_.size() > round_order_.size()) {
    for (std::uint32_t q = s.last + 1; q < seq; ++q) {
      const auto it = rounds_.find(make_tx_id(client, q));
      if (it != rounds_.end() && it->second.phase == Round::Phase::kVoting) rounds_.erase(it);
    }
  }
  s.last = std::max(s.last, seq);
}

void Server::handle_commit_request(Transaction tx) {
  // Client retry after a lost outcome message: answer from memory; the
  // transaction must not run twice.
  if (const Outcome* o = outcomes_.find(tx.id)) {
    send(tx.client, OutcomeMsg{tx.id, *o}.to_message());
    return;
  }
  // Retry for a transaction still in flight here: the submission reached
  // this partition, so at most a forward to another partition was lost.
  if (delivered(tx.id)) {
    reforward_missing_parts(tx);
    return;
  }
  // partitions(t): every partition with a non-bottom snapshot entry; since
  // there are no blind writes, written partitions were also read.
  std::vector<PartitionId> involved;
  involved.reserve(tx.snapshots.size());
  for (const auto& [p, st] : tx.snapshots) {
    if (st != kNoSnapshot) involved.push_back(p);
  }
  for (const auto& op : tx.writeset) {
    const PartitionId p = partitioning_->partition_of(op.key);
    if (tx.snapshot_of(p) == kNoSnapshot) involved.push_back(p);  // defensive
  }
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()), involved.end());
  if (involved.empty()) {
    // Nothing read or written: trivially commit.
    send(tx.client, OutcomeMsg{tx.id, Outcome::kCommit}.to_message());
    return;
  }

  SDUR_TRACE_MARK(trace_track_, trace::Point::kTxHandle, tx.id, now(), involved.size());
  const bool own_involved =
      std::binary_search(involved.begin(), involved.end(), cfg_.partition);
  const sim::ProcessId contact =
      own_involved ? self() : cfg_.partition_servers[involved.front()].front();

  // The contact keeps the transaction to resend a remote part lost on the
  // way (watch_part).
  std::shared_ptr<const Transaction> kept;
  if (own_involved && involved.size() > 1) {
    kept = std::make_shared<const Transaction>(std::move(tx));
  }
  const Transaction& t = kept ? *kept : tx;

  sim::Time max_remote_delay = 0;
  for (PartitionId p : involved) {
    if (p == cfg_.partition) continue;
    PartTx part = project(t, p, involved);
    part.contact = contact;
    const sim::ProcessId target = abcast(p, part);
    if (kept) watch_part(kept, p, target);
    max_remote_delay = std::max(max_remote_delay, delay_estimate(p));
  }
  if (own_involved) {
    PartTx part = project(t, cfg_.partition, involved);
    part.contact = contact;
    const TechniqueConfig& tc = cfg_.techniques;
    const sim::Time delay = tc.fixed_delay > 0 ? tc.fixed_delay : max_remote_delay;
    if (tc.delaying_enabled && involved.size() > 1 && delay > 0) {
      // Section IV-D: delay the local broadcast of a global transaction by
      // the estimated time for the remote partitions to receive it.
      const paxos::Value value = part.encode();
      set_timer(delay, [this, value] { engine_->propose(value); });
    } else {
      abcast(cfg_.partition, part);
    }
  }
}

void Server::reforward_missing_parts(const Transaction& tx) {
  const auto it = rounds_.find(tx.id);
  if (it == rounds_.end() || it->second.phase == Round::Phase::kVoting) return;
  const Round& r = it->second;
  for (PartitionId p : r.involved) {
    if (p == cfg_.partition || r.vote(p) != nullptr) continue;
    // The replica chosen now (the one that lost the part, unless silence
    // moved the choice already) takes the miss.
    reforward_part(tx, r.involved, p, replica_for(p));
    ++stats_.reforwards;
  }
}

sim::ProcessId Server::reforward_part(const Transaction& tx,
                                      const std::vector<PartitionId>& involved, PartitionId p,
                                      sim::ProcessId lost_at) {
  // A partition that has the part drops the copy as a duplicate. Its
  // contact is this replica: nobody there replies, and the client's
  // retries are answered from `outcomes_`.
  PartTx part = project(tx, p, involved);
  part.contact = self();
  chooser_.miss(lost_at);
  return abcast(p, part);
}

void Server::watch_part(std::shared_ptr<const Transaction> tx, PartitionId p,
                        sim::ProcessId sent_to) {
  const sim::Time period = 2 * delay_estimate(p) + kPartResendSlack;
  set_timer(period, [this, tx = std::move(tx), p, sent_to]() mutable {
    const auto it = rounds_.find(tx->id);
    if (it == rounds_.end() || it->second.phase == Round::Phase::kVoting) {
      // Not delivered here yet: wait for it. Delivered with no open round,
      // it completed (or failed certification) and needs no part.
      const auto s = sessions_.find(tx_client(tx->id));
      if (s != sessions_.end() && tx_seq(tx->id) <= s->second.last) return;
    } else {
      const Round& r = it->second;
      if (r.verdict() != Outcome::kUnknown) return;
      // Heard within the slack, the replica sent something after the part
      // reached it: it is alive, and its partition orders the part, only
      // slowly. No copy.
      if (r.vote(p) == nullptr && now() - chooser_.heard_at(sent_to) >= kPartResendSlack) {
        sent_to = reforward_part(*tx, r.involved, p, sent_to);
        ++stats_.timed_reforwards;
      }
    }
    watch_part(std::move(tx), p, sent_to);
  });
}

PartTx Server::project(const Transaction& tx, PartitionId p,
                       const std::vector<PartitionId>& involved) const {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = tx.id;
  t.client = tx.client;
  t.involved = involved;
  t.snapshot = tx.snapshot_of(p);
  std::vector<Key> rs;
  for (Key k : tx.readset) {
    if (partitioning_->partition_of(k) == p) rs.push_back(k);
  }
  t.readset = cfg_.techniques.bloom_readsets
                  ? util::KeySet::bloom(rs, cfg_.techniques.bloom_fp_rate)
                  : util::KeySet::exact(rs);
  std::vector<Key> ws_keys;
  for (const auto& op : tx.writeset) {
    if (partitioning_->partition_of(op.key) == p) {
      ws_keys.push_back(op.key);
      t.writes.push_back(op);
    }
  }
  t.write_keys = util::KeySet::exact(std::move(ws_keys));
  return t;
}

sim::ProcessId Server::abcast(PartitionId p, const PartTx& t) {
  if (p == cfg_.partition) {
    engine_->propose(t.encode());
    return self();
  }
  // A remote partition's replica relays the value to its leader.
  const sim::ProcessId target = replica_for(p);
  send(target, maybe_piggyback(target, paxos::Forward{t.encode()}.to_message()));
  return target;
}

sim::ProcessId Server::replica_for(PartitionId p) const {
  // Under load every replica gossips each kGossipInterval: one silent for
  // ten of them plus the one-way delay has most likely crashed.
  const std::vector<sim::ProcessId>& replicas = cfg_.partition_servers[p];
  return replicas[chooser_.pick(replicas, now(), 10 * kGossipInterval + delay_estimate(p))];
}

sim::Time Server::delay_estimate(PartitionId p) const {
  return p == cfg_.partition ? 0 : topology().distance(self(), cfg_.partition_servers[p].front());
}

sim::ProcessId Server::read_replica(PartitionId p) const {
  const std::uint16_t region = topology().location(self()).region;
  return topology().nearest_first(region, cfg_.partition_servers[p]).front();
}

void Server::broadcast_reorder_threshold(std::uint32_t k) {
  engine_->propose(PartTx::make_set_threshold(k).encode());
}

// --- Delivery (Algorithm 2, lines 15-33) -------------------------------------

void Server::adeliver(const paxos::Value& value) {
  PartTx t = PartTx::decode(value);
  // Control values (ticks, abort requests) are nearly free to process.
  sim::Time cost = sim::usec(2);
  if (t.kind == PartTx::Kind::kTxn) {
    cost = delivery_cost(t);
    // The mark's timestamp is the enqueue time; kTxCertified later carries
    // this same cost in its aux, letting export split the interval between
    // the two marks into CPU queue wait and charged service time.
    SDUR_TRACE_MARK(trace_track_, trace::Point::kTxDeliver, t.id, now(), 0);
  }
  enqueue_work(cost, [this, t = std::move(t)]() mutable { process_delivery(std::move(t)); });
}

sim::Time Server::delivery_cost(const PartTx& t) const {
  // P-DUR: the dispatcher only routes the transaction to its home cores;
  // certification + apply cost is charged on those cores instead.
  return parallel() ? pdur::kDispatchCost
                    : kCertificationCost +
                          kApplyCostPerWrite * static_cast<sim::Time>(t.writes.size());
}

void Server::process_delivery(PartTx t) {
  ++dc_;  // every delivered value advances the delivery counter
  ++stats_.delivered;

  switch (t.kind) {
    case PartTx::Kind::kTick:
      break;  // pure DC advance

    case PartTx::Kind::kSetThreshold:
      // Delivered through the same total order as transactions, so every
      // replica switches thresholds at the same delivery index.
      cfg_.techniques.reorder_threshold = t.threshold;
      break;

    case PartTx::Kind::kAbortRequest: {
      if (delivered(t.id)) {
        // The transaction did reach this partition; our vote may have been
        // lost — resend it instead of aborting (Section IV-F: act on
        // whichever of {transaction, abort request} is delivered first).
        if (const Outcome* v = own_vote(t.id)) send_vote_to_peers(t.id, t.involved, *v);
      } else {
        // The abort vote decides the transaction: complete it at once, so
        // its round closes, later votes are stale, `outcomes_` answers
        // vote requests and retries, and a later delivery is a duplicate.
        // (No client reply: an abort request has no contact.)
        raise_floor(tx_client(t.id), sessions_[tx_client(t.id)], tx_seq(t.id));
        ++stats_.abort_request_aborts;
        cast_own_vote(t.id, t.involved, Outcome::kAbort);
        complete(t, Outcome::kAbort);
      }
      break;
    }

    case PartTx::Kind::kTxn: {
      if (delivered(t.id)) break;  // duplicate after leader change
      // At or below the floor, the client moved on or an abort request came
      // first: vote abort uncertified (dropping it would stall the others).
      Session& s = sessions_[tx_client(t.id)];
      const std::uint32_t seq = tx_seq(t.id);
      const bool late = seq <= s.last;
      raise_floor(tx_client(t.id), s, seq);
      s.open.push_back(seq);
      const std::uint64_t rt = dc_ + cfg_.techniques.reorder_threshold;
      Outcome vote = Outcome::kAbort;
      Certifier::Result res;
      SDUR_AUDIT(Version audit_version = 0);
      if (late) {
        ++stats_.late_first_deliveries;
      } else {
        SDUR_TRACE_STMT(const Version cc = cert_.certified();)
        res = cert_.process(t, rt, dc_);
        // Certification strategy (aux: the window depth certified
        // against): a bloom readset forces the window scan.
        if (!res.stale_snapshot) {
          SDUR_TRACE_INSTANT(trace_track_,
                             storage::CommitWindow::scans(t.readset)
                                 ? trace::Point::kCertScanFallback
                                 : trace::Point::kCertIndexProbe,
                             t.id, now(),
                             t.snapshot < 0 || t.snapshot >= cc
                                 ? 0
                                 : static_cast<std::uint64_t>(cc - t.snapshot));
        }
        vote = res.outcome;
        if (vote == Outcome::kAbort) ++stats_.cert_aborts;
        if (res.stale_snapshot) ++stats_.stale_snapshot_aborts;
        if (vote == Outcome::kCommit) {
          if (t.is_global()) {
            enter_phase(t, Round::Phase::kPending, res.version).last_vote_resend = now();
          }
          SDUR_AUDIT(audit_version = res.version);
          if (res.parked) {
            // Bypass gate: this local write-conflicts with a pending entry
            // and waits for the completed-global watermark to cover its
            // park bound; the sweep releases it from drain_pending.
            ++stats_.parked_locals;
            SDUR_TRACE_INSTANT(trace_track_, trace::Point::kTxParked, t.id, now(),
                               static_cast<std::uint64_t>(cert_.at(res.position).park_until));
          }
          // NOTE: park bounds are deliberately NOT cross-checked between
          // replicas. The bound is computed over the *pending* list, whose
          // contents legitimately differ with vote-arrival timing (a global
          // completed at one replica can still be pending at another), so
          // bounds may diverge by exactly the completed prefix. That is
          // timing-only: the bypass-serial-equivalence check below verifies
          // the property that actually matters at every sweep.
        }
      }
      SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCertified, t.id, now(),
                      trace::cert_aux(t.is_global(), vote == Outcome::kCommit, delivery_cost(t)));
      // Certification is a pure function of the delivered sequence: every
      // replica of this partition must reach the same verdict at this
      // delivery index. This holds in the P-DUR model too — the verdict is
      // computed here, in delivery order, on the dispatcher; the cores only
      // decide when its effects become visible.
      SDUR_AUDIT(audit::Oracle::instance().record_certified(
          cfg_.partition, dc_, t.id, static_cast<std::uint8_t>(vote), audit_version, self(),
          now()));
      SDUR_AUDIT_NOTE(now(), name() << " dc=" << dc_ << " certified tx " << t.id << " -> "
                                    << to_string(vote) << " v" << audit_version
                                    << (t.is_global() ? " (global)" : ""));
      if (parallel()) {
        // P-DUR: charge the certification/apply work on the transaction's
        // home cores and defer the verdict's effects (vote messages, abort
        // answer, completion) until every involved core finished. The
        // pending entry stays not-ready so drain_pending cannot complete
        // it early.
        if (vote == Outcome::kCommit) cert_.at(res.position).ready = false;
        if (res.cores.size() > 1) {
          ++stats_.pdur_cross_core;
        } else {
          ++stats_.pdur_single_core;
        }
        sim::Time work = kCertificationCost;
        if (vote == Outcome::kCommit) {
          work += kApplyCostPerWrite * static_cast<sim::Time>(t.writes.size());
        }
        executor_->run(t.id, res.cores, work, [this, t = std::move(t), vote, version = res.version] {
          finish_core_work(t, vote, version);
        });
        break;
      }
      emit_verdict(t, vote);
      break;
    }
  }
  drain_pending();
}

void Server::finish_core_work(const PartTx& t, Outcome vote, Version version) {
  // Runs when every home core of the transaction finished its simulated
  // work (epoch-guarded: never after a crash). The verdict itself was
  // fixed at dispatch; only now do its effects leave the replica.
  SDUR_TRACE_MARK(trace_track_, trace::Point::kTxReady, t.id, now(), 0);
  if (vote == Outcome::kCommit) cert_.mark_ready(version);
  emit_verdict(t, vote);
  drain_pending();
}

void Server::emit_verdict(const PartTx& t, Outcome vote) {
  if (t.is_global()) cast_own_vote(t.id, t.involved, vote);
  // A failed certification never entered the pending list and has no
  // version slot: it completes at once.
  if (vote == Outcome::kAbort) complete(t, Outcome::kAbort);
}

void Server::finalize(const PartTx& t, Version version, Outcome outcome) {
  const auto round = rounds_.find(t.id);
  const bool speculated =
      round != rounds_.end() && round->second.phase == Round::Phase::kSettled;
  const bool commit = outcome == Outcome::kCommit;
  if (commit) {
    // Writes are applied at the version pre-assigned at certification;
    // apply cost was already charged when the delivery was enqueued. A
    // speculated global's writes may land below versions that entries
    // behind it already committed.
    for (const auto& op : t.writes) {
      if (speculated) {
        store_.insert(op.key, op.value, version);
      } else {
        store_.put(op.key, op.value, version);
      }
    }
  }
  const Version stable_before = cert_.stable();
  cert_.resolve(version, t.id, commit);
  if (const auto horizon = storage::MVStore::gc_horizon(
          stable_before, cert_.stable(), static_cast<Version>(cfg_.window_capacity))) {
    store_.gc(*horizon);
  }
  if (commit) {
    if (speculated) ++stats_.spec_commits;
    ++(t.is_global() ? stats_.committed_global : stats_.committed_local);
  } else if (speculated) {
    ++stats_.spec_aborts;
    SDUR_TRACE_INSTANT(trace_track_, trace::Point::kTxSpecAbort, t.id, now(),
                       static_cast<std::uint64_t>(version));
  }
  // Resolution may have advanced read frontiers either way.
  service_deferred_reads();
  complete(t, outcome);
}

void Server::complete(const PartTx& t, Outcome outcome) {
  // 2PC safety and atomicity: the outcome must match every other replica's
  // and partition's, and a global commit requires a commit vote from every
  // involved partition (checked inside the oracle).
  SDUR_AUDIT(audit::Oracle::instance().record_completion(
      t.id, cfg_.partition,
      outcome == Outcome::kCommit ? audit::Oracle::kCommit : audit::Oracle::kAbort, t.involved,
      self(), now()));
  SDUR_AUDIT_NOTE(now(), name() << " completed tx " << t.id << " -> " << to_string(outcome));
  if (outcome == Outcome::kAbort) ++stats_.aborted;
  outcomes_.record(t.id, outcome);
  // (No session when a state transfer replaced the table mid P-DUR work.)
  if (const auto s = sessions_.find(tx_client(t.id)); s != sessions_.end()) {
    std::erase(s->second.open, tx_seq(t.id));
  }
  const auto round = rounds_.find(t.id);
  if (t.contact == self() && t.client != 0) {
    if (round != rounds_.end() && round->second.phase != Round::Phase::kVoting) {
      // Certification verdict to all-votes-in + reorder threshold cleared.
      SDUR_TRACE_SPAN(trace_track_, trace::Point::kVoteWait, t.id, round->second.delivered_at,
                      now(), 0, -1);
    }
    SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCompleted, t.id, now(),
                    outcome == Outcome::kCommit ? 1 : 0);
    send(t.client, OutcomeMsg{t.id, outcome}.to_message());
  }
  // Closed last: `t` may be the round's own transaction. (kVoting rounds
  // are never in round_order_; erasing their key is a no-op.)
  if (round != rounds_.end()) {
    round_order_.erase({round->second.phase, round->second.version});
    rounds_.erase(round);
  }
}

void Server::schedule_threshold_tick() {
  // The head global has all its votes but must wait for dc to reach its
  // reorder threshold (Algorithm 2, line 29). Under load the workload
  // advances the counter by itself; if the partition goes idle, the
  // leader proposes enough no-op ticks to cover the deficit in one
  // broadcast round. The timer re-arms until the head unblocks.
  if (tick_pending_ || !engine_->is_leader()) return;
  tick_pending_ = true;
  const std::uint64_t dc_at_schedule = dc_;
  set_timer(kTickInterval, [this, dc_at_schedule] {
    tick_pending_ = false;
    Outcome outcome = Outcome::kUnknown;
    if (head_stall(outcome) != Stall::kThreshold) return;
    if (dc_ == dc_at_schedule) {
      // Genuinely idle: tick the whole deficit.
      const std::uint64_t deficit = std::min<std::uint64_t>(cert_.head().rt - dc_, 256);
      stats_.ticks_sent += deficit;
      const paxos::Value tick = PartTx::make_tick().encode();
      for (std::uint64_t i = 0; i < deficit; ++i) engine_->propose(tick);
    } else {
      schedule_threshold_tick();  // traffic advanced dc; re-check later
    }
  });
}

Server::Stall Server::head_stall(Outcome& outcome) const {
  if (cert_.empty()) return Stall::kEmpty;
  const PendingEntry& head = cert_.at(0);
  // P-DUR: nothing behind an in-flight head may complete either
  // (completion is in version order).
  if (!head.ready) return Stall::kCores;
  // A local commits at once. Outstanding speculations never gate it: no
  // read serves a key above an unresolved writer of that key, so nothing
  // the local read depends on how they resolve (and its verdict is
  // status-blind). A speculation that later commits inserts its writes
  // below the local's in version order (see DESIGN.md).
  outcome = Outcome::kCommit;
  if (!head.tx.is_global()) return Stall::kNone;
  outcome = rounds_.at(head.tx.id).verdict();
  if (outcome == Outcome::kUnknown) return Stall::kVotes;
  return dc_ < head.rt ? Stall::kThreshold : Stall::kNone;
}

void Server::drain_pending() {
  // Every pass keeps one fixed order, because completions send (replies,
  // read answers) and send order feeds the fabric RNG: in-order head,
  // threshold tick, bypassed locals, speculation. Only speculation can
  // unblock the head again, so only its progress repeats the pass.
  for (;;) {
    Outcome outcome = Outcome::kUnknown;
    Stall stall = head_stall(outcome);
    for (; stall == Stall::kNone; stall = head_stall(outcome)) {
      const PendingEntry e = cert_.pop_head();
      if (e.reordered) ++stats_.reordered;
      finalize(e.tx, e.version, outcome);
    }
    // If the partition goes idle the delivery counter would never reach
    // the threshold; tick it.
    if (stall == Stall::kThreshold) schedule_threshold_tick();
    // Out-of-order local commit (techniques.ooo_bypass) of every ready
    // local whose park bound the completed-global watermark covers, front
    // to back so that write-conflicting locals keep ascending version
    // order (DESIGN.md "Out-of-order local commit"). The head is never
    // bypassable, so `stall` still describes it.
    for (std::size_t pos = cert_.next_bypassable(0); pos != Certifier::npos;
         pos = cert_.next_bypassable(pos)) {
      const PendingEntry e = cert_.take_at(pos);
      ++stats_.bypassed_locals;
      if (e.reordered) ++stats_.reordered;
      SDUR_TRACE_INSTANT(trace_track_, trace::Point::kTxBypassed, e.tx.id, now(),
                         static_cast<std::uint64_t>(pos));
      finalize(e.tx, e.version, Outcome::kCommit);
    }
    if (!cfg_.techniques.speculation) return;
    bool progress = false;
    // Chained speculation of global heads stalled on votes or on their
    // threshold: the entry leaves the pending list, its writes held in its
    // round until finalize, so nothing behind it waits for its votes, and
    // its threshold no longer matters (DESIGN.md "Speculative global
    // commit").
    for (; stall == Stall::kVotes || stall == Stall::kThreshold; stall = head_stall(outcome)) {
      PendingEntry e = cert_.pop_head();
      // A threshold-stalled head already knows its verdict: settled at once.
      Round& r = enter_phase(
          e.tx, stall == Stall::kThreshold ? Round::Phase::kSettled : Round::Phase::kSpeculated,
          e.version);
      r.rt = e.rt;
      r.tx = std::move(e.tx);
      ++stats_.speculated_globals;
      SDUR_TRACE_MARK(trace_track_, trace::Point::kTxSpeculated, r.tx.id, now(), 1);
      SDUR_AUDIT_NOTE(now(), name() << " speculated global tx " << r.tx.id << " v" << r.version);
      progress = true;
    }
    // Settled speculations finalize in ascending version order, each the
    // moment its own votes complete — not behind earlier ones still
    // waiting (slot resolution and the per-key read frontier keep reads
    // safe in any resolution order).
    for (auto it = phase_begin(Round::Phase::kSettled); it != round_order_.end();
         it = phase_begin(Round::Phase::kSettled)) {
      const Round& r = rounds_.at(it->second);
      finalize(r.tx, r.version, r.verdict());
      progress = true;
    }
    if (!progress) return;
  }
}

// --- Global termination ---------------------------------------------------------

const Outcome* Server::Round::vote(PartitionId p) const {
  const auto it = std::find_if(votes.begin(), votes.end(), [p](auto& e) { return e.first == p; });
  return it == votes.end() ? nullptr : &it->second;
}

Outcome Server::Round::verdict() const {
  Outcome combined = Outcome::kCommit;
  for (PartitionId p : involved) {
    const Outcome* v = vote(p);
    if (v == nullptr) return Outcome::kUnknown;
    if (*v == Outcome::kAbort) combined = Outcome::kAbort;
  }
  return combined;
}

Server::Round& Server::enter_phase(const PartTx& t, Round::Phase phase, Version version) {
  Round& r = rounds_[t.id];
  if (r.phase == Round::Phase::kVoting) {
    r.involved = t.involved;
    r.delivered_at = now();
  }
  round_order_.erase({r.phase, r.version});  // no-op for kVoting
  r.phase = phase;
  r.version = version;
  round_order_.emplace(std::pair{phase, version}, t.id);
  return r;
}

void Server::chase_votes(TxId id, Round& r, sim::Time t_now) {
  if (r.verdict() != Outcome::kUnknown) return;
  if (t_now - r.last_vote_resend >= kVoteResendInterval) {
    r.last_vote_resend = t_now;
    // Re-push our vote (it may have been lost) and pull the votes we are
    // missing (the peers may have completed long ago, e.g. if this
    // replica recovered from a crash and lost its vote table).
    if (const Outcome* own = r.vote(cfg_.partition)) send_vote_to_peers(id, r.involved, *own);
    for (PartitionId part : r.involved) {
      if (part == cfg_.partition || r.vote(part) != nullptr) continue;
      const sim::Message req = VoteRequestMsg{id}.to_message();
      for (sim::ProcessId peer : cfg_.partition_servers[part]) {
        send(peer, maybe_piggyback(peer, req));
      }
    }
  }
  if (t_now - r.delivered_at >= cfg_.missing_vote_timeout && engine_->is_leader() &&
      (r.last_abort_request == 0 || t_now - r.last_abort_request >= kVoteResendInterval)) {
    // Suspect the submitter crashed between broadcasts: ask the silent
    // partitions to abort (or to resend their vote if they did deliver).
    // A resend charges the replica asked before a miss: it may have
    // crashed with the request.
    ++stats_.abort_requests_sent;
    for (PartitionId part : r.involved) {
      if (part == cfg_.partition || r.vote(part) != nullptr) continue;
      if (r.last_abort_request != 0) chooser_.miss(replica_for(part));
      abcast(part, PartTx::make_abort_request(id, r.involved));
    }
    r.last_abort_request = t_now;
  }
}

// --- Votes --------------------------------------------------------------------

void Server::record_vote(TxId id, PartitionId partition, Outcome vote) {
  Round& r = rounds_[id];
  const auto it = std::find_if(r.votes.begin(), r.votes.end(),
                               [partition](auto& e) { return e.first == partition; });
  if (it == r.votes.end()) {
    r.votes.emplace_back(partition, vote);
  } else if (it->second == Outcome::kUnknown) {
    it->second = vote;  // a repeat only replaces a kUnknown vote
  }
  if (r.phase == Round::Phase::kSpeculated && r.verdict() != Outcome::kUnknown) {
    enter_phase(r.tx, Round::Phase::kSettled, r.version);
  }
}

const Outcome* Server::own_vote(TxId id) const {
  const auto r = rounds_.find(id);
  return r != rounds_.end() ? r->second.vote(cfg_.partition) : outcomes_.find(id);
}

void Server::cast_own_vote(TxId id, const std::vector<PartitionId>& involved, Outcome v) {
  if (rounds_[id].vote(cfg_.partition) == nullptr) {
    // One vote per (transaction, partition), identical across the
    // partition's replicas — votes may only differ *between* partitions.
    SDUR_AUDIT(audit::Oracle::instance().record_vote(
        id, cfg_.partition, v == Outcome::kCommit ? audit::Oracle::kCommit : audit::Oracle::kAbort,
        self(), now()));
    // The round holds the own-partition vote too, so its verdict sees
    // every partition's vote uniformly.
    record_vote(id, cfg_.partition, v);
  }
  send_vote_to_peers(id, involved, v);
}

void Server::send_vote_to_peers(TxId id, const std::vector<PartitionId>& involved, Outcome v) {
  if (batching()) {
    for (PartitionId p : involved) {
      if (p == cfg_.partition) continue;
      enqueue_vote(p, id, v);
    }
    return;
  }
  const sim::Message msg = VoteMsg{id, cfg_.partition, v}.to_message();
  for (PartitionId p : involved) {
    if (p == cfg_.partition) continue;
    for (sim::ProcessId peer : cfg_.partition_servers[p]) send(peer, msg);
  }
}

bool Server::handle_vote(TxId id, PartitionId partition, Outcome vote) {
  // A vote is stale unless its transaction is pending or speculated here,
  // or undelivered and above its client's floor. Delivered, it completed
  // or failed certification (P-DUR: with its epilogue still on the cores);
  // undelivered at or below the floor, a first delivery would take the
  // late path and vote abort uncertified. Stale votes open no round.
  const auto it = rounds_.find(id);
  const bool live = it != rounds_.end() && it->second.phase != Round::Phase::kVoting;
  const auto s = sessions_.find(tx_client(id));
  const bool floored = s != sessions_.end() && tx_seq(id) <= s->second.last;
  if (!live && (floored || outcomes_.find(id) != nullptr)) {
    ++stats_.stale_votes_dropped;
    return false;
  }
  record_vote(id, partition, vote);
  return true;
}

void Server::handle_vote_batch(const VoteBatchMsg& m) {
  // One drain covers the whole batch: completion work amortizes over N
  // votes instead of running once per vote message.
  bool recorded = false;
  for (const VoteBatchEntry& e : m.votes) {
    recorded = handle_vote(e.id, m.partition, e.vote) || recorded;
  }
  if (recorded) drain_pending();
}

// --- Vote batching (see DESIGN.md "Vote exchange & batching") -----------------

void Server::enqueue_vote(PartitionId p, TxId id, Outcome v) {
  if (p >= vote_outbox_.size()) return;
  VoteOutbox& box = vote_outbox_[p];
  box.queue.push_back(VoteBatchEntry{id, v});
  if (box.queue.size() >= kVoteBatchMax) {
    flush_votes_for(p);
    return;
  }
  if (!vote_flush_pending_) {
    // One timer serves every destination queue; epoch-guarded, so a crash
    // kills it and on_recover starts from an empty outbox.
    vote_flush_pending_ = true;
    set_timer(cfg_.techniques.vote_batch_interval, [this] { flush_votes(); });
  }
}

void Server::flush_votes() {
  vote_flush_pending_ = false;
  for (PartitionId p = 0; p < static_cast<PartitionId>(vote_outbox_.size()); ++p) {
    flush_votes_for(p);
  }
}

void Server::flush_votes_for(PartitionId p) {
  VoteOutbox& box = vote_outbox_[p];
  if (box.queue.empty()) return;
  // Each replica gets the suffix it is missing (piggybacks may already
  // have carried prefixes to some). Replicas at the same cursor share one
  // refcounted payload: it is re-encoded only when the cursor changes.
  const std::vector<sim::ProcessId>& peers = cfg_.partition_servers[p];
  std::size_t min_cursor = box.queue.size();
  std::size_t encoded_from = box.queue.size();
  sim::Message msg;
  scratch_batch_.partition = cfg_.partition;
  for (std::size_t i = 0; i < box.cursor.size(); ++i) {
    const std::size_t from = box.cursor[i];
    if (from >= box.queue.size()) continue;
    if (from != encoded_from) {
      scratch_batch_.votes.assign(box.queue.begin() + static_cast<std::ptrdiff_t>(from),
                                  box.queue.end());
      msg = scratch_batch_.to_message();
      encoded_from = from;
    }
    send(peers[i], msg);
    ++stats_.vote_batches_sent;
    min_cursor = std::min(min_cursor, from);
  }
  if (min_cursor < box.queue.size()) {
    stats_.votes_batched += box.queue.size() - min_cursor;
    SDUR_TRACE_INSTANT(trace_track_, trace::Point::kVoteFlush, p, now(),
                       box.queue.size() - min_cursor);
  }
  box.clear();
}

sim::Message Server::maybe_piggyback(sim::ProcessId to, sim::Message m) {
  if (!batching()) return m;
  if (m.type == msgtype::kVoteBatch || m.type == msgtype::kVotePiggyback) return m;
  const auto peer = peer_index_.find(to);
  if (peer == peer_index_.end() || peer->second.first == cfg_.partition) return m;
  VoteOutbox& box = vote_outbox_[peer->second.first];
  std::size_t& cur = box.cursor[peer->second.second];
  if (cur >= box.queue.size()) return m;
  VotePiggybackMsg env;
  env.inner_type = m.type;
  env.inner_payload = m.payload.bytes();
  env.batch.partition = cfg_.partition;
  env.batch.votes.assign(box.queue.begin() + static_cast<std::ptrdiff_t>(cur), box.queue.end());
  stats_.votes_piggybacked += env.batch.votes.size();
  SDUR_TRACE_INSTANT(trace_track_, trace::Point::kVotePiggyback, peer->second.first, now(),
                     env.batch.votes.size());
  cur = box.queue.size();
  // If every replica now has the full queue, drop it (nothing left for the
  // interval flush to send).
  if (std::all_of(box.cursor.begin(), box.cursor.end(),
                  [&box](std::size_t c) { return c >= box.queue.size(); })) {
    box.clear();
  }
  return env.to_message();
}

// --- Reads ---------------------------------------------------------------------

void Server::handle_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot) {
  const PartitionId p = partitioning_->partition_of(key);
  if (p != cfg_.partition) {
    // Section V: partitioning is transparent to clients connected to a
    // single server — route the read; the remote server answers the client
    // directly.
    ++stats_.reads_routed;
    send(read_replica(p), ReadRoutedMsg{reqid, client, key, snapshot}.to_message());
    return;
  }
  schedule_read(reqid, client, key, snapshot);
}

void Server::schedule_read(std::uint64_t reqid, sim::ProcessId client, Key key,
                           Version snapshot) {
  if (parallel()) {
    // P-DUR: the read runs on the key's owning core (per-core version
    // ownership) — reads of different sub-partitions proceed in parallel.
    executor_->run_read(
        key, [this, reqid, client, key, snapshot] { answer_read(reqid, client, key, snapshot); });
    return;
  }
  answer_read(reqid, client, key, snapshot);
}

void Server::answer_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot) {
  // A first read at this partition is served at the key's read frontier:
  // the newest version at which no unresolved writer of the key can still
  // change its value. A read at a fixed snapshot (later reads of an update,
  // every read-only read) waits only while the key has an unresolved
  // writer at or below it, or while this replica has not certified up to
  // the snapshot yet (a gossiped snapshot from a faster replica).
  const Version frontier = cert_.read_frontier(key);
  const Version st = snapshot < 0 ? frontier : snapshot;
  if (st > frontier) {
    ++stats_.reads_deferred;
    deferred_reads_.push_back(DeferredRead{reqid, client, key, st});
    return;
  }
  ++stats_.reads_served;
  if (st > cert_.stable()) ++stats_.reads_above_stable;
  // Snapshot visibility, per key: no unresolved writer of this key sits at
  // or below the snapshot, and the returned version must be visible at it —
  // otherwise the client could observe a value that still changes under
  // its snapshot.
  SDUR_AUDIT_CHECK("server", "read-snapshot-visible", st <= cert_.read_frontier(key),
                   name() << " serves key " << key << " at snapshot " << st
                          << " above its read frontier " << cert_.read_frontier(key));
  auto v = store_.get(key, st);
  SDUR_AUDIT_CHECK("server", "read-version-in-snapshot", !v || v->version <= st,
                   name() << " read of key " << key << " at snapshot " << st
                          << " returned version " << (v ? v->version : -1));
  ReadRespMsg resp;
  resp.reqid = reqid;
  resp.key = key;
  resp.found = v.has_value();
  if (v) resp.value = std::move(v->value);
  resp.snapshot = st;
  send(client, resp.to_message());
}

void Server::service_deferred_reads() {
  for (std::size_t i = 0; i < deferred_reads_.size();) {
    if (deferred_reads_[i].snapshot <= cert_.read_frontier(deferred_reads_[i].key)) {
      const DeferredRead r = deferred_reads_[i];
      deferred_reads_.erase(deferred_reads_.begin() + static_cast<std::ptrdiff_t>(i));
      answer_read(r.reqid, r.client, r.key, r.snapshot);
    } else {
      ++i;
    }
  }
}

// --- Timers ----------------------------------------------------------------------

void Server::gossip_tick() {
  if (cert_.stable() != last_gossiped_sc_ && cfg_.num_partitions > 1) {
    last_gossiped_sc_ = cert_.stable();
    const sim::Message msg = GossipSCMsg{cfg_.partition, cert_.stable()}.to_message();
    for (PartitionId p = 0; p < cfg_.num_partitions; ++p) {
      if (p == cfg_.partition) continue;
      for (sim::ProcessId peer : cfg_.partition_servers[p]) send(peer, maybe_piggyback(peer, msg));
    }
  }
  set_timer(kGossipInterval, [this] { gossip_tick(); });
}

void Server::liveness_tick() {
  // One pass over the delivered rounds in round_order_'s visit order; the
  // order fixes the send order, which feeds the fabric's RNG.
  const sim::Time t_now = now();
  for (const auto& [key, id] : round_order_) chase_votes(id, rounds_.at(id), t_now);
  set_timer(kVoteResendInterval / 2, [this] { liveness_tick(); });
}

// --- Checkpointing ------------------------------------------------------------------

paxos::Value Server::encode_state() const {
  util::Writer w;
  store_.encode(w);
  cert_.encode(w);
  w.u64(dc_);
  w.varint(sessions_.size());
  for (const auto& entry : sessions_) util::encode(w, entry);  // client, last, open
  outcomes_.encode(w);
  // Speculated globals: their writes are not in the store blob above; they
  // travel here, with the transaction, until finalize applies them.
  const auto first = phase_begin(Round::Phase::kSpeculated);
  w.varint(static_cast<std::uint64_t>(std::distance(first, round_order_.end())));
  for (auto it = first; it != round_order_.end(); ++it) {
    const Round& r = rounds_.at(it->second);
    w.i64(r.version);
    const util::Bytes tx = r.tx.encode();
    w.bytes(tx);
    w.u64(r.rt);
  }
  return std::move(w).take();
}

void Server::install_state(const paxos::Value& blob) {
  util::Reader r(blob);
  store_.install(r);
  cert_.install(r);
  dc_ = r.u64();
  sessions_.clear();
  for (std::uint64_t n = r.varint(); n > 0; --n) {
    sessions_.insert(util::decode<std::pair<sim::ProcessId, Session>>(r));
  }
  outcomes_.install(r);
  // Rounds reopen for the restored globals, seeded with our own vote (a
  // pending or speculated global was certified to commit here); peer
  // votes are re-fetched by the vote-request repair in liveness_tick.
  rounds_.clear();
  round_order_.clear();
  auto reopen = [this](const PartTx& t, Round::Phase phase, Version v) {
    enter_phase(t, phase, v);
    record_vote(t.id, cfg_.partition, Outcome::kCommit);
  };
  for (std::uint64_t n = r.varint(); n > 0; --n) {
    const Version v = r.i64();
    PartTx tx = PartTx::decode(r.shared());
    // The transaction goes in first: a vote that settles the round needs it.
    Round& round = rounds_[tx.id];
    round.tx = std::move(tx);
    round.rt = r.u64();
    reopen(round.tx, Round::Phase::kSpeculated, v);
  }
  // Restored entries are ready: their core work happened before the
  // checkpoint (the checkpoint itself carries the resulting state).
  for (std::size_t i = 0; i < cert_.size(); ++i) {
    PendingEntry& e = cert_.at(i);
    e.ready = true;
    if (e.tx.is_global()) reopen(e.tx, Round::Phase::kPending, e.version);
  }
  drain_pending();
  service_deferred_reads();
}

void Server::checkpoint_tick() {
  // Pending transactions serialize into the checkpoint too (their peer
  // votes are re-fetched on install), so checkpoints can be taken under
  // load; pending lists stay short in practice. The checkpoint covers
  // what was delivered by now, and the deliveries still queued on the CPU
  // run before its state is encoded.
  enqueue_work(0, [this, upto = engine_->next_deliver()] {
    engine_->save_checkpoint(encode_state(), upto);
  });
  set_timer(cfg_.checkpoint_interval, [this] { checkpoint_tick(); });
}

// --- Recovery -----------------------------------------------------------------------

void Server::on_recover() {
  store_.truncate_above(0);
  cert_.reset();
  dc_ = 0;
  rounds_.clear();
  round_order_.clear();
  sessions_.clear();
  outcomes_ = History{};
  std::fill(gsc_.begin(), gsc_.end(), 0);
  last_gossiped_sc_ = -1;
  deferred_reads_.clear();
  tick_pending_ = false;
  // The vote outbox is volatile: queued votes die with the replica (the
  // flush timer is epoch-guarded and never fires after a crash); recovery
  // replay re-votes, and the resend/vote-request repair covers the rest.
  for (VoteOutbox& box : vote_outbox_) box.clear();
  vote_flush_pending_ = false;
  stats_ = Stats{};
  // Replays the decided prefix through adeliver(), rebuilding SC/DC/window
  // deterministically, then rejoins the group as a follower.
  engine_->on_recover();
  arm_timers();
}

}  // namespace sdur
