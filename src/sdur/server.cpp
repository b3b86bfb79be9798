#include "sdur/server.h"

#include <algorithm>

#include "audit/audit.h"
#include "util/logging.h"

namespace sdur {

namespace {
constexpr std::size_t kOwnVoteMemory = 200'000;  // completed-vote history kept

/// Paxos value kind for this server's abcast payloads is the PartTx kind
/// byte; nothing extra is needed.
}  // namespace

Server::Stats& Server::Stats::operator+=(const Stats& o) {
  delivered += o.delivered;
  committed_local += o.committed_local;
  committed_global += o.committed_global;
  aborted += o.aborted;
  stale_snapshot_aborts += o.stale_snapshot_aborts;
  reordered += o.reordered;
  ticks_sent += o.ticks_sent;
  abort_requests_sent += o.abort_requests_sent;
  reads_served += o.reads_served;
  reads_routed += o.reads_routed;
  reads_deferred += o.reads_deferred;
  reads_above_stable += o.reads_above_stable;
  pdur_single_core += o.pdur_single_core;
  pdur_cross_core += o.pdur_cross_core;
  vote_batches_sent += o.vote_batches_sent;
  votes_batched += o.votes_batched;
  votes_piggybacked += o.votes_piggybacked;
  stale_votes_dropped += o.stale_votes_dropped;
  bypassed_locals += o.bypassed_locals;
  parked_locals += o.parked_locals;
  speculated_globals += o.speculated_globals;
  spec_commits += o.spec_commits;
  spec_aborts += o.spec_aborts;
  return *this;
}

Server::Server(sim::Network& net, sim::ProcessId pid, sim::Location loc, ServerConfig cfg,
               paxos::GroupConfig paxos_cfg, PartitioningPtr partitioning)
    : sim::Process(net, pid, "server-p" + std::to_string(cfg.partition) + "-" +
                                 std::to_string(paxos_cfg.self_index),
                   loc),
      cfg_(std::move(cfg)),
      partitioning_(std::move(partitioning)),
      cert_(cfg_.window_capacity, cfg_.pdur.cores, cfg_.ooo_bypass),
      gsc_(cfg_.num_partitions, 0) {
  set_message_service_time(cfg_.message_service_time);
  trace_track_ = SDUR_TRACE_REGISTER(self(), name(), -1);
  if (parallel()) {
    // P-DUR replica: core 0 is the dispatcher (message ingress + delivery
    // fan-out); certification/execution work runs on the keys' home cores.
    set_core_count(cfg_.pdur.cores);
    set_message_service_time(cfg_.pdur.ingress_cost);
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
  if (batching() && cfg_.vote_piggyback) {
    // Paxos engine traffic is intra-group today, but cross-partition
    // forwards relayed through the engine (leader changes) also pass here;
    // the wrapper is identity for same-partition destinations.
    engine_->set_send_wrapper(
        [this](sim::ProcessId to, sim::Message m) { return maybe_piggyback_pid(to, std::move(m)); });
  }
}

void Server::start() {
  engine_->start();
  set_timer(cfg_.gossip_interval, [this] { gossip_tick(); });
  set_timer(cfg_.vote_resend_interval / 2, [this] { liveness_tick(); });
  if (cfg_.checkpoint_interval > 0) {
    set_timer(cfg_.checkpoint_interval, [this] { checkpoint_tick(); });
  }
}

void Server::on_message(const sim::Message& m, sim::ProcessId from) {
  if (paxos::PaxosEngine::handles(m.type)) {
    engine_->handle_message(m, from);
    return;
  }
  util::Reader r(m.payload);
  switch (m.type) {
    case msgtype::kCommitReq: {
      handle_commit_request(CommitReqMsg::decode(r).tx);
      break;
    }
    case msgtype::kReadReq: {
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
      handle_vote(VoteMsg::decode(r));
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
      auto it = own_votes_.find(msg.id);
      if (it != own_votes_.end()) {
        send(from,
             maybe_piggyback_pid(from, VoteMsg{msg.id, cfg_.partition, it->second}.to_message()));
      }
      break;
    }
    case msgtype::kGossipSC: {
      const auto msg = GossipSCMsg::decode(r);
      if (msg.partition < gsc_.size()) gsc_[msg.partition] = std::max(gsc_[msg.partition], msg.sc);
      break;
    }
    case msgtype::kSnapshotReq: {
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

void Server::remember_outcome(TxId id, Outcome o) {
  auto [it, inserted] = outcomes_.try_emplace(id, o);
  if (!inserted) return;
  outcomes_order_.push_back(id);
  while (outcomes_order_.size() > kOwnVoteMemory) {
    outcomes_.erase(outcomes_order_.front());
    outcomes_order_.pop_front();
  }
}

void Server::handle_commit_request(Transaction tx) {
  // Client retry after a lost outcome message: answer from memory; the
  // transaction must not run twice.
  if (auto it = outcomes_.find(tx.id); it != outcomes_.end()) {
    send(tx.client, OutcomeMsg{tx.id, it->second}.to_message());
    return;
  }
  // Duplicate commit request for a transaction still in flight here:
  // dropping it is safe — the original submission is still being driven
  // by the Paxos resubmission machinery.
  if (seen_.contains(tx.id)) return;
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

  sim::Time max_remote_delay = 0;
  for (PartitionId p : involved) {
    if (p == cfg_.partition) continue;
    PartTx part = project(tx, p, involved);
    part.contact = contact;
    abcast(p, part);
    if (p < cfg_.partition_delay_estimate.size()) {
      max_remote_delay = std::max(max_remote_delay, cfg_.partition_delay_estimate[p]);
    }
  }
  if (own_involved) {
    PartTx part = project(tx, cfg_.partition, involved);
    part.contact = contact;
    const sim::Time delay = cfg_.fixed_delay > 0 ? cfg_.fixed_delay : max_remote_delay;
    if (cfg_.delaying_enabled && involved.size() > 1 && delay > 0) {
      // Section IV-D: delay the local broadcast of a global transaction by
      // the estimated time for the remote partitions to receive it.
      const paxos::Value value = part.encode();
      set_timer(delay, [this, value] { engine_->propose(value); });
    } else {
      abcast(cfg_.partition, part);
    }
  }
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
  t.readset = cfg_.bloom_readsets ? util::KeySet::bloom(rs, cfg_.bloom_fp_rate)
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

void Server::abcast(PartitionId p, const PartTx& t) {
  paxos::Value value = t.encode();
  if (p == cfg_.partition) {
    engine_->propose(std::move(value));
    return;
  }
  // Hand the value to the remote group's bootstrap contact; its engine
  // relays to the current leader if leadership moved.
  const sim::ProcessId target = cfg_.partition_servers[p].front();
  send(target, maybe_piggyback_pid(target, paxos::Forward{std::move(value)}.to_message()));
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
    // P-DUR: the dispatcher only routes the transaction to its home cores;
    // certification + apply cost is charged on those cores instead.
    cost = parallel() ? cfg_.pdur.dispatch_cost
                      : cfg_.certification_cost +
                            cfg_.apply_cost_per_write * static_cast<sim::Time>(t.writes.size());
    // The mark's timestamp is the enqueue time; kTxCertified later carries
    // this same cost in its aux, letting export split the interval between
    // the two marks into CPU queue wait and charged service time.
    SDUR_TRACE_MARK(trace_track_, trace::Point::kTxDeliver, t.id, now(), 0);
  }
  enqueue_work(cost, [this, t = std::move(t)]() mutable { process_delivery(std::move(t)); });
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
      cfg_.reorder_threshold = t.threshold;
      break;

    case PartTx::Kind::kAbortRequest: {
      if (seen_.contains(t.id)) {
        // The transaction did reach this partition; our vote may have been
        // lost — resend it instead of aborting (Section IV-F: act on
        // whichever of {transaction, abort request} is delivered first).
        auto it = own_votes_.find(t.id);
        if (it != own_votes_.end()) {
          PartTx stub;
          stub.id = t.id;
          stub.involved = t.involved;
          send_vote_to_peers(stub, it->second);
        }
      } else {
        poisoned_.insert(t.id);
        PartTx stub;
        stub.id = t.id;
        stub.involved = t.involved;
        record_own_vote(stub, Outcome::kAbort);
        send_vote_to_peers(stub, Outcome::kAbort);
      }
      break;
    }

    case PartTx::Kind::kTxn: {
      if (seen_.contains(t.id)) break;  // duplicate after leader change
      seen_.insert(t.id);
      const std::uint64_t rt = dc_ + cfg_.reorder_threshold;
      Outcome vote = Outcome::kAbort;
      Certifier::Result res;
      SDUR_AUDIT(Version audit_version = 0);
      // The Certifier attributes its per-lane conflict-check instants to
      // this delivery via the tracer context.
      SDUR_TRACE_SET_CONTEXT(trace_track_, t.id, now());
      if (!poisoned_.contains(t.id)) {
        res = cert_.process(t, rt, dc_);
        vote = res.outcome;
        if (res.stale_snapshot) ++stats_.stale_snapshot_aborts;
        if (res.reordered) ++stats_.reordered;
        if (vote == Outcome::kCommit) {
          PendingEntry& inserted = cert_.at(res.position);
          inserted.delivered_at = now();
          inserted.last_vote_resend = now();
          SDUR_AUDIT(audit_version = res.version);
          if (res.parked) {
            // Bypass gate: this local write-conflicts with a pending entry
            // and waits for the completed-global watermark to cover its
            // park bound; the sweep releases it from drain_pending.
            ++stats_.parked_locals;
            SDUR_TRACE_INSTANT(trace_track_, trace::Point::kTxParked, t.id, now(),
                               static_cast<std::uint64_t>(inserted.park_until));
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
      SDUR_TRACE_CLEAR_CONTEXT();
      SDUR_TRACE_STMT({
        const sim::Time charged =
            parallel() ? cfg_.pdur.dispatch_cost
                       : cfg_.certification_cost +
                             cfg_.apply_cost_per_write * static_cast<sim::Time>(t.writes.size());
        SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCertified, t.id, now(),
                        trace::cert_aux(t.is_global(), vote == Outcome::kCommit, charged));
      });
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
        sim::Time work = cfg_.certification_cost;
        if (vote == Outcome::kCommit) {
          work += cfg_.apply_cost_per_write * static_cast<sim::Time>(t.writes.size());
        }
        const Version version = res.version;
        const std::vector<pdur::CoreId> cores = std::move(res.cores);
        executor_->run(cores, work, [this, t = std::move(t), vote, version] {
          finish_core_work(t, vote, version);
        });
        break;
      }
      if (t.is_global()) {
        record_own_vote(t, vote);
        send_vote_to_peers(t, vote);
      }
      if (vote == Outcome::kAbort) {
        // Failed certification: never entered the pending list, has no
        // version slot — just account and answer the client.
        ++stats_.aborted;
        votes_.erase(t.id);
        remember_outcome(t.id, Outcome::kAbort);
        SDUR_AUDIT(audit::Oracle::instance().record_completion(
            t.id, cfg_.partition, audit::Oracle::kAbort, t.involved, self(), now()));
        if (t.contact == self() && t.client != 0) {
          SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCompleted, t.id, now(), 0);
          send(t.client, OutcomeMsg{t.id, Outcome::kAbort}.to_message());
        }
      }
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
  if (t.is_global()) {
    record_own_vote(t, vote);
    send_vote_to_peers(t, vote);
  }
  if (vote == Outcome::kAbort) {
    ++stats_.aborted;
    votes_.erase(t.id);
    remember_outcome(t.id, Outcome::kAbort);
    SDUR_AUDIT(audit::Oracle::instance().record_completion(
        t.id, cfg_.partition, audit::Oracle::kAbort, t.involved, self(), now()));
    if (t.contact == self() && t.client != 0) {
      SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCompleted, t.id, now(), 0);
      send(t.client, OutcomeMsg{t.id, Outcome::kAbort}.to_message());
    }
  }
  drain_pending();
}

void Server::complete(const PendingEntry& e, Outcome outcome) {
  const PartTx& t = e.tx;
  // 2PC safety and atomicity: the outcome must match every other replica's
  // and partition's, and a global commit requires a commit vote from every
  // involved partition (checked inside the oracle).
  SDUR_AUDIT(audit::Oracle::instance().record_completion(
      t.id, cfg_.partition,
      outcome == Outcome::kCommit ? audit::Oracle::kCommit : audit::Oracle::kAbort, t.involved,
      self(), now()));
  SDUR_AUDIT_NOTE(now(), name() << " completed tx " << t.id << " -> " << to_string(outcome)
                                << " v" << e.version);
  if (outcome == Outcome::kCommit) {
    // Writes are applied at the version pre-assigned at certification;
    // apply cost was already charged when the delivery was enqueued.
    for (const auto& op : t.writes) store_.put(op.key, op.value, e.version);
    cert_.resolve(e, true);
    if (t.is_global()) {
      ++stats_.committed_global;
    } else {
      ++stats_.committed_local;
    }
    if ((cert_.stable() & 0x3FFFF) == 0) {
      store_.gc(cert_.stable() - static_cast<Version>(cfg_.window_capacity));
    }
  } else {
    cert_.resolve(e, false);
    ++stats_.aborted;
  }
  // Resolution may have advanced read frontiers either way.
  service_deferred_reads();
  votes_.erase(t.id);
  remember_outcome(t.id, outcome);
  if (t.contact == self() && t.client != 0) {
    if (t.is_global()) {
      // Certification verdict to all-votes-in + reorder threshold cleared.
      SDUR_TRACE_SPAN(trace_track_, trace::Point::kVoteWait, t.id, e.delivered_at, now(), 0, -1);
    }
    SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCompleted, t.id, now(),
                    outcome == Outcome::kCommit ? 1 : 0);
    send(t.client, OutcomeMsg{t.id, outcome}.to_message());
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
  set_timer(cfg_.tick_interval, [this, dc_at_schedule] {
    tick_pending_ = false;
    const bool blocked = !cert_.empty() && cert_.head().ready && cert_.head().tx.is_global() &&
                         has_all_votes(cert_.head()) && dc_ < cert_.head().rt;
    if (!blocked) return;
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

void Server::drain_pending() {
  // Legacy (speculation off): one in-order drain plus one bypass sweep —
  // bit-identical to before the speculation refactor. With speculation on,
  // a sweep that speculated or resolved something can unblock the in-order
  // drain (the head changed), so the passes interleave until a fixpoint.
  bool progress = true;
  while (progress) {
    drain_in_order();
    if (cfg_.ooo_bypass) bypass_sweep();
    progress = cfg_.speculation && spec_sweep();
  }
}

void Server::drain_in_order() {
  while (!cert_.empty()) {
    PendingEntry& head = cert_.head();
    // P-DUR: the head's core work is still in flight — nothing behind it
    // may complete either (completion is in version order).
    if (!head.ready) break;
    if (!head.tx.is_global()) {
      // Outstanding speculative versions never gate a local: no read
      // serves a key above an unresolved writer of that key, so nothing
      // the local read depends on how the specs resolve (and its verdict
      // is status-blind). Its writes land above theirs in version order;
      // a later rollback erases mid-chain underneath them (see DESIGN.md).
      const PendingEntry e = cert_.pop_head();
      complete(e, Outcome::kCommit);
      continue;
    }
    if (!has_all_votes(head)) break;  // spec_sweep may speculate it instead
    if (dc_ < head.rt) {
      // Vote-complete but threshold-blocked (line 29). If the partition
      // goes idle the delivery counter would never advance; tick it.
      schedule_threshold_tick();
      break;
    }
    const Outcome outcome = combined_outcome(head);
    const PendingEntry e = cert_.pop_head();
    complete(e, outcome);
  }
}

void Server::bypass_sweep() {
  // Out-of-order local commit: the in-order drain above stalled (head
  // global waiting on votes or its threshold, or P-DUR head core work in
  // flight) — commit every ready local whose park bound the
  // completed-global watermark covers. Front-to-back order keeps
  // write-conflicting locals in ascending version order; everything a
  // swept local leaps is write-disjoint (and read-disjoint, bar
  // snapshot-bottom blind writes whose projected readset is empty here),
  // so the schedule stays equivalent to the delivery-order serial one.
  // Sweep completions never unblock the head (votes and thresholds are
  // untouched), so one pass after the drain suffices.
  std::size_t pos = cert_.next_bypassable(0);
  while (pos != Certifier::npos) {
    // Replay the strict delivery-order gate: nothing still ahead of a
    // swept local may write-conflict with it (the store applies writes in
    // version order), and any pending write it *read* must sit within its
    // snapshot — the cross-replica race certification already admits: the
    // read was served by a replica where that writer had completed. A
    // bloom readset cannot be checked key-exactly, so its read clause is
    // skipped (the park gate already treated it as a conservative hit).
    SDUR_AUDIT({
      const PendingEntry& local = cert_.at(pos);
      for (std::size_t k = 0; k < pos; ++k) {
        const PendingEntry& ahead = cert_.at(k);
        SDUR_AUDIT_CHECK("certifier", "bypass-serial-equivalence",
                         !local.tx.write_keys.intersects(ahead.tx.write_keys),
                         "local tx " << local.tx.id << " (v" << local.version
                                     << ") bypasses write-conflicting pending tx " << ahead.tx.id
                                     << " (v" << ahead.version << ")");
        SDUR_AUDIT_CHECK("certifier", "bypass-serial-equivalence",
                         local.tx.readset.is_bloom() ||
                             !local.tx.readset.intersects(ahead.tx.write_keys) ||
                             ahead.version <= local.tx.snapshot,
                         "local tx " << local.tx.id << " (v" << local.version
                                     << ", st=" << local.tx.snapshot
                                     << ") bypasses pending tx " << ahead.tx.id << " (v"
                                     << ahead.version << ") whose write it read");
      }
    });
    const PendingEntry e = cert_.take_at(pos);
    ++stats_.bypassed_locals;
    SDUR_TRACE_INSTANT(trace_track_, trace::Point::kTxBypassed, e.tx.id, now(),
                       static_cast<std::uint64_t>(pos));
    complete(e, Outcome::kCommit);
    pos = cert_.next_bypassable(pos);
  }
}

// --- Speculative global commit (cfg.techniques.speculation) -------------------

bool Server::speculate_head() {
  if (cert_.empty()) return false;
  PendingEntry& head = cert_.head();
  if (!head.ready || !head.tx.is_global()) return false;
  if (has_all_votes(head) && dc_ >= head.rt) return false;  // drain_in_order's job
  PendingEntry e = cert_.pop_head();
  // Apply the writes as speculative versions immediately — the entry left
  // the pending list, so everything queued behind it completes without
  // waiting for this global's votes (no head-of-line blocking). The
  // reorder-threshold gate is deliberately skipped from here on:
  // reordering exists to let locals complete ahead of a blocked global,
  // which is moot once the global vacated the head (see DESIGN.md).
  for (const auto& op : e.tx.writes) store_.put_speculative(op.key, op.value, e.version);
  SpecEntry s;
  s.version = e.version;
  s.rt = e.rt;
  s.delivered_at = e.delivered_at;
  s.last_vote_resend = e.last_vote_resend;
  s.abort_requested = e.abort_requested;
  s.tx = std::move(e.tx);
  spec_ids_[s.tx.id] = s.version;
  ++stats_.speculated_globals;
  SDUR_TRACE_MARK(trace_track_, trace::Point::kTxSpeculated, s.tx.id, now(), 1);
  SDUR_AUDIT_NOTE(now(), name() << " speculated global tx " << s.tx.id << " v" << s.version);
  spec_.emplace(s.version, std::move(s));
  return true;
}

bool Server::spec_sweep() {
  bool progress = false;
  // Chained speculation: successive eligible global heads vacate in
  // version order (MVStore requires per-key ascending puts, which the
  // head-only rule guarantees).
  while (speculate_head()) progress = true;
  // Out-of-order finalize: each speculated global resolves the moment its
  // own votes complete — not behind earlier specs still waiting (slot
  // resolution and the per-key read frontier keep reads safe regardless
  // of the resolution order). The rescan after every resolution keeps
  // iteration valid across the erase inside finalize/rollback; spec_ stays
  // small.
  bool resolved = true;
  while (resolved) {
    resolved = false;
    for (const auto& [v, s] : spec_) {
      if (!has_all_votes(s.tx)) continue;
      if (combined_outcome(s.tx) == Outcome::kCommit) {
        finalize_spec(v);
      } else {
        rollback_spec(v);
      }
      resolved = true;
      progress = true;
      break;
    }
  }
  return progress;
}

void Server::finalize_spec(Version v) {
  auto it = spec_.find(v);
  if (it == spec_.end()) return;
  SpecEntry s = std::move(it->second);
  spec_.erase(it);
  spec_ids_.erase(s.tx.id);
  SDUR_AUDIT(audit::Oracle::instance().record_completion(
      s.tx.id, cfg_.partition, audit::Oracle::kCommit, s.tx.involved, self(), now()));
  SDUR_AUDIT_NOTE(now(), name() << " finalized speculated tx " << s.tx.id << " -> commit v"
                                << s.version);
  // The writes are already in the store at s.version: promote them (drop
  // the undo record) and resolve the slot so its keys' read frontiers can
  // pass it — only now can a read observe the versions.
  store_.promote(v);
  cert_.resolve(v, s.tx.id, true);
  ++stats_.spec_commits;
  ++stats_.committed_global;
  if ((cert_.stable() & 0x3FFFF) == 0) {
    store_.gc(cert_.stable() - static_cast<Version>(cfg_.window_capacity));
  }
  service_deferred_reads();
  votes_.erase(s.tx.id);
  remember_outcome(s.tx.id, Outcome::kCommit);
  if (s.tx.contact == self() && s.tx.client != 0) {
    if (s.tx.is_global()) {
      SDUR_TRACE_SPAN(trace_track_, trace::Point::kVoteWait, s.tx.id, s.delivered_at, now(), 0,
                      -1);
    }
    SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCompleted, s.tx.id, now(), 1);
    send(s.tx.client, OutcomeMsg{s.tx.id, Outcome::kCommit}.to_message());
  }
  // Missed-promotion guard: no speculative version may sit at or below the
  // resolved floor (audited + throws on violation).
  store_.audit_spec_floor(cert_.stable());
}

void Server::rollback_spec(Version v) {
  auto it = spec_.find(v);
  if (it == spec_.end()) return;
  SpecEntry s = std::move(it->second);
  spec_.erase(it);
  spec_ids_.erase(s.tx.id);
  SDUR_AUDIT(audit::Oracle::instance().record_completion(
      s.tx.id, cfg_.partition, audit::Oracle::kAbort, s.tx.involved, self(), now()));
  SDUR_AUDIT_NOTE(now(), name() << " rolled back speculated tx " << s.tx.id << " v" << s.version);
  // Undo the speculative versions (mid-chain erase: entries behind the
  // spec may have committed at higher versions already) and resolve the
  // slot as aborted.
  store_.rollback(v);
  cert_.resolve(v, s.tx.id, false);
  ++stats_.aborted;
  ++stats_.spec_aborts;
  SDUR_TRACE_INSTANT(trace_track_, trace::Point::kTxSpecAbort, s.tx.id, now(),
                     static_cast<std::uint64_t>(s.version));
  service_deferred_reads();
  votes_.erase(s.tx.id);
  remember_outcome(s.tx.id, Outcome::kAbort);
  if (s.tx.contact == self() && s.tx.client != 0) {
    if (s.tx.is_global()) {
      SDUR_TRACE_SPAN(trace_track_, trace::Point::kVoteWait, s.tx.id, s.delivered_at, now(), 0,
                      -1);
    }
    SDUR_TRACE_MARK(trace_track_, trace::Point::kTxCompleted, s.tx.id, now(), 0);
    send(s.tx.client, OutcomeMsg{s.tx.id, Outcome::kAbort}.to_message());
  }
  store_.audit_spec_floor(cert_.stable());
}

// --- Votes --------------------------------------------------------------------

void Server::record_own_vote(const PartTx& t, Outcome v) {
  auto [it, inserted] = own_votes_.try_emplace(t.id, v);
  if (!inserted) return;
  // One vote per (transaction, partition), identical across the
  // partition's replicas — votes may only differ *between* partitions.
  SDUR_AUDIT(audit::Oracle::instance().record_vote(
      t.id, cfg_.partition,
      v == Outcome::kCommit ? audit::Oracle::kCommit : audit::Oracle::kAbort, self(), now()));
  own_votes_order_.push_back(t.id);
  while (own_votes_order_.size() > kOwnVoteMemory) {
    own_votes_.erase(own_votes_order_.front());
    own_votes_order_.pop_front();
  }
  // Record into VOTES as well so has_all_votes sees the own-partition vote
  // uniformly.
  votes_[t.id][cfg_.partition] = v;
}

void Server::send_vote_to_peers(const PartTx& t, Outcome v) {
  if (batching()) {
    for (PartitionId p : t.involved) {
      if (p == cfg_.partition) continue;
      enqueue_vote(p, t.id, v);
    }
    return;
  }
  const VoteMsg vote{t.id, cfg_.partition, v};
  const sim::Message msg = vote.to_message();
  for (PartitionId p : t.involved) {
    if (p == cfg_.partition) continue;
    for (sim::ProcessId peer : cfg_.partition_servers[p]) send(peer, msg);
  }
}

bool Server::has_all_votes(const PartTx& t) const {
  auto it = votes_.find(t.id);
  if (it == votes_.end()) return false;
  for (PartitionId part : t.involved) {
    if (!it->second.contains(part)) return false;
  }
  return true;
}

bool Server::has_all_votes(const PendingEntry& p) const { return has_all_votes(p.tx); }

Outcome Server::combined_outcome(const PartTx& t) const {
  auto it = votes_.find(t.id);
  if (it == votes_.end()) return Outcome::kAbort;
  for (PartitionId part : t.involved) {
    auto vit = it->second.find(part);
    if (vit == it->second.end() || vit->second == Outcome::kAbort) return Outcome::kAbort;
  }
  return Outcome::kCommit;
}

Outcome Server::combined_outcome(const PendingEntry& p) const { return combined_outcome(p.tx); }

bool Server::apply_vote(TxId id, PartitionId partition, Outcome vote) {
  // Votes for transactions already completed here are stale; only keep
  // votes for pending, speculated, or not-yet-delivered transactions. The
  // certifier's id index answers "still pending?" in one hash probe — this
  // used to be an O(pending) scan per incoming vote.
  const bool completed =
      seen_.contains(id) && !cert_.pending_contains(id) && !spec_ids_.contains(id);
  if (completed) {
    ++stats_.stale_votes_dropped;
    return false;
  }
  auto& entry = votes_[id];
  auto [it, inserted] = entry.try_emplace(partition, vote);
  if (!inserted && it->second == Outcome::kUnknown) it->second = vote;
  return true;
}

void Server::handle_vote(const VoteMsg& m) {
  // Stale votes skip the drain entirely (legacy early return): an extra
  // drain_pending could arm the threshold tick at a different time and
  // break cross-build determinism.
  if (apply_vote(m.id, m.partition, m.vote)) drain_pending();
}

void Server::handle_vote_batch(const VoteBatchMsg& m) {
  // One drain covers the whole batch: completion work amortizes over N
  // votes instead of running once per vote message.
  bool recorded = false;
  for (const VoteBatchEntry& e : m.votes) {
    recorded = apply_vote(e.id, m.partition, e.vote) || recorded;
  }
  if (recorded) drain_pending();
}

// --- Vote batching (see DESIGN.md "Vote exchange & batching") -----------------

void Server::enqueue_vote(PartitionId p, TxId id, Outcome v) {
  if (p >= vote_outbox_.size()) return;
  VoteOutbox& box = vote_outbox_[p];
  box.queue.push_back(VoteBatchEntry{id, v});
  if (box.queue.size() >= cfg_.vote_batch_max) {
    flush_votes_for(p);
    return;
  }
  if (!vote_flush_pending_) {
    // One timer serves every destination queue; epoch-guarded, so a crash
    // kills it and on_recover starts from an empty outbox.
    vote_flush_pending_ = true;
    set_timer(cfg_.vote_batch_interval, [this] { flush_votes(); });
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
  const std::vector<sim::ProcessId>& peers = cfg_.partition_servers[p];
  std::size_t min_cursor = box.queue.size();
  bool uniform = true;
  for (std::size_t c : box.cursor) {
    min_cursor = std::min(min_cursor, c);
    uniform = uniform && c == box.cursor.front();
  }
  if (min_cursor < box.queue.size()) {
    scratch_batch_.partition = cfg_.partition;
    if (uniform) {
      // Every replica is missing the same suffix: encode once, share the
      // refcounted payload across the fan-out.
      scratch_batch_.votes.assign(box.queue.begin() + static_cast<std::ptrdiff_t>(min_cursor),
                                  box.queue.end());
      const sim::Message msg = scratch_batch_.to_message();
      for (sim::ProcessId peer : peers) send(peer, msg);
      stats_.vote_batches_sent += peers.size();
    } else {
      // Piggybacks already carried prefixes to some replicas: send each
      // replica only what it is missing.
      for (std::size_t i = 0; i < peers.size() && i < box.cursor.size(); ++i) {
        if (box.cursor[i] >= box.queue.size()) continue;
        scratch_batch_.votes.assign(box.queue.begin() + static_cast<std::ptrdiff_t>(box.cursor[i]),
                                    box.queue.end());
        send(peers[i], scratch_batch_.to_message());
        ++stats_.vote_batches_sent;
      }
    }
    stats_.votes_batched += box.queue.size() - min_cursor;
    SDUR_TRACE_INSTANT(trace_track_, trace::Point::kVoteFlush, p, now(),
                       box.queue.size() - min_cursor);
  }
  box.queue.clear();
  std::fill(box.cursor.begin(), box.cursor.end(), 0);
}

sim::Message Server::maybe_piggyback(PartitionId p, std::size_t replica_index, sim::Message m) {
  if (!batching() || !cfg_.vote_piggyback) return m;
  if (m.type == msgtype::kVoteBatch || m.type == msgtype::kVotePiggyback) return m;
  if (p == cfg_.partition || p >= vote_outbox_.size()) return m;
  VoteOutbox& box = vote_outbox_[p];
  if (replica_index >= box.cursor.size()) return m;
  std::size_t& cur = box.cursor[replica_index];
  if (cur >= box.queue.size()) return m;
  VotePiggybackMsg env;
  env.inner_type = m.type;
  env.inner_payload = m.payload.bytes();
  env.batch.partition = cfg_.partition;
  env.batch.votes.assign(box.queue.begin() + static_cast<std::ptrdiff_t>(cur), box.queue.end());
  stats_.votes_piggybacked += env.batch.votes.size();
  SDUR_TRACE_INSTANT(trace_track_, trace::Point::kVotePiggyback, p, now(),
                     env.batch.votes.size());
  cur = box.queue.size();
  // If every replica now has the full queue, drop it (nothing left for the
  // interval flush to send).
  bool all_caught_up = true;
  for (std::size_t c : box.cursor) all_caught_up = all_caught_up && c >= box.queue.size();
  if (all_caught_up) {
    box.queue.clear();
    std::fill(box.cursor.begin(), box.cursor.end(), 0);
  }
  return env.to_message();
}

sim::Message Server::maybe_piggyback_pid(sim::ProcessId to, sim::Message m) {
  if (!batching() || !cfg_.vote_piggyback) return m;
  const auto it = peer_index_.find(to);
  if (it == peer_index_.end()) return m;
  return maybe_piggyback(it->second.first, it->second.second, std::move(m));
}

// --- Reads ---------------------------------------------------------------------

void Server::handle_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot) {
  const PartitionId p = partitioning_->partition_of(key);
  if (p != cfg_.partition) {
    // Section V: partitioning is transparent to clients connected to a
    // single server — route the read; the remote server answers the client
    // directly.
    ++stats_.reads_routed;
    const sim::ProcessId target =
        p < cfg_.read_route.size() ? cfg_.read_route[p] : cfg_.partition_servers[p].front();
    send(target, ReadRoutedMsg{reqid, client, key, snapshot}.to_message());
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
  // its snapshot (or speculative state that may roll back).
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
      const std::vector<sim::ProcessId>& peers = cfg_.partition_servers[p];
      for (std::size_t i = 0; i < peers.size(); ++i) {
        send(peers[i], maybe_piggyback(p, i, msg));
      }
    }
  }
  set_timer(cfg_.gossip_interval, [this] { gossip_tick(); });
}

void Server::liveness_tick() {
  const sim::Time t_now = now();
  for (std::size_t i = 0; i < cert_.size(); ++i) {
    PendingEntry& p = cert_.at(i);
    if (!p.tx.is_global() || has_all_votes(p)) continue;
    if (t_now - p.last_vote_resend >= cfg_.vote_resend_interval) {
      p.last_vote_resend = t_now;
      // Re-push our vote (it may have been lost) and pull the votes we are
      // missing (the peers may have completed long ago, e.g. if this
      // replica recovered from a crash and lost its vote table).
      auto it = own_votes_.find(p.tx.id);
      if (it != own_votes_.end()) send_vote_to_peers(p.tx, it->second);
      auto votes_it = votes_.find(p.tx.id);
      for (PartitionId part : p.tx.involved) {
        if (part == cfg_.partition) continue;
        if (votes_it != votes_.end() && votes_it->second.contains(part)) continue;
        const sim::Message req = VoteRequestMsg{p.tx.id}.to_message();
        const std::vector<sim::ProcessId>& peers = cfg_.partition_servers[part];
        for (std::size_t j = 0; j < peers.size(); ++j) {
          send(peers[j], maybe_piggyback(part, j, req));
        }
      }
    }
    if (!p.abort_requested && t_now - p.delivered_at >= cfg_.missing_vote_timeout &&
        engine_->is_leader()) {
      // Suspect the submitter crashed between broadcasts: ask the silent
      // partitions to abort (or to resend their vote if they did deliver).
      p.abort_requested = true;
      ++stats_.abort_requests_sent;
      auto votes_it = votes_.find(p.tx.id);
      for (PartitionId part : p.tx.involved) {
        if (part == cfg_.partition) continue;
        if (votes_it != votes_.end() && votes_it->second.contains(part)) continue;
        abcast(part, PartTx::make_abort_request(p.tx.id, p.tx.involved));
      }
    }
  }
  // Speculated globals left the pending list but still await their votes:
  // the same resend / vote-request / abort-request liveness applies.
  for (auto& [v, s] : spec_) {
    (void)v;
    if (has_all_votes(s.tx)) continue;
    if (t_now - s.last_vote_resend >= cfg_.vote_resend_interval) {
      s.last_vote_resend = t_now;
      auto it = own_votes_.find(s.tx.id);
      if (it != own_votes_.end()) send_vote_to_peers(s.tx, it->second);
      auto votes_it = votes_.find(s.tx.id);
      for (PartitionId part : s.tx.involved) {
        if (part == cfg_.partition) continue;
        if (votes_it != votes_.end() && votes_it->second.contains(part)) continue;
        const sim::Message req = VoteRequestMsg{s.tx.id}.to_message();
        const std::vector<sim::ProcessId>& peers = cfg_.partition_servers[part];
        for (std::size_t j = 0; j < peers.size(); ++j) {
          send(peers[j], maybe_piggyback(part, j, req));
        }
      }
    }
    if (!s.abort_requested && t_now - s.delivered_at >= cfg_.missing_vote_timeout &&
        engine_->is_leader()) {
      s.abort_requested = true;
      ++stats_.abort_requests_sent;
      auto votes_it = votes_.find(s.tx.id);
      for (PartitionId part : s.tx.involved) {
        if (part == cfg_.partition) continue;
        if (votes_it != votes_.end() && votes_it->second.contains(part)) continue;
        abcast(part, PartTx::make_abort_request(s.tx.id, s.tx.involved));
      }
    }
  }
  set_timer(cfg_.vote_resend_interval / 2, [this] { liveness_tick(); });
}

// --- Checkpointing ------------------------------------------------------------------

paxos::Value Server::encode_state() const {
  util::Writer w;
  store_.encode(w);
  cert_.encode(w);
  w.u64(dc_);
  // Sets are serialized sorted so a checkpoint is a canonical function of
  // the replica's deterministic state, byte-identical across replicas.
  std::vector<TxId> seen_ids(seen_.begin(), seen_.end());
  std::sort(seen_ids.begin(), seen_ids.end());
  w.varint(seen_ids.size());
  for (TxId id : seen_ids) w.u64(id);
  std::vector<TxId> poisoned_ids(poisoned_.begin(), poisoned_.end());
  std::sort(poisoned_ids.begin(), poisoned_ids.end());
  w.varint(poisoned_ids.size());
  for (TxId id : poisoned_ids) w.u64(id);
  w.varint(own_votes_order_.size());
  for (TxId id : own_votes_order_) {
    w.u64(id);
    auto it = own_votes_.find(id);
    w.u8(static_cast<std::uint8_t>(it == own_votes_.end() ? Outcome::kUnknown : it->second));
  }
  w.varint(outcomes_order_.size());
  for (TxId id : outcomes_order_) {
    w.u64(id);
    auto it = outcomes_.find(id);
    w.u8(static_cast<std::uint8_t>(it == outcomes_.end() ? Outcome::kUnknown : it->second));
  }
  // Speculative entries ride in the checkpoint only when the technique is
  // on: speculation-off blobs stay byte-identical to the legacy format
  // (golden-digest pinned). The store blob above already carries the
  // speculative versions inside the chains; this section lets install
  // re-mark them in the undo log.
  if (cfg_.speculation) {
    w.varint(spec_.size());
    for (const auto& [v, s] : spec_) {
      w.i64(v);
      const util::Bytes tx = s.tx.encode();
      w.bytes(tx);
      w.u64(s.rt);
    }
  }
  return std::move(w).take();
}

void Server::install_state(const paxos::Value& blob) {
  util::Reader r(blob);
  store_.install(r);
  cert_.install(r);
  dc_ = r.u64();
  seen_.clear();
  const std::uint64_t nseen = r.varint();
  for (std::uint64_t i = 0; i < nseen; ++i) seen_.insert(r.u64());
  poisoned_.clear();
  const std::uint64_t npois = r.varint();
  for (std::uint64_t i = 0; i < npois; ++i) poisoned_.insert(r.u64());
  own_votes_.clear();
  own_votes_order_.clear();
  const std::uint64_t nvotes = r.varint();
  for (std::uint64_t i = 0; i < nvotes; ++i) {
    const TxId id = r.u64();
    const auto v = static_cast<Outcome>(r.u8());
    own_votes_[id] = v;
    own_votes_order_.push_back(id);
  }
  outcomes_.clear();
  outcomes_order_.clear();
  const std::uint64_t nout = r.varint();
  for (std::uint64_t i = 0; i < nout; ++i) {
    const TxId id = r.u64();
    const auto v = static_cast<Outcome>(r.u8());
    outcomes_[id] = v;
    outcomes_order_.push_back(id);
  }
  spec_.clear();
  spec_ids_.clear();
  if (cfg_.speculation) {
    const std::uint64_t nspec = r.varint();
    for (std::uint64_t i = 0; i < nspec; ++i) {
      SpecEntry s;
      s.version = r.i64();
      const std::string tx_bytes = r.bytes();
      s.tx = PartTx::decode(util::Bytes(tx_bytes.begin(), tx_bytes.end()));
      s.rt = r.u64();
      s.delivered_at = now();
      s.last_vote_resend = 0;
      s.abort_requested = false;
      spec_ids_[s.tx.id] = s.version;
      spec_.emplace(s.version, std::move(s));
    }
    // Re-mark the speculative versions in the freshly installed store so
    // a later rollback still finds its undo records.
    std::vector<Key> spec_keys;
    for (auto& [v, s] : spec_) {
      spec_keys.clear();
      for (const auto& op : s.tx.writes) {
        if (spec_keys.empty() || spec_keys.back() != op.key) spec_keys.push_back(op.key);
      }
      store_.mark_speculative(v, spec_keys);
    }
  }
  // Re-seed VOTES with our own votes; peer votes for still-pending globals
  // are re-fetched by the vote-request repair in liveness_tick.
  votes_.clear();
  for (const auto& [id, v] : own_votes_) votes_[id][cfg_.partition] = v;
  // Stamp fresh liveness bookkeeping on restored pending entries. Restored
  // entries are ready: their core work happened before the checkpoint (the
  // checkpoint itself carries the resulting state).
  for (std::size_t i = 0; i < cert_.size(); ++i) {
    PendingEntry& e = cert_.at(i);
    e.delivered_at = now();
    e.last_vote_resend = 0;
    e.abort_requested = false;
    e.ready = true;
  }
  drain_pending();
  service_deferred_reads();
}

void Server::checkpoint_tick() {
  // Pending transactions serialize into the checkpoint too (their peer
  // votes are re-fetched on install), so checkpoints can be taken under
  // load; pending lists stay short in practice.
  engine_->save_checkpoint(encode_state());
  set_timer(cfg_.checkpoint_interval, [this] { checkpoint_tick(); });
}

// --- Recovery -----------------------------------------------------------------------

void Server::on_recover() {
  store_.truncate_above(0);
  cert_.reset();
  dc_ = 0;
  spec_.clear();
  spec_ids_.clear();
  votes_.clear();
  poisoned_.clear();
  seen_.clear();
  own_votes_.clear();
  own_votes_order_.clear();
  outcomes_.clear();
  outcomes_order_.clear();
  std::fill(gsc_.begin(), gsc_.end(), 0);
  last_gossiped_sc_ = -1;
  deferred_reads_.clear();
  tick_pending_ = false;
  // The vote outbox is volatile: queued votes die with the replica (the
  // flush timer is epoch-guarded and never fires after a crash); recovery
  // replay re-votes, and the resend/vote-request repair covers the rest.
  for (VoteOutbox& box : vote_outbox_) {
    box.queue.clear();
    std::fill(box.cursor.begin(), box.cursor.end(), 0);
  }
  vote_flush_pending_ = false;
  stats_ = Stats{};
  // Replays the decided prefix through adeliver(), rebuilding SC/DC/window
  // deterministically, then rejoins the group as a follower.
  engine_->on_recover();
  set_timer(cfg_.gossip_interval, [this] { gossip_tick(); });
  set_timer(cfg_.vote_resend_interval / 2, [this] { liveness_tick(); });
  if (cfg_.checkpoint_interval > 0) {
    set_timer(cfg_.checkpoint_interval, [this] { checkpoint_tick(); });
  }
}

}  // namespace sdur
