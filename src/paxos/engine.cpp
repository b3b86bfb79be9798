#include "paxos/engine.h"

#include <algorithm>
#include <bit>

#include "audit/audit.h"
#include "util/hash.h"
#include "util/logging.h"

namespace sdur::paxos {

namespace {
constexpr std::size_t kMaxCatchupValues = 256;
constexpr std::uint32_t kBehindHeartbeatsBeforeCatchup = 3;
/// Followers this far behind the leader's decided prefix request catchup
/// at once, without waiting for kBehindHeartbeatsBeforeCatchup.
constexpr InstanceId kCatchupThreshold = 8;
/// Leader heartbeat period; the leader heartbeats on every tick, which
/// runs at half this period.
constexpr Time kHeartbeatInterval = sim::msec(100);
/// A leader re-sends an open instance's Phase 2A after half this period,
/// and a replica re-drives a submission still undelivered after it.
constexpr Time kResendPeriod = sim::msec(600);
/// A follower that has heard no leader for this long (two heartbeats
/// missed) parks forwards instead of relaying them to its leader, and
/// starts to count down to its campaign.
constexpr Time kLeaderSuspectAfter = kHeartbeatInterval;
/// Part of a follower's suspicion margin beside its link's jitter: the
/// receiver's CPU queue delays a heartbeat by a few milliseconds at most.
constexpr Time kSuspectSlack = sim::msec(5);

std::uint64_t value_hash(const Value& v) {
  return sdur::util::fnv1a(
      std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
}

/// The leadership a replica that has heard no leader forwards to
/// (leader_hint()'s fallback): the proposer of its promised ballot, else
/// member 0, which campaigns at round 1. Its heartbeat needs no re-drive.
Ballot first_forward_target(Ballot promised) {
  return std::max(promised, Ballot::make(1, 0));
}
}

PaxosEngine::PaxosEngine(sim::Endpoint& endpoint, GroupConfig config,
                         std::unique_ptr<DurableLog> log, DeliverFn deliver)
    : ep_(endpoint), cfg_(std::move(config)), log_(std::move(log)), deliver_(std::move(deliver)) {
  for (std::uint32_t i = 0; i < cfg_.members.size(); ++i) index_of_[cfg_.members[i]] = i;
  promised_ = log_->load_promise();
  highest_seen_ = promised_;
  redriven_for_ = first_forward_target(promised_);
  trace_track_ = SDUR_TRACE_REGISTER(ep_.self(), "paxos-" + std::to_string(ep_.self()), -1);
  // Group identity for the cross-replica audit oracle: every member hashes
  // the same member list, and distinct groups have distinct member sets.
  SDUR_AUDIT({
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (ProcessId pid : cfg_.members) h = (h ^ pid) * 1099511628211ULL;
    audit_group_ = h;
  });
}

void PaxosEngine::start() {
  last_leader_contact_ = ep_.current_time();
  if (cfg_.self_index == 0) start_campaign();
  ep_.start_timer(kHeartbeatInterval / 2, [this] { tick(); });
}

ProcessId PaxosEngine::leader_hint() const {
  if (role_ == Role::kLeader) return ep_.self();
  if (leader_hint_ != 0) return leader_hint_;
  // Fall back to the proposer of the highest promised ballot, or member 0.
  if (promised_.valid()) return cfg_.members[promised_.proposer_index() % cfg_.members.size()];
  return cfg_.members[0];
}

std::uint32_t PaxosEngine::member_index(ProcessId pid) const {
  auto it = index_of_.find(pid);
  return it == index_of_.end() ? 0xFFFFFFFF : it->second;
}

void PaxosEngine::broadcast(const sim::Message& m) {
  for (ProcessId pid : cfg_.members) send_to(pid, m);
}

void PaxosEngine::send_to(ProcessId to, const sim::Message& m) {
  if (send_wrapper_) {
    ep_.send_message(to, send_wrapper_(to, m));
    return;
  }
  ep_.send_message(to, m);
}

std::uint32_t PaxosEngine::last_leader_index() const {
  // Member 0 campaigns first, at round 1.
  const auto n = static_cast<std::uint32_t>(cfg_.members.size());
  return promised_.valid() ? promised_.proposer_index() % n : 0;
}

Time PaxosEngine::delay(std::uint32_t i, std::uint32_t j) const {
  return ep_.topology().distance(cfg_.members[i], cfg_.members[j]);
}

Time PaxosEngine::member_delay() const {
  Time worst = 0;
  for (std::uint32_t i = 0; i < cfg_.members.size(); ++i) {
    for (std::uint32_t j = 0; j < cfg_.members.size(); ++j) worst = std::max(worst, delay(i, j));
  }
  return static_cast<Time>(static_cast<double>(worst) * (1.0 + ep_.topology().jitter()));
}

// A candidate's timeout is four heartbeats plus a round trip at the worst
// member delay d, which covers its Phase 1. The next candidate's last
// leader contact may be d older than the first one's, and the first one's
// Phase 1A takes up to d to reach it: a stagger of 2d plus a tick lets it
// hear the Phase 1A before its own deadline.
Time PaxosEngine::election_timeout() const { return 2 * kHeartbeatInterval + 2 * member_delay(); }

Time PaxosEngine::election_stagger() const { return 2 * member_delay() + kHeartbeatInterval / 2; }

Time PaxosEngine::suspicion_timeout() const {
  const Time d = delay(last_leader_index(), cfg_.self_index);
  const auto jitter = static_cast<Time>(static_cast<double>(d) * ep_.topology().jitter());
  return kLeaderSuspectAfter + kSuspectSlack + jitter;
}

Time PaxosEngine::election_deadline() const {
  // Candidates rank by their delay to the last leader, nearest first, and
  // in successor order on ties; the last leader itself ranks last. They
  // campaign one stagger apart, so they do not duel.
  const auto n = static_cast<std::uint32_t>(cfg_.members.size());
  const std::uint32_t leader = last_leader_index();
  auto order = [&](std::uint32_t i) {
    return std::pair{i == leader ? sim::kNever : delay(leader, i), (i + n - 1 - leader) % n};
  };
  Time rank = 0;
  for (std::uint32_t i = 0; i < n; ++i) rank += order(i) < order(cfg_.self_index) ? 1 : 0;
  // A follower that heard from a leader campaigns once that leader is
  // suspect; one that last heard a candidate, and a candidate, wait out
  // the election timeout, which covers the candidate's Phase 1.
  const Time wait =
      role_ == Role::kFollower && heard_leader_ ? suspicion_timeout() : election_timeout();
  return last_leader_contact_ + wait + rank * election_stagger();
}

void PaxosEngine::handle_message(const sim::Message& m, ProcessId from) {
  // Value fields decode as slices of the payload's buffer, not copies.
  util::Reader r(m.payload.buffer());
  switch (m.type) {
    case msgtype::kPhase1A:
      on_phase1a(Phase1A::decode(r), from);
      break;
    case msgtype::kPhase1B:
      on_phase1b(Phase1B::decode(r), from);
      break;
    case msgtype::kPhase2A:
      on_phase2a(Phase2A::decode(r), from);
      break;
    case msgtype::kPhase2B:
      on_phase2b(Phase2B::decode(r), from);
      break;
    case msgtype::kNack:
      on_nack(Nack::decode(r));
      break;
    case msgtype::kHeartbeat:
      on_heartbeat(Heartbeat::decode(r), from);
      break;
    case msgtype::kForward: {
      Forward f = Forward::decode(r);
      on_forward(Queued{value_hash(f.value), std::move(f.value)});
      break;
    }
    case msgtype::kCatchupReq:
      on_catchup_req(CatchupReq::decode(r), from);
      break;
    case msgtype::kCatchupResp:
      on_catchup_resp(CatchupResp::decode(r), from);
      break;
    case msgtype::kStateTransfer:
      on_state_transfer(StateTransfer::decode(r));
      break;
    default:
      break;
  }
}

// --- Leader election -------------------------------------------------------

void PaxosEngine::start_campaign() {
  const std::uint64_t round = std::max(highest_seen_.round(), promised_.round()) + 1;
  const Ballot ballot = Ballot::make(round, cfg_.self_index);
  role_ = Role::kCandidate;
  promised_ = ballot;
  highest_seen_ = ballot;
  log_->save_promise(ballot);
  promises_.clear();
  leader_hint_ = ep_.self();
  last_leader_contact_ = ep_.current_time();
  heard_leader_ = false;
  ++stats_.leader_elections;
  SDUR_DEBUG("paxos") << "campaign ballot=" << ballot.n << " self=" << ep_.self();
  broadcast(Phase1A{ballot, next_deliver_}.to_message());
}

void PaxosEngine::on_phase1a(const Phase1A& m, ProcessId from) {
  highest_seen_ = std::max(highest_seen_, m.ballot);
  if (m.ballot < promised_) {
    send_to(from, Nack{promised_}.to_message());
    ++stats_.nacks;
    return;
  }
  if (m.ballot > promised_) {
    promised_ = m.ballot;
    log_->save_promise(promised_);
    if (from != ep_.self()) {
      role_ = Role::kFollower;
      promises_.clear();
      open_.clear();
      leader_hint_ = from;
    }
  }
  last_leader_contact_ = ep_.current_time();
  heard_leader_ = false;
  Phase1B reply{m.ballot, next_deliver_, {}};
  for (auto& [inst, rec] : log_->accepted_from(std::min(m.low_instance, next_deliver_))) {
    reply.entries.push_back(AcceptedEntry{inst, rec.ballot, rec.value});
  }
  // Persist-before-ack: the promise hits the log before the reply leaves.
  ep_.start_timer(cfg_.log_write_latency,
                  [this, from, msg = reply.to_message()]() { send_to(from, msg); });
}

void PaxosEngine::on_phase1b(const Phase1B& m, ProcessId from) {
  if (role_ != Role::kCandidate || m.ballot != promised_) return;
  const std::uint32_t idx = member_index(from);
  if (idx == 0xFFFFFFFF) return;
  promises_[idx] = m;
  if (promises_.size() >= cfg_.quorum()) become_leader();
}

void PaxosEngine::become_leader() {
  role_ = Role::kLeader;
  leader_hint_ = ep_.self();
  elected_at_ = ep_.current_time();
  caught_up_ = true;
  SDUR_INFO("paxos") << "leader self=" << ep_.self() << " ballot=" << promised_.n;

  // Re-propose the highest-ballot accepted value for every instance at or
  // above our decided prefix; fill gaps with no-ops so delivery can proceed.
  std::map<InstanceId, AcceptedEntry> best;
  for (const auto& [idx, promise] : promises_) {
    for (const auto& e : promise.entries) {
      if (e.instance < next_deliver_) continue;
      auto it = best.find(e.instance);
      if (it == best.end() || e.ballot > it->second.ballot) best[e.instance] = e;
    }
  }
  InstanceId max_inst = next_deliver_ == 0 ? 0 : next_deliver_ - 1;
  bool any = false;
  if (!best.empty()) {
    max_inst = best.rbegin()->first;
    any = true;
  }
  next_instance_ = any ? max_inst + 1 : next_deliver_;
  open_.clear();
  for (InstanceId inst = next_deliver_; any && inst <= max_inst; ++inst) {
    auto it = best.find(inst);
    Value v = it != best.end() ? it->second.value : encode_batch({});
    std::vector<std::uint64_t> hashes;
    for (const Value& x : decode_batch(v)) hashes.push_back(value_hash(x));
    open_instance(inst, std::move(v), std::move(hashes));
  }
  // If the quorum's decided prefix is ahead of ours (we recovered from far
  // behind and the others checkpointed away the log we missed), pull the
  // gap explicitly — it will arrive as decided values or a state transfer.
  InstanceId quorum_decided = next_deliver_;
  ProcessId most_advanced = ep_.self();
  for (const auto& [idx, promise] : promises_) {
    if (promise.next_deliver > quorum_decided) {
      quorum_decided = promise.next_deliver;
      most_advanced = cfg_.members[idx];
    }
  }
  if (quorum_decided > next_deliver_) request_catchup(most_advanced, next_deliver_);
  next_instance_ = std::max(next_instance_, quorum_decided);
  promises_.clear();
  // Values this replica forwarded to the previous leader go first, ahead of
  // those buffered during the election.
  redriven_for_ = promised_;
  std::vector<Queued> stranded = stranded_submissions(promised_);
  pending_.insert(pending_.begin(), std::make_move_iterator(stranded.begin()),
                  std::make_move_iterator(stranded.end()));
  broadcast(Heartbeat{promised_, next_deliver_}.to_message());
  maybe_propose();
}

void PaxosEngine::step_down(Ballot seen) {
  highest_seen_ = std::max(highest_seen_, seen);
  if (role_ == Role::kFollower) return;
  SDUR_DEBUG("paxos") << "step down self=" << ep_.self();
  role_ = Role::kFollower;
  promises_.clear();
  open_.clear();
  last_leader_contact_ = ep_.current_time();
  heard_leader_ = false;
}

void PaxosEngine::on_nack(const Nack& m) {
  highest_seen_ = std::max(highest_seen_, m.promised);
  if (role_ != Role::kFollower && m.promised > promised_) step_down(m.promised);
}

void PaxosEngine::on_heartbeat(const Heartbeat& m, ProcessId from) {
  highest_seen_ = std::max(highest_seen_, m.ballot);
  if (m.ballot < promised_) return;
  if (m.ballot > promised_) {
    promised_ = m.ballot;
    log_->save_promise(promised_);
    if (role_ != Role::kFollower) step_down(m.ballot);
  }
  if (from != ep_.self()) {
    leader_hint_ = from;
    last_leader_contact_ = ep_.current_time();
    if (role_ != Role::kFollower && m.ballot == promised_ &&
        promised_.proposer_index() != cfg_.self_index) {
      step_down(m.ballot);
    }
    heard_leader_ = true;
    // A new leader: first re-drive what went to the old one, then flush
    // any values buffered while leaderless.
    if (m.ballot > redriven_for_) {
      redriven_for_ = m.ballot;
      for (Queued& q : stranded_submissions(m.ballot)) {
        send_to(from, Forward{std::move(q.value)}.to_message());
      }
    }
    if (!pending_.empty()) {
      for (Queued& q : pending_) send_to(from, Forward{std::move(q.value)}.to_message());
      pending_.clear();
    }
    if (m.decided_upto <= next_deliver_ + kCatchupThreshold) caught_up_ = true;
    if (m.decided_upto > next_deliver_) {
      ++behind_heartbeats_;
      // A request in flight is not repeated: its full reply asks for the
      // next chunk itself.
      if ((m.decided_upto > next_deliver_ + kCatchupThreshold ||
           behind_heartbeats_ >= kBehindHeartbeatsBeforeCatchup) &&
          ep_.current_time() >= catchup_expires_) {
        behind_heartbeats_ = 0;
        request_catchup(from, next_deliver_);
      }
    } else {
      behind_heartbeats_ = 0;
      if (m.decided_upto < next_deliver_) {
        // The leader itself is behind us (it won an election right after
        // recovering from far behind): push it the tail or a checkpoint.
        on_catchup_req(CatchupReq{m.decided_upto}, from);
      }
    }
  }
}

// --- Phase 2 ----------------------------------------------------------------

void PaxosEngine::propose(Value v) {
  const std::uint64_t hash = value_hash(v);
  auto& entry = submitted_[hash];
  if (entry.count == 0) {
    entry.value = v;
    entry.order = next_submit_order_++;
  }
  entry.sent_under = promised_;
  ++entry.count;
  entry.submitted_at = ep_.current_time();
  on_forward(Queued{hash, std::move(v)});
}

bool PaxosEngine::value_in_flight(std::uint64_t hash) const {
  for (const Queued& q : pending_) {
    if (q.hash == hash) return true;
  }
  // Open instances carry their item hashes (computed once at open time),
  // so this scan never re-decodes a batch.
  for (const auto& [inst, oi] : open_) {
    for (std::uint64_t h : oi.item_hashes) {
      if (h == hash) return true;
    }
  }
  return false;
}

std::vector<PaxosEngine::Queued> PaxosEngine::stranded_submissions(Ballot leader) {
  const Time now = ep_.current_time();
  std::vector<std::pair<std::uint64_t, const SubmittedValue*>> stranded;
  for (auto& [hash, sub] : submitted_) {
    // Sent under `leader` or later: it went to that leader or a candidate
    // that queued it, not to a dead one.
    if (sub.sent_under >= leader || value_in_flight(hash)) continue;
    sub.sent_under = promised_;
    sub.submitted_at = now;
    ++stats_.resends;
    stranded.emplace_back(hash, &sub);
  }
  std::ranges::sort(stranded, {}, [](const auto& s) { return s.second->order; });
  std::vector<Queued> values;
  values.reserve(stranded.size());
  for (const auto& [hash, sub] : stranded) values.push_back(Queued{hash, sub->value});
  return values;
}

void PaxosEngine::on_forward(Queued item) {
  pending_.push_back(std::move(item));
  if (role_ == Role::kLeader) {
    maybe_propose();
    return;
  }
  // A candidate keeps buffering, and so does a follower whose leader is
  // suspect: relayed to a dead leader, the value would be lost. A leader's
  // heartbeat flushes the buffer, and become_leader proposes it.
  const ProcessId hint = leader_hint();
  if (hint == ep_.self()) return;
  if (leader_suspect()) {
    ++stats_.forwards_parked;
    return;
  }
  for (Queued& q : pending_) {
    // A parked submission of this replica goes to `hint` now: a heartbeat
    // at this ballot must not re-drive it.
    if (const auto sub = submitted_.find(q.hash); sub != submitted_.end()) {
      sub->second.sent_under = promised_;
    }
    send_to(hint, Forward{std::move(q.value)}.to_message());
  }
  pending_.clear();
}

bool PaxosEngine::leader_suspect() const {
  return role_ == Role::kFollower &&
         ep_.current_time() - last_leader_contact_ >= kLeaderSuspectAfter;
}

void PaxosEngine::maybe_propose() {
  while (role_ == Role::kLeader && !pending_.empty() && open_.size() < cfg_.pipeline_window) {
    // The items' hashes travel with them, so open_instance need not decode
    // the encoded batch back apart.
    const std::size_t n = std::min(pending_.size(), cfg_.max_batch);
    std::vector<Value> batch;
    std::vector<std::uint64_t> hashes;
    batch.reserve(n);
    hashes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      hashes.push_back(pending_.front().hash);
      batch.push_back(std::move(pending_.front().value));
      pending_.pop_front();
    }
    open_instance(next_instance_++, encode_batch(batch), std::move(hashes));
  }
}

void PaxosEngine::open_instance(InstanceId inst, Value value,
                                std::vector<std::uint64_t> item_hashes) {
  open_[inst] = OpenInstance{value, ep_.current_time(), std::move(item_hashes)};
  ++stats_.proposed_batches;
  broadcast(Phase2A{promised_, inst, std::move(value)}.to_message());
}

void PaxosEngine::on_phase2a(Phase2A m, ProcessId from) {
  highest_seen_ = std::max(highest_seen_, m.ballot);
  if (m.ballot < promised_ && !test_accept_stale_ballots_) {
    send_to(from, Nack{promised_}.to_message());
    ++stats_.nacks;
    return;
  }
  // Acceptor safety: accepting below the promise would let a deposed
  // leader's value win against the quorum a newer leader read, so two
  // values could be chosen for one instance. Reachable only through the
  // test_accept_stale_ballots fault injection — or a real protocol bug.
  SDUR_AUDIT_CHECK("paxos", "accept-ballot-monotonic", m.ballot >= promised_,
                   "acceptor " << ep_.self() << " accepts instance " << m.instance
                               << " at stale ballot " << m.ballot.n << " < promised "
                               << promised_.n);
  if (m.ballot > promised_) {
    promised_ = m.ballot;
    log_->save_promise(promised_);
    if (role_ != Role::kFollower && from != ep_.self()) step_down(m.ballot);
  }
  if (from != ep_.self()) {
    leader_hint_ = from;
    last_leader_contact_ = ep_.current_time();
    heard_leader_ = true;
  }
  if (m.instance < next_deliver_) {
    // Already decided and delivered here: the proposer is a stale leader
    // catching up after isolation/recovery — feed it the decisions instead
    // of silently ignoring, or its re-proposals would never gain a quorum.
    on_catchup_req(CatchupReq{m.instance}, from);
    return;
  }
  log_->save_accepted(m.instance, m.ballot, std::move(m.value));
  // Persist-before-ack, then let every member learn.
  const Phase2B ack{m.ballot, m.instance, cfg_.self_index};
  ep_.start_timer(cfg_.log_write_latency,
                  [this, msg = ack.to_message()]() { broadcast(msg); });
}

void PaxosEngine::record_ack(InstanceId inst, Ballot b, std::uint32_t acceptor_index) {
  auto& st = acks_[inst];
  if (b > st.ballot) {
    st.ballot = b;
    st.mask = 0;
  }
  if (b < st.ballot || acceptor_index >= 64) return;
  st.mask |= 1ULL << acceptor_index;
  if (static_cast<std::size_t>(std::popcount(st.mask)) >= cfg_.quorum()) {
    // Quorum reached: the decided value is whatever we accepted at this
    // ballot. If we have not accepted it (lost Phase 2A), catchup will
    // bring the decision later.
    auto rec = log_->load_accepted(inst);
    if (rec && rec->ballot == st.ballot) {
      decide(inst, std::move(rec->value));
    }
  }
}

void PaxosEngine::on_phase2b(const Phase2B& m, ProcessId from) {
  (void)from;
  if (m.instance < next_deliver_ || undelivered_.contains(m.instance)) return;
  record_ack(m.instance, m.ballot, m.acceptor_index);
}

void PaxosEngine::decide(InstanceId inst, Value value) {
  if (inst < next_deliver_ || undelivered_.contains(inst)) return;
  // A decided instance is immutable: re-deciding it locally with different
  // bytes means the log prefix was rewritten.
  SDUR_AUDIT({
    if (const auto prev = log_->load_decided(inst)) {
      SDUR_AUDIT_CHECK("paxos", "decided-immutable", value_hash(*prev) == value_hash(value),
                       "replica " << ep_.self() << " re-decides instance " << inst
                                  << " with different value");
    }
  });
  // Cross-replica agreement: every group member must decide the same value
  // for this instance.
  SDUR_AUDIT(audit::Oracle::instance().record_chosen(audit_group_, inst, value_hash(value),
                                                     ep_.self(), ep_.current_time()));
  SDUR_AUDIT_NOTE(ep_.current_time(), "paxos replica " << ep_.self() << " decided instance "
                                                       << inst << " (" << value.size()
                                                       << " bytes)");
  log_->save_decided(inst, value);
  SDUR_TRACE_STMT({
    // Consensus span: proposal opened here -> decided here (leader view).
    if (role_ == Role::kLeader) {
      if (const auto oi = open_.find(inst); oi != open_.end()) {
        ::sdur::trace::Tracer::instance().record_span(
            trace_track_, ::sdur::trace::Point::kConsensus, inst, oi->second.proposed_at,
            ep_.current_time(), value.size());
      }
    }
  });
  undelivered_[inst] = std::move(value);
  acks_.erase(inst);
  ++stats_.decided_instances;
  if (role_ == Role::kLeader) open_.erase(inst);
  try_deliver();
  if (role_ == Role::kLeader) maybe_propose();
}

void PaxosEngine::try_deliver() {
  while (true) {
    auto it = undelivered_.find(next_deliver_);
    if (it == undelivered_.end()) break;
    // Decode into a local: a deliver_ callback can reenter the engine, and
    // the values it iterates must not depend on engine state.
    const std::vector<Value> batch = decode_batch(it->second);
    for (const Value& v : batch) {
      ++stats_.delivered_values;
      // Only the replica that proposed a value tracks it: elsewhere the
      // table is empty and the value needs no hash.
      if (!submitted_.empty()) {
        const auto sub = submitted_.find(value_hash(v));
        if (sub != submitted_.end() && --sub->second.count == 0) submitted_.erase(sub);
      }
      deliver_(v);
    }
    undelivered_.erase(it);
    ++next_deliver_;
  }
}

// --- Catchup ----------------------------------------------------------------

void PaxosEngine::save_checkpoint(Value app_state, InstanceId covered_upto) {
  if (covered_upto < log_->first_retained()) return;
  ++stats_.checkpoints;
  log_->save_checkpoint(app_state, covered_upto);
  log_->truncate_below(covered_upto);
}

void PaxosEngine::on_state_transfer(const StateTransfer& m) {
  if (m.resume_at <= next_deliver_ || !install_) return;
  // The delivered prefix only ever grows; a state transfer may jump it
  // forward, never backward (guarded above — this documents the invariant
  // for audit builds and catches regressions of the guard).
  SDUR_AUDIT_CHECK("paxos", "delivery-prefix-monotonic", m.resume_at > next_deliver_,
                   "state transfer would rewind replica " << ep_.self() << " from instance "
                                                          << next_deliver_ << " to "
                                                          << m.resume_at);
  ++stats_.state_transfers_installed;
  catchup_expires_ = 0;
  install_(m.app_state);
  // The checkpoint subsumes our log prefix: persist it and resume from the
  // transfer point.
  log_->save_checkpoint(m.app_state, m.resume_at);
  log_->truncate_below(m.resume_at);
  next_deliver_ = m.resume_at;
  next_instance_ = std::max(next_instance_, next_deliver_);
  undelivered_.erase(undelivered_.begin(), undelivered_.lower_bound(next_deliver_));
  acks_.erase(acks_.begin(), acks_.lower_bound(next_deliver_));
  open_.erase(open_.begin(), open_.lower_bound(next_deliver_));
  try_deliver();
}

void PaxosEngine::on_catchup_req(const CatchupReq& m, ProcessId from) {
  if (m.from_instance < log_->first_retained()) {
    // The requested prefix was truncated; ship the covering checkpoint.
    if (const auto cp = log_->load_checkpoint(); cp && cp->second > m.from_instance) {
      ++stats_.state_transfers_sent;
      send_to(from, StateTransfer{cp->second, cp->first}.to_message());
      return;
    }
  }
  CatchupResp resp;
  resp.first_instance = m.from_instance;
  for (InstanceId inst = m.from_instance; resp.values.size() < kMaxCatchupValues; ++inst) {
    auto v = log_->load_decided(inst);
    if (!v) break;
    resp.values.push_back(std::move(*v));
  }
  if (!resp.values.empty()) send_to(from, resp.to_message());
}

void PaxosEngine::request_catchup(ProcessId to, InstanceId from_instance) {
  // A reply not back within the election timeout, four heartbeats plus a
  // round trip, was lost: the next heartbeat may ask again.
  catchup_expires_ = ep_.current_time() + election_timeout();
  send_to(to, CatchupReq{from_instance}.to_message());
}

void PaxosEngine::on_catchup_resp(const CatchupResp& m, ProcessId from) {
  catchup_expires_ = 0;
  for (std::size_t i = 0; i < m.values.size(); ++i) {
    decide(m.first_instance + i, m.values[i]);
  }
  // A full reply leaves more behind it: ask for the next chunk at once.
  if (m.values.size() == kMaxCatchupValues) {
    request_catchup(from, m.first_instance + m.values.size());
  }
}

// --- Timers -----------------------------------------------------------------

void PaxosEngine::tick() {
  const Time now = ep_.current_time();
  if (role_ == Role::kLeader) {
    broadcast(Heartbeat{promised_, next_deliver_}.to_message());
    // Re-drive instances whose acknowledgements got lost.
    const Time resend_after = kResendPeriod / 2;
    for (auto& [inst, oi] : open_) {
      if (now - oi.proposed_at >= resend_after) {
        oi.proposed_at = now;
        ++stats_.resends;
        broadcast(Phase2A{promised_, inst, oi.value}.to_message());
      }
    }
  } else if (const Time deadline = election_deadline(); now >= deadline) {
    start_campaign();
  } else if (deadline < now + kHeartbeatInterval / 2) {
    // Campaign at the deadline itself rather than at the next tick; a
    // leader heard from meanwhile moves the deadline on.
    ep_.start_timer(deadline - now, [this] {
      if (role_ != Role::kLeader && ep_.current_time() >= election_deadline()) start_campaign();
    });
  }
  // Re-drive values submitted here that still have not been delivered
  // (lost forward, or a leader crashed with them in flight) — unless the
  // value is already in this replica's own pending queue or an open
  // instance (then the instance resend above re-drives it and resubmitting
  // would only create duplicates). A candidate, and a follower whose
  // leader is suspect, wait instead: the next leader's election or first
  // heartbeat re-drives them in submission order.
  if (role_ != Role::kCandidate && !leader_suspect()) {
    for (auto& [hash, sub] : submitted_) {
      if (now - sub.submitted_at < kResendPeriod) continue;
      sub.submitted_at = now;
      if (value_in_flight(hash)) continue;
      ++stats_.resends;
      sub.sent_under = promised_;
      on_forward(Queued{hash, sub.value});
    }
  }
  ep_.start_timer(kHeartbeatInterval / 2, [this] { tick(); });
}

// --- Recovery ----------------------------------------------------------------

void PaxosEngine::on_recover() {
  role_ = Role::kFollower;
  promises_.clear();
  open_.clear();
  pending_.clear();
  acks_.clear();
  undelivered_.clear();
  submitted_.clear();
  behind_heartbeats_ = 0;
  catchup_expires_ = 0;
  caught_up_ = false;
  promised_ = log_->load_promise();
  highest_seen_ = promised_;
  redriven_for_ = first_forward_target(promised_);
  leader_hint_ = 0;
  last_leader_contact_ = ep_.current_time();
  heard_leader_ = false;
  // Restore the latest checkpoint (if any), then redeliver the decided
  // tail so the application rebuilds its state deterministically; anything
  // beyond the contiguous prefix comes via catchup.
  next_deliver_ = 0;
  if (const auto cp = log_->load_checkpoint()) {
    if (install_) {
      install_(cp->first);
      next_deliver_ = cp->second;
    }
  }
  for (InstanceId inst = next_deliver_;; ++inst) {
    auto v = log_->load_decided(inst);
    if (!v) break;
    undelivered_[inst] = std::move(*v);
  }
  try_deliver();
  ep_.start_timer(kHeartbeatInterval / 2, [this] { tick(); });
}

}  // namespace sdur::paxos
