#include "sdur/certifier.h"

#include <algorithm>

#include "audit/audit.h"
#include "trace/trace.h"

namespace sdur {

namespace {

/// One lane's vote: the window's indexed check, with the strategy instant
/// (aux = `aux`) attributed to the current delivery via the tracer context
/// the dispatcher set. A bloom probe set (or, for globals, a bloom write
/// set) forces the window scan for that component; otherwise the key index
/// answers.
bool lane_vote(const storage::CommitWindow& lane, const util::KeySet& rs, const util::KeySet& ws,
               bool global, Version st, [[maybe_unused]] std::uint64_t aux) {
  SDUR_TRACE_STMT({
    const bool scans = storage::CommitWindow::scans(rs) ||
                       (global && storage::CommitWindow::scans(ws));
    SDUR_TRACE_CONTEXT_INSTANT(scans ? trace::Point::kCertScanFallback
                                     : trace::Point::kCertIndexProbe,
                               aux);
  });
  return lane.conflicts(rs, ws, global, st);
}

}  // namespace

const Certifier::Slot* Certifier::slot(Version v) const {
  if (v < window_.base() || v > cc_) return nullptr;
  return window_.find(v);
}

bool Certifier::lanes_conflict(const PartTx& t, Version st,
                               const std::vector<pdur::CoreId>& cores) const {
  // Certify against every assigned version in (st, cc] — committed,
  // pending AND vote-aborted alike. Slot status must not influence the
  // decision: at the moment a transaction is delivered, different replicas
  // may have resolved different prefixes (votes arrive at different
  // times), so any status-dependence would break determinism. Treating a
  // later-aborted global as a conflict source is conservative (an
  // unnecessary abort, retried with a fresh snapshot), never wrong.
  if (!parallel()) {
    // The serial model's single lane is the full-set window; aux is the
    // window depth certified against.
    const std::uint64_t depth = st >= cc_ ? 0 : static_cast<std::uint64_t>(cc_ - st);
    return lane_vote(window_, t.readset, t.write_keys, t.is_global(), st, depth);
  }
  // P-DUR: each home lane votes on its projection of t (aux = the lane); a
  // lane holding nothing after st has nothing to vote on.
  for (pdur::CoreId c : cores) {
    const storage::CommitWindow& lane = lanes_[c];
    if (lane.empty() || lane.newest() <= st) continue;
    if (lane_vote(lane, part_.project(t.readset, c), part_.project(t.write_keys, c),
                  t.is_global(), st, c)) {
      return true;
    }
  }
  return false;
}

Certifier::Result Certifier::process(const PartTx& t, std::uint64_t rt, std::uint64_t dc) {
  Result result;

  // Snapshot bottom (a transaction that wrote without reading at this
  // partition) serializes after everything certified so far; cc_ is
  // deterministic at a given delivery, unlike the stable prefix.
  const Version st = t.snapshot < 0 ? cc_ : t.snapshot;
  if (!window_.covers(st)) {
    result.stale_snapshot = true;
    return result;  // abort: snapshot predates the certification window
  }
  if (parallel()) result.cores = part_.home_cores(t.readset, t.write_keys);
  if (!test_skip_conflict_check_) {
    const bool conflict = lanes_conflict(t, st, result.cores);
    // The per-core decomposition must reach the exact verdict of the
    // full-set window — P-DUR's correctness argument (a key is homed on
    // exactly one core, so the union of per-core intersections equals the
    // full intersection).
    SDUR_AUDIT_CHECK("pdur", "parallel-serial-equivalence",
                     !parallel() ||
                         conflict == window_.conflicts(t.readset, t.write_keys, t.is_global(), st),
                     "parallel certifier " << (conflict ? "aborts" : "commits") << " tx " << t.id
                                           << " (st=" << st << ") but the full-set window "
                                           << (conflict ? "finds no" : "finds a") << " conflict");
    if (conflict) return result;  // abort
  }

  std::size_t position;
  if (t.is_global()) {
    // Globals append: only locals are reordered (Section IV-E).
    position = pl_.size();
  } else {
    // Leftmost pending-list position from which every later entry is a
    // leapable global: still below its reorder threshold (rt >= dc keeps
    // the decision deterministic — past the threshold the global may have
    // completed at other replicas) and commuting with t in both directions
    // (so the already-sent votes and the version order stay valid).
    std::size_t leftmost = pl_.size();
    for (std::size_t k = pl_.size(); k-- > 0;) {
      const PendingEntry& pk = pl_[k];
      // Under the bypass gate a local must additionally be write-disjoint
      // from any global it leaps: a blind-write local leaping a global it
      // write-conflicts with would park behind an entry *behind* itself —
      // the head could never unblock. Without blind writes ws(t) is a
      // subset of rs(t) and the extra conjunct is implied; gated on the
      // config so the default-off path stays bit-identical.
      const bool leapable = pk.tx.is_global() && pk.rt >= dc &&
                            !t.write_keys.intersects(pk.tx.readset) &&
                            !t.readset.intersects(pk.tx.write_keys) &&
                            (!ooo_bypass_ || !t.write_keys.intersects(pk.tx.write_keys));
      if (!leapable) break;
      leftmost = k;
    }
    position = leftmost;
  }

  result.outcome = Outcome::kCommit;
  result.position = position;
  result.reordered = position < pl_.size();
  result.version = ++cc_;
  Slot slot{t.id, t.is_global(), SlotStatus::kPending, t.readset, t.write_keys};
  lanes_push(result.version, slot, result.cores);
  window_.push(result.version, std::move(slot));
  unresolved_insert(result.version, t.write_keys);
  pl_.insert(pl_.begin() + static_cast<std::ptrdiff_t>(position),
             PendingEntry{t, rt, result.version});
  if (ooo_bypass_) {
    // Park gate first (the new entry must not probe its own writes), then
    // register the entry's write keys in the pending-write index.
    if (!t.is_global()) park_on_insert(position, t, result);
    pending_insert(result.version, t.write_keys);
  }
  // The window holds exactly one slot per assigned version in [base, cc]:
  // a gap would let a conflicting transaction escape certification.
  SDUR_AUDIT_CHECK("certifier", "window-contiguous",
                   window_.base() + static_cast<Version>(window_.size()) - 1 == cc_,
                   "window [" << window_.base() << ", " << cc_ << "] holds " << window_.size()
                              << " slots after certifying tx " << t.id);
  return result;
}

PendingEntry Certifier::pop_head() {
  PendingEntry e = std::move(pl_.front());
  pl_.pop_front();
  if (ooo_bypass_) unpark_on_removal(e);
  return e;
}

// --- Out-of-order local commit (techniques.ooo_bypass) ------------------------

void Certifier::pending_insert(Version v, const util::KeySet& write_keys) {
  window_.pending_insert(v, write_keys);
  for (pdur::CoreId c = 0; c < lanes_.size(); ++c) {
    const util::KeySet ws_c = part_.project(write_keys, c);
    if (!ws_c.empty()) lanes_[c].pending_insert(v, ws_c);
  }
}

void Certifier::pending_evict(Version v, const util::KeySet& write_keys) {
  window_.pending_evict(v, write_keys);
  for (pdur::CoreId c = 0; c < lanes_.size(); ++c) {
    const util::KeySet ws_c = part_.project(write_keys, c);
    if (!ws_c.empty()) lanes_[c].pending_evict(v, ws_c);
  }
}

Version Certifier::park_bound(std::size_t position, const PartTx& t) const {
  // Exact bound over the entries ahead. A pending global counts when t
  // reads or writes a key it writes (write-version order for ws cap ws;
  // delivery-order read equivalence for rs cap ws — the latter only
  // arises for snapshot-bottom blind writes, certification aborts every
  // other case). A pending local counts when write-conflicting, and
  // contributes its own bound: it must apply first (smaller version), so
  // t can go no earlier than it does.
  Version bound = 0;
  for (std::size_t k = 0; k < position; ++k) {
    const PendingEntry& pk = pl_[k];
    if (pk.tx.is_global()) {
      if (t.readset.intersects(pk.tx.write_keys) ||
          t.write_keys.intersects(pk.tx.write_keys)) {
        bound = std::max(bound, pk.version);
      }
    } else if (t.write_keys.intersects(pk.tx.write_keys)) {
      bound = std::max(bound, pk.park_until);
    }
  }
  return bound;
}

void Certifier::park_on_insert(std::size_t position, const PartTx& t, Result& result) {
  // Gate trigger: does t read or write a key some pending entry will still
  // write? Over-approximate (it also hits on rs(t) vs pending-local
  // writes); park_bound is authoritative. A bloom probe readset cannot
  // drive key probes; treat it as a hit and let the exact bound decide
  // (mirrors the certification fallback).
  bool hit = storage::CommitWindow::scans(t.readset);
  if (!hit && !parallel()) {
    hit = window_.pending_conflicts(t.readset, t.write_keys);
  } else if (!hit) {
    // Each home lane probes with the full sets: a lane's pending index only
    // holds keys homed on it, so foreign probe keys miss by construction.
    hit = std::any_of(result.cores.begin(), result.cores.end(), [&](pdur::CoreId c) {
      return lanes_[c].pending_conflicts(t.readset, t.write_keys);
    });
    // The per-lane decomposition must reproduce the full-set probe — a key
    // is homed on exactly one core, so the union of lane hits equals the
    // full-index hit.
    SDUR_AUDIT_CHECK("pdur", "bypass-gate-equivalence",
                     hit == window_.pending_conflicts(t.readset, t.write_keys),
                     "per-lane pending-write probe for tx "
                         << t.id << " (" << (hit ? "hit" : "clear")
                         << ") diverges from the full-set pending-write index");
  }
  // The trigger over-approximates the bound (it also hits on rs(t) vs
  // pending-local writes) but must cover it: a missed hit with a nonzero
  // bound would let a conflicting local bypass.
  SDUR_AUDIT_CHECK("certifier", "bypass-gate-coverage", hit || park_bound(position, t) == 0,
                   "pending-write probe missed a nonzero park bound for tx " << t.id);
  Version bound = hit ? park_bound(position, t) : 0;
  if (test_skip_park_gate_) bound = 0;
  pl_[position].park_until = bound;
  result.parked = bound > bypass_watermark_;
}

void Certifier::unpark_on_removal(const PendingEntry& e) {
  // Per-key eviction order stays ascending: the gate itself forbids a
  // newer pending writer of a key completing before an older one.
  pending_evict(e.version, e.tx.write_keys);
  if (e.tx.is_global() && e.version > bypass_watermark_) bypass_watermark_ = e.version;
}

std::size_t Certifier::next_bypassable(std::size_t from) const {
  for (std::size_t k = from; k < pl_.size(); ++k) {
    const PendingEntry& e = pl_[k];
    if (e.ready && !e.tx.is_global() && e.park_until <= bypass_watermark_) return k;
  }
  return npos;
}

PendingEntry Certifier::take_at(std::size_t pos) {
  PendingEntry e = std::move(pl_[pos]);
  pl_.erase(pl_.begin() + static_cast<std::ptrdiff_t>(pos));
  if (ooo_bypass_) unpark_on_removal(e);
  return e;
}

void Certifier::park_rebuild() {
  // Checkpoints do not carry park bounds or the watermark (the format
  // predates the bypass and stays frozen); both are pure functions of the
  // restored pending list, so every replica recomputes identical state.
  // The watermark restarts at 0: completed globals left the list before
  // the checkpoint, so no restored local still waits on one.
  window_.pending_clear();
  for (storage::CommitWindow& lane : lanes_) lane.pending_clear();
  bypass_watermark_ = 0;
  // The pending-write index wants version-ascending inserts; pl_ is in
  // delivery/reorder order (leaped locals sit ahead of smaller versions).
  std::vector<std::size_t> by_version(pl_.size());
  for (std::size_t i = 0; i < pl_.size(); ++i) by_version[i] = i;
  std::sort(by_version.begin(), by_version.end(),
            [this](std::size_t a, std::size_t b) { return pl_[a].version < pl_[b].version; });
  for (std::size_t i : by_version) pending_insert(pl_[i].version, pl_[i].tx.write_keys);
  for (std::size_t i = 0; i < pl_.size(); ++i) {
    PendingEntry& e = pl_[i];
    e.park_until = e.tx.is_global() ? 0 : park_bound(i, e.tx);
  }
}

void Certifier::mark_ready(Version v) {
  for (PendingEntry& e : pl_) {
    if (e.version == v) {
      e.ready = true;
      return;
    }
  }
}

void Certifier::resolve(const PendingEntry& entry, bool committed) {
  resolve(entry.version, entry.tx.id, committed);
}

void Certifier::resolve(Version v, [[maybe_unused]] TxId owner, bool committed) {
  const Slot* target = slot(v);
  if (target == nullptr) return;
  // A slot is resolved exactly once, by the transaction that owns it.
  SDUR_AUDIT_CHECK("certifier", "resolve-once", target->status == SlotStatus::kPending,
                   "version " << v << " (tx " << owner << ") resolved twice");
  SDUR_AUDIT_CHECK("certifier", "resolve-owner", target->txid == owner,
                   "version " << v << " owned by tx " << target->txid << " resolved by tx "
                              << owner);
  window_.set_status(v, committed ? SlotStatus::kCommitted : SlotStatus::kAborted);
  // Either way the slot no longer holds back its keys' read frontiers: a
  // committed write is applied, an aborted one never will be.
  unresolved_erase(v, target->writeset);
  // Advance the stable prefix over contiguously resolved slots.
  SDUR_AUDIT(const Version stable_before = stable_);
  while (stable_ < cc_) {
    const Slot* s = slot(stable_ + 1);
    if (s == nullptr || s->status == SlotStatus::kPending) break;
    ++stable_;
  }
  // Read-only snapshots are gossiped from the stable version: it must never
  // move backwards (a client could observe a snapshot that then grows a
  // hole).
  SDUR_AUDIT_CHECK("certifier", "stable-monotonic",
                   stable_ >= stable_before && stable_ <= cc_,
                   "stable prefix moved from " << stable_before << " to " << stable_
                                               << " (cc=" << cc_ << ")");
  // Evict old resolved slots beyond the window capacity: the window keeps
  // at least `window_capacity_` slots and every unresolved one.
  window_.evict_below(std::min(stable_ + 1, cc_ + 1 - static_cast<Version>(window_capacity_)));
  for (storage::CommitWindow& lane : lanes_) lane.evict_below(window_.base());
}

void Certifier::encode(util::Writer& w) const {
  w.i64(window_.base());
  w.i64(cc_);
  w.i64(stable_);
  w.varint(window_.size());
  window_.scan_after(window_.base() - 1, [&w](Version, const Slot& s) {
    w.u64(s.txid);
    w.u8(s.global ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(s.status));
    s.readset.encode(w);
    s.writeset.encode(w);
    return true;
  });
  w.varint(pl_.size());
  for (const PendingEntry& e : pl_) {
    const util::Bytes tx = e.tx.encode();
    w.bytes(tx);
    w.u64(e.rt);
    w.i64(e.version);
  }
}

void Certifier::install(util::Reader& r) {
  const Version base = r.i64();
  cc_ = r.i64();
  stable_ = r.i64();
  // The checkpoint carries the full keysets per slot; pushing them rebuilds
  // the window's key index.
  window_.clear(base);
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    Slot s;
    s.txid = r.u64();
    s.global = r.u8() != 0;
    s.status = static_cast<SlotStatus>(r.u8());
    s.readset = util::KeySet::decode(r);
    s.writeset = util::KeySet::decode(r);
    window_.push(base + static_cast<Version>(i), std::move(s));
  }
  pl_.clear();
  const std::uint64_t np = r.varint();
  util::Bytes tx_bytes;
  for (std::uint64_t i = 0; i < np; ++i) {
    r.bytes(tx_bytes);
    PendingEntry e;
    e.tx = PartTx::decode(tx_bytes);
    e.rt = r.u64();
    e.version = r.i64();
    pl_.push_back(std::move(e));
  }
  rebuild_lanes();
  if (ooo_bypass_) park_rebuild();
}

void Certifier::lanes_push(Version v, const Slot& slot, const std::vector<pdur::CoreId>& cores) {
  for (pdur::CoreId c : cores) {
    Slot projected{slot.txid, slot.global, slot.status, part_.project(slot.readset, c),
                   part_.project(slot.writeset, c)};
    if (projected.readset.empty() && projected.writeset.empty()) continue;
    lanes_[c].push(v, std::move(projected));
  }
}

void Certifier::rebuild_lanes() {
  // The per-core projections and home cores and the unresolved-writer index
  // are recomputed from the window's slots — a pure function of the
  // keysets, so every replica rebuilds identical state.
  unresolved_ws_.clear();
  unresolved_bloom_ws_.clear();
  for (storage::CommitWindow& lane : lanes_) lane.clear(window_.base());
  window_.scan_after(window_.base() - 1, [this](Version v, const Slot& s) {
    if (s.status == SlotStatus::kPending) unresolved_insert(v, s.writeset);
    if (parallel()) lanes_push(v, s, part_.home_cores(s.readset, s.writeset));
    return true;
  });
}

void Certifier::reset() {
  window_.clear(1);
  window_.pending_clear();
  for (storage::CommitWindow& lane : lanes_) {
    lane.clear(1);
    lane.pending_clear();
  }
  cc_ = 0;
  stable_ = 0;
  pl_.clear();
  unresolved_ws_.clear();
  unresolved_bloom_ws_.clear();
  bypass_watermark_ = 0;
}

// --- Read frontier -------------------------------------------------------------

void Certifier::unresolved_insert(Version v, const util::KeySet& write_keys) {
  // Versions are inserted ascending (certification order; install rebuilds
  // in version order), so every list stays sorted by appending.
  if (write_keys.is_bloom()) {
    if (!write_keys.empty()) unresolved_bloom_ws_.push_back(v);
    return;
  }
  for (Key k : write_keys.keys()) unresolved_ws_[k].push_back(v);
}

void Certifier::unresolved_erase(Version v, const util::KeySet& write_keys) {
  if (write_keys.is_bloom()) {
    auto it = std::lower_bound(unresolved_bloom_ws_.begin(), unresolved_bloom_ws_.end(), v);
    if (it != unresolved_bloom_ws_.end() && *it == v) unresolved_bloom_ws_.erase(it);
    return;
  }
  for (Key k : write_keys.keys()) {
    std::vector<Version>* writers = unresolved_ws_.find(k);
    if (writers == nullptr) continue;
    // Usually the front (in-order completion); bypass and speculation may
    // resolve a newer writer first.
    auto it = std::lower_bound(writers->begin(), writers->end(), v);
    if (it != writers->end() && *it == v) writers->erase(it);
    if (writers->empty()) unresolved_ws_.erase(k);
  }
}

Version Certifier::read_frontier(Key k) const {
  Version frontier = cc_;
  if (const std::vector<Version>* writers = unresolved_ws_.find(k)) {
    frontier = writers->front() - 1;
  }
  for (Version v : unresolved_bloom_ws_) {
    if (v > frontier) break;
    if (window_.find(v)->writeset.may_contain(k)) {
      frontier = v - 1;
      break;
    }
  }
  // The index must reproduce the window scan exactly: a frontier too high
  // serves a value an unresolved writer can still change; too low only
  // costs freshness, but would still mean the index lost track of a slot.
  SDUR_AUDIT_CHECK("certifier", "read-frontier-equivalence", frontier == scan_frontier(k),
                   "indexed read frontier " << frontier << " of key " << k
                                            << " diverges from the window scan ("
                                            << scan_frontier(k) << ", stable=" << stable_
                                            << ", cc=" << cc_ << ")");
  return frontier;
}

Version Certifier::scan_frontier(Key k) const {
  // Every slot at or below stable is resolved, so the scan starts above it.
  Version frontier = cc_;
  window_.scan_after(stable_, [&](Version v, const Slot& s) {
    if (s.status != SlotStatus::kPending || !s.writeset.may_contain(k)) return true;
    frontier = v - 1;
    return false;
  });
  return frontier;
}

}  // namespace sdur
