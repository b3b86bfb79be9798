#include "sdur/certifier.h"

#include <algorithm>
#include <stdexcept>

#include "audit/audit.h"

namespace sdur {

const Certifier::Slot* Certifier::slot(Version v) const {
  if (v < window_.base() || v > cc_) return nullptr;
  return window_.find(v);
}

Certifier::Result Certifier::process(const PartTx& t, std::uint64_t rt, std::uint64_t dc) {
  // The window, the unresolved-writer index and the bypass gate index
  // write keys exactly (Server::project always builds them so).
  if (t.write_keys.is_bloom()) {
    throw std::invalid_argument("Certifier::process: write keys must be exact");
  }
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
    // Certify against every assigned version in (st, cc] — committed,
    // pending AND vote-aborted alike. Slot status must not influence the
    // decision: at the moment a transaction is delivered, different
    // replicas may have resolved different prefixes (votes arrive at
    // different times), so any status-dependence would break determinism.
    // Treating a later-aborted global as a conflict source is conservative
    // (an unnecessary abort, retried with a fresh snapshot), never wrong.
    if (window_.conflicts(t.readset, t.write_keys, t.is_global(), st)) return result;  // abort
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
  result.version = ++cc_;
  window_.push(result.version,
               Slot{t.id, t.is_global(), SlotStatus::kPending, t.readset, t.write_keys});
  pl_.insert(pl_.begin() + static_cast<std::ptrdiff_t>(position),
             PendingEntry{t, rt, result.version, position < pl_.size()});
  // Park gate before registering t as an unresolved writer: t must not
  // probe its own writes.
  if (ooo_bypass_ && !t.is_global()) park_on_insert(position, t, result);
  unresolved_insert(result.version, t.write_keys);
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

bool Certifier::writes_unresolved(const util::KeySet& keys) const {
  for (Key k : keys.keys()) {
    if (unresolved_ws_.find(k) != nullptr) return true;
  }
  return false;
}

void Certifier::park_on_insert(std::size_t position, const PartTx& t, Result& result) {
  // Gate trigger: does t read or write a key some unresolved slot will
  // still write? Every pending entry is unresolved, so the trigger covers
  // the bound; it over-approximates it (it also hits on rs(t) vs
  // pending-local writes and on writers already popped but not resolved,
  // e.g. speculated globals), and park_bound is authoritative. A bloom
  // readset cannot drive key probes; treat it as a hit and let the exact
  // bound decide (mirrors the certification fallback).
  const bool hit = storage::CommitWindow::scans(t.readset) || writes_unresolved(t.readset) ||
                   writes_unresolved(t.write_keys);
  // A missed hit with a nonzero bound would let a conflicting local bypass.
  SDUR_AUDIT_CHECK("certifier", "bypass-gate-coverage", hit || park_bound(position, t) == 0,
                   "unresolved-writer probe missed a nonzero park bound for tx " << t.id);
  Version bound = hit ? park_bound(position, t) : 0;
  if (test_skip_park_gate_) bound = 0;
  pl_[position].park_until = bound;
  result.parked = bound > bypass_watermark_;
}

void Certifier::unpark_on_removal(const PendingEntry& e) {
  if (e.tx.is_global() && e.version > bypass_watermark_) bypass_watermark_ = e.version;
}

std::size_t Certifier::next_bypassable(std::size_t from) const {
  for (std::size_t k = from; ooo_bypass_ && k < pl_.size(); ++k) {
    const PendingEntry& e = pl_[k];
    if (e.ready && !e.tx.is_global() && e.park_until <= bypass_watermark_) return k;
  }
  return npos;
}

PendingEntry Certifier::take_at(std::size_t pos) {
  // Under the bypass gate, replay the strict delivery-order gate: nothing
  // still ahead of a bypassed local may write-conflict with it (the store
  // applies writes in version order), and any pending write it *read*
  // must sit within its snapshot — the cross-replica race certification
  // already admits: the read was served by a replica where that writer
  // had completed. A bloom readset cannot be checked key-exactly, so its
  // read clause is skipped (the park gate already treated it as a
  // conservative hit).
  SDUR_AUDIT({
    const PendingEntry& local = pl_[pos];
    for (std::size_t k = 0; ooo_bypass_ && k < pos; ++k) {
      const PendingEntry& ahead = pl_[k];
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
                                   << ", st=" << local.tx.snapshot << ") bypasses pending tx "
                                   << ahead.tx.id << " (v" << ahead.version
                                   << ") whose write it read");
    }
  });
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
  bypass_watermark_ = 0;
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
  rebuild_unresolved();
  if (ooo_bypass_) park_rebuild();
}

void Certifier::rebuild_unresolved() {
  // Recomputed from the window's slots — a pure function of the restored
  // state, so every replica rebuilds an identical index.
  unresolved_ws_.clear();
  window_.scan_after(window_.base() - 1, [this](Version v, const Slot& s) {
    if (s.status == SlotStatus::kPending) unresolved_insert(v, s.writeset);
    return true;
  });
}

void Certifier::reset() {
  window_.clear(1);
  cc_ = 0;
  stable_ = 0;
  pl_.clear();
  unresolved_ws_.clear();
  bypass_watermark_ = 0;
}

// --- Read frontier -------------------------------------------------------------

void Certifier::unresolved_insert(Version v, const util::KeySet& write_keys) {
  // Versions are inserted ascending (certification order; install rebuilds
  // in version order), so every list stays sorted by appending.
  for (Key k : write_keys.keys()) unresolved_ws_[k].push_back(v);
}

void Certifier::unresolved_erase(Version v, const util::KeySet& write_keys) {
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
