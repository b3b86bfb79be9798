// Certifier: the deterministic certification and reordering core of
// Algorithm 2, factored out of the server so the paper's central logic can
// be tested in isolation.
//
// DETERMINISM REFINEMENT (see DESIGN.md). The paper's pseudocode advances
// the snapshot counter SC when a transaction *completes* (Algorithm 2,
// line 39) and certifies a delivered transaction against DB[t.st[p]..SC]
// plus the pending list. Completion of a global transaction depends on
// when its votes arrive, which differs across replicas — so at the moment
// transaction t is delivered, one replica may have completed a global g
// (g in DB, excluded from the scan because its version is within t's
// snapshot) while another still has g pending (g caught by the pending
// check and flagged as a stale read). The two replicas would then certify
// t differently and diverge.
//
// This implementation closes the race by making version assignment purely
// delivery-ordered:
//
//   * every transaction that passes certification is assigned the next
//     version (cc) immediately, at delivery — deterministic;
//   * the window keeps one slot per assigned version with a status
//     (pending / committed / aborted) and the transaction's read/write
//     sets; certifying t scans versions in (t.st, cc] ignoring slot
//     status entirely — pending and even vote-aborted slots count as
//     conflict sources (resolution timing differs across replicas, so any
//     status-dependence would break determinism; the cost is an
//     occasional conservative abort, retried with a fresh snapshot);
//   * completion resolves the slot and applies the writes at the
//     *pre-assigned* version; a read of key k is served at k's "read
//     frontier" — min(cc, v_k - 1) for the oldest unresolved slot v_k
//     that writes k, or cc when none does — so no read observes a version
//     that an unresolved writer of *that key* at or below it could still
//     change. Unresolved slots that do not write k are irrelevant to its
//     value. The frontier is never below the "stable" version (the
//     largest v such that every slot <= v is resolved), which the
//     read-only snapshot gossip still uses.
//
// A local transaction reordered before a pending global completes (and is
// acknowledged) earlier but keeps its delivery-ordered version; this is
// sound because reordering requires their read/write sets to be disjoint
// in both directions, i.e. the two transactions commute.
//
// ONE WINDOW (storage/commit_window.h). The slots live in one
// storage::CommitWindow, one record per assigned version, which also
// holds the per-key certification index; every certification runs
// against it. Write keys are always exact: process() rejects a bloom
// write set before any check. P-DUR (arXiv:1312.0742), constructed
// with cores > 1, splits that check across the transaction's home cores:
// a key lives on exactly one core, so the per-core checks reach the
// window's verdict. The split changes only where the simulated work is
// charged (pdur::Executor), so the certifier reports the home cores and
// decides exactly as the serial model does.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "pdur/core_partitioner.h"
#include "sdur/transaction.h"
#include "storage/commit_window.h"
#include "storage/flat_table.h"
#include "util/bloom.h"

namespace sdur {

/// A pending (certified, not yet completed) transaction.
struct PendingEntry {
  PartTx tx;
  std::uint64_t rt = 0;  // reorder threshold: complete only once dc >= rt
  Version version = 0;   // version pre-assigned at certification
  /// A local that leaped at least one pending global (counted when it
  /// commits). Not serialized.
  bool reordered = false;

  /// P-DUR: false while the transaction's simulated core work is still in
  /// flight; the pending list never completes an entry (not even a
  /// committed local) before its cores finished. Always true in the serial
  /// model.
  bool ready = true;
  /// Out-of-order bypass (techniques.ooo_bypass): the completed-global watermark
  /// this local must wait for before it may commit out of order — the
  /// largest version among pending entries ahead whose write set it
  /// conflicts with (inheriting the bound of conflicting pending locals).
  /// 0 = unparked (versions start at 1). Globals never bypass, so the
  /// field is meaningless for them. Computed at certification and
  /// recomputed on checkpoint install; not serialized.
  Version park_until = 0;
};

class Certifier {
 public:
  using SlotStatus = storage::CommitStatus;
  /// One certified transaction (a record of the full-set window), indexed
  /// by its assigned version.
  using Slot = storage::CommitRecord;

  /// `cores > 1` reports each transaction's P-DUR home cores
  /// (Result::cores); `cores == 1` (default) is the serial model.
  /// `ooo_bypass` arms the out-of-order local-commit gate (park bounds and
  /// the watermark); off (default) leaves every bypass structure
  /// untouched — bit-identical legacy behavior.
  explicit Certifier(std::size_t window_capacity, std::uint32_t cores = 1,
                     bool ooo_bypass = false)
      : window_capacity_(window_capacity == 0 ? 1 : window_capacity),
        ooo_bypass_(ooo_bypass),
        part_(cores) {}

  struct Result {
    Outcome outcome = Outcome::kAbort;
    /// Insertion position in the pending list (only when committed).
    std::size_t position = 0;
    /// Version assigned to the transaction (only when committed).
    Version version = 0;
    /// True if the abort was caused by the snapshot falling out of the
    /// certification window.
    bool stale_snapshot = false;
    /// P-DUR: the home cores of the transaction (populated whenever the
    /// certifier runs in multi-core mode, for every non-stale verdict).
    std::vector<pdur::CoreId> cores;
    /// Out-of-order bypass: true when a committed local conflicts with a
    /// pending write set and must park (park_until > watermark).
    bool parked = false;
  };

  /// Certifies transaction `t` delivered with reorder threshold `rt` when
  /// the delivery counter is `dc`; on success assigns the next version and
  /// inserts it into the pending list (Algorithm 2, reorder()). Throws
  /// std::invalid_argument if `t.write_keys` is bloom-encoded.
  Result process(const PartTx& t, std::uint64_t rt, std::uint64_t dc);

  // --- Pending list -------------------------------------------------------
  bool empty() const { return pl_.empty(); }
  std::size_t size() const { return pl_.size(); }
  PendingEntry& head() { return pl_.front(); }
  const PendingEntry& at(std::size_t i) const { return pl_[i]; }
  PendingEntry& at(std::size_t i) { return pl_[i]; }
  PendingEntry pop_head();

  /// P-DUR: marks the pending entry holding version `v` ready (its core
  /// work completed). No-op if the entry already left the list.
  void mark_ready(Version v);

  // --- Out-of-order local commit (techniques.ooo_bypass) ------------------
  /// "No pending entry" sentinel for next_bypassable().
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Version of the newest completed global; a parked local unparks once
  /// the watermark reaches its park bound. Globals complete at the head in
  /// ascending version order, so the watermark is monotone.
  Version bypass_watermark() const { return bypass_watermark_; }
  /// Index (>= `from`) of the first pending local that is ready and
  /// unparked — eligible to commit past everything ahead of it — or npos
  /// (always, unless the bypass gate is armed).
  std::size_t next_bypassable(std::size_t from) const;
  /// Removes and returns the entry at `pos` (the bypass analogue of
  /// pop_head: maintains the watermark). With
  /// the bypass gate armed, audit builds check that the entry may commit
  /// past everything ahead ("bypass-serial-equivalence").
  PendingEntry take_at(std::size_t pos);

  // --- Resolution ----------------------------------------------------------
  /// Resolves a completed transaction's slot (after the caller popped it
  /// from the pending list and, on commit, applied its writes at
  /// entry.version). Advances the stable prefix and the read frontiers of
  /// the keys the slot writes.
  void resolve(const PendingEntry& entry, bool committed);
  /// Same, for an entry the caller detached earlier (speculative global
  /// commit: the entry left the pending list at speculation time and is
  /// resolved when its votes arrive). `owner` pins the resolve-owner audit.
  void resolve(Version v, TxId owner, bool committed);

  /// Highest assigned version (certified, possibly unresolved).
  Version certified() const { return cc_; }
  /// Highest version v such that all slots <= v are resolved (the
  /// read-only snapshot gossip serves this).
  Version stable() const { return stable_; }
  /// Newest version at which key `k`'s value is final: min(cc, v_k - 1)
  /// for the oldest unresolved slot v_k writing `k` (pending, P-DUR work in
  /// flight, or speculated), else cc. Always in [stable, cc]. One probe of
  /// the unresolved-writer index; audit builds cross-check it against a
  /// scan of (stable, cc] ("read-frontier-equivalence").
  Version read_frontier(Key k) const;

  /// True if a snapshot is still coverable by the window. Written without
  /// `st + 1` so st == INT64_MAX cannot overflow.
  bool covers(Version st) const {
    return window_.empty() || window_.covers(st < 0 ? stable_ : st);
  }
  std::size_t window_size() const { return window_.size(); }

  /// Slot accessor for tests (version must be in (base-1, cc]).
  const Slot* slot(Version v) const;

  /// TEST-ONLY fault injection: when set, certification skips the conflict
  /// check and commits every coverable transaction — a determinism bug
  /// (when enabled on a single replica) the audit layer must catch
  /// (tests/audit_test.cpp). Never set outside tests.
  void test_skip_conflict_check(bool v) { test_skip_conflict_check_ = v; }

  /// TEST-ONLY fault injection: when set (with ooo_bypass on), the park
  /// gate is skipped — every committed local is unparked, so a
  /// write-conflicting local bypasses the pending writer ahead of it. The
  /// store's version-order audit (and MVStore's regression throw) must
  /// catch the resulting out-of-order apply (tests/convoy_bypass_test.cpp).
  /// Never set outside tests.
  void test_skip_park_gate(bool v) { test_skip_park_gate_ = v; }

  /// Serializes the full certifier state (window slots + pending list)
  /// into a checkpoint; install() replaces the state from one.
  void encode(util::Writer& w) const;
  void install(util::Reader& r);

  void reset();

  /// P-DUR mode (cores > 1 at construction).
  bool parallel() const { return part_.cores() > 1; }

 private:
  /// Rebuilds the unresolved-writer index from the window's slots (after
  /// install()).
  void rebuild_unresolved();

  // --- Read frontier internals ---------------------------------------------
  /// The reference read_frontier() must match: a scan of (stable, cc] for
  /// the oldest unresolved slot that may write `k`.
  Version scan_frontier(Key k) const;
  /// Registers / unregisters unresolved slot `v` in the unresolved-writer
  /// index (certification and resolution; resolution may run out of
  /// version order under bypass and speculation).
  void unresolved_insert(Version v, const util::KeySet& write_keys);
  void unresolved_erase(Version v, const util::KeySet& write_keys);

  // --- Out-of-order local commit internals --------------------------------
  /// Exact park bound for a local inserted at `position`: the largest
  /// version among conflicting pending entries ahead (globals contribute
  /// their version; write-conflicting locals their own park bound). 0 =
  /// nothing to wait for.
  Version park_bound(std::size_t position, const PartTx& t) const;
  /// True iff some unresolved slot writes a key of `keys` (exact).
  bool writes_unresolved(const util::KeySet& keys) const;
  /// Computes the park bound for a freshly certified local and stamps the
  /// inserted entry (gate trigger + exact bound + audit).
  void park_on_insert(std::size_t position, const PartTx& t, Result& result);
  /// Maintains the completed-global watermark as `e` leaves the pending
  /// list (pop_head and take_at).
  void unpark_on_removal(const PendingEntry& e);
  /// Recomputes every restored local's park bound after install() — a pure
  /// function of the restored pending list, so replicas agree.
  void park_rebuild();

  std::size_t window_capacity_;
  bool test_skip_conflict_check_ = false;
  bool test_skip_park_gate_ = false;
  /// Out-of-order local commit armed (techniques.ooo_bypass). When false, no
  /// bypass structure is ever touched — the legacy paths are bit-identical.
  bool ooo_bypass_ = false;
  /// The window: one slot per assigned version in [base, cc] and the
  /// per-key certification index over them.
  storage::CommitWindow window_{1};
  pdur::CorePartitioner part_;
  Version cc_ = 0;      // last assigned version
  Version stable_ = 0;  // resolved prefix
  std::deque<PendingEntry> pl_;
  /// Per key, the versions (ascending) of the unresolved slots writing it:
  /// serves the read frontier and the bypass-gate trigger. Probe-only,
  /// like the window's index — never iterated, so hash order cannot leak.
  /// A key's entry is erased once its last unresolved writer resolves.
  storage::FlatTable<std::vector<Version>> unresolved_ws_;
  /// Version of the newest completed global (see bypass_watermark()).
  Version bypass_watermark_ = 0;
};

}  // namespace sdur
