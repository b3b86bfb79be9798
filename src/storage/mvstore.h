// Multiversion key-value store (one per server, holding one partition).
//
// Matches the paper's database model (Section II-B): each item is a tuple
// (key, value, version) and the store is multiversion — reads at snapshot
// `st` return the most recent version <= st, so transactions observe a
// consistent view of the partition as of their first read.
//
// Versions are the partition's snapshot counter values: committing
// transaction t under snapshot counter SC writes its updates with version
// SC+1 and then advances the counter, so a transaction that began at
// snapshot SC never observes t's writes.
//
// HOT PATH. get()/put() run once per read / per committed write across
// every simulated server, so the store avoids std::unordered_map's
// per-node allocations: keys live in an open-addressing flat table
// (storage/flat_table.h) and each key's version chain keeps its first two
// versions inline — most keys never see more than a couple of live
// versions between GC horizons, so the common chain never touches the
// heap. Chains spill into a vector past the inline slots.
#pragma once

#include <cstdint>

#include "storage/flat_table.h"
#include "util/bytes.h"
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sdur::storage {

using Key = std::uint64_t;
/// A snapshot-counter value; version 0 is "initial load".
using Version = std::int64_t;

struct VersionedValue {
  Version version = 0;
  std::string value;
};

/// A key's versions in ascending version order: `kInline` slots stored in
/// place, the rest spilled to a heap vector. Indexable like a vector.
class VersionChain {
 public:
  static constexpr std::size_t kInline = 2;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const VersionedValue& operator[](std::size_t i) const {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }
  VersionedValue& operator[](std::size_t i) {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }
  const VersionedValue& front() const { return (*this)[0]; }
  const VersionedValue& back() const { return (*this)[size_ - 1]; }
  VersionedValue& back() { return (*this)[size_ - 1]; }

  void push_back(VersionedValue vv) {
    if (size_ < kInline) {
      inline_[size_] = std::move(vv);
    } else {
      spill_.push_back(std::move(vv));
    }
    ++size_;
  }

  void pop_back() {
    --size_;
    if (size_ >= kInline) {
      spill_.pop_back();
    } else {
      inline_[size_] = VersionedValue{};
    }
  }

  /// Drops the first `n` versions (GC of pre-horizon versions).
  void drop_front(std::size_t n) {
    if (n == 0) return;
    for (std::size_t i = n; i < size_; ++i) (*this)[i - n] = std::move((*this)[i]);
    for (std::size_t i = 0; i < n; ++i) pop_back();
  }

  void reserve(std::size_t n) {
    if (n > kInline) spill_.reserve(n - kInline);
  }

  /// Read-only forward iteration in version order (inline slots first,
  /// then the spill vector).
  class const_iterator {
   public:
    const_iterator(const VersionChain* chain, std::size_t i) : chain_(chain), i_(i) {}
    const VersionedValue& operator*() const { return (*chain_)[i_]; }
    const VersionedValue* operator->() const { return &(*chain_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const VersionChain* chain_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// Index of the first version > `snapshot` (== size() if none).
  std::size_t upper_bound(Version snapshot) const {
    std::size_t lo = 0, hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if ((*this)[mid].version <= snapshot) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::size_t size_ = 0;
  VersionedValue inline_[kInline];
  std::vector<VersionedValue> spill_;
};

class MVStore {
 public:
  /// Most recent version of `k` with version <= snapshot.
  std::optional<VersionedValue> get(Key k, Version snapshot) const;

  /// Latest version of `k`.
  std::optional<VersionedValue> get_latest(Key k) const;

  /// Installs `value` for `k` at `version`. Versions per key must be
  /// non-decreasing (commits are applied in snapshot-counter order).
  void put(Key k, std::string value, Version version);

  /// Bulk load at version 0 (initial database population).
  void load(Key k, std::string value) { put(k, std::move(value), 0); }

  // --- Speculative versions (techniques.speculation; DESIGN.md
  // "Speculative global commit") ---------------------------------------------
  // A speculative put is a normal chain insert plus an undo-log record
  // keyed by version: promote() discharges the record (the versions become
  // permanent), rollback() erases the version from every written key's
  // chain. Erasing mid-chain keeps per-key version order intact, so the
  // version-order audit in put() stays authoritative. Legacy runs never
  // call these and pay nothing.

  /// put() plus an undo-log record for `version`.
  void put_speculative(Key k, std::string value, Version version);

  /// Makes every write at `version` permanent; returns the number of
  /// undo-log records discharged (0 if `version` was never speculative).
  std::size_t promote(Version version);

  /// Erases every speculative write at `version` and discharges its
  /// undo-log record; returns the number of chain entries removed.
  std::size_t rollback(Version version);

  /// Re-registers undo-log records without writing (checkpoint install:
  /// the chains already carry the speculative versions).
  void mark_speculative(Version version, const std::vector<Key>& ks);

  /// Outstanding speculative versions.
  std::size_t speculative_count() const { return spec_log_.size(); }

  /// Every outstanding speculative version must be above `floor` — the
  /// resolved (stable) prefix must never retain speculative state. A
  /// violation means a rollback or promote was missed; audited and fatal.
  void audit_spec_floor(Version floor) const;

  /// Drops every version newer than `horizon` (crash recovery rolls the
  /// store back to the initial load, then deliveries are replayed).
  void truncate_above(Version horizon);

  /// Drops versions older than `horizon` for every key, keeping at least
  /// the newest one (snapshot reads older than the horizon become
  /// unanswerable; the certification window bounds how old a snapshot can
  /// be anyway).
  void gc(Version horizon);
  /// The GC cadence: when the resolved (stable) prefix moves from `before`
  /// to `after` across a multiple B of kGcPeriod, the horizon B - `keep`,
  /// else nullopt. Crossing, not landing on, B makes every replica prune
  /// alike however vote timing batches the prefix's advance.
  static constexpr Version kGcPeriod = Version{1} << 18;
  static std::optional<Version> gc_horizon(Version before, Version after, Version keep);

  std::size_t key_count() const { return map_.size(); }
  std::size_t version_count() const { return versions_; }

  /// Serializes the full store into a checkpoint / replaces it from one.
  void encode(util::Writer& w) const;
  void install(util::Reader& r);

  /// All keys present in the store, in hash order — callers that care
  /// about determinism must sort (encode() does).
  std::vector<Key> keys() const {
    std::vector<Key> out;
    out.reserve(map_.size());
    map_.for_each([&](Key k, const VersionChain&) { out.push_back(k); });
    return out;
  }

  /// All versions of a key in ascending version order (nullptr if absent).
  /// Used by tests (e.g. to recover the per-key write order for the
  /// serializability checker).
  const VersionChain* versions_of(Key k) const { return map_.find(k); }

 private:
  FlatTable<VersionChain> map_;
  std::size_t versions_ = 0;
  /// Undo log: speculative version -> keys written at it (ascending
  /// version order; std::map so encode/iteration are deterministic).
  std::map<Version, std::vector<Key>> spec_log_;
};

}  // namespace sdur::storage
