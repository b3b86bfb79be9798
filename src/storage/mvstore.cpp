#include "storage/mvstore.h"

#include <algorithm>
#include <stdexcept>

#include "audit/audit.h"

namespace sdur::storage {

std::optional<VersionedValue> MVStore::get(Key k, Version snapshot) const {
  const VersionChain* chain = map_.find(k);
  if (chain == nullptr || chain->empty()) return std::nullopt;
  // First version with version > snapshot; the predecessor is the answer.
  const std::size_t pos = chain->upper_bound(snapshot);
  if (pos == 0) return std::nullopt;
  return (*chain)[pos - 1];
}

std::optional<VersionedValue> MVStore::get_latest(Key k) const {
  const VersionChain* chain = map_.find(k);
  if (chain == nullptr || chain->empty()) return std::nullopt;
  return chain->back();
}

void MVStore::put(Key k, std::string value, Version version) {
  VersionChain& chain = map_[k];
  // Commits are applied in snapshot-counter order, so per-key versions are
  // non-decreasing; a regression means the apply order diverged from the
  // commit order.
  SDUR_AUDIT_CHECK("storage", "version-order", chain.empty() || chain.back().version <= version,
                   "key " << k << " written at version " << version << " after version "
                          << chain.back().version);
  if (!chain.empty() && chain.back().version > version) {
    throw std::logic_error("MVStore::put: version regression");
  }
  if (!chain.empty() && chain.back().version == version) {
    chain.back().value = std::move(value);  // same-snapshot overwrite
    return;
  }
  chain.push_back(VersionedValue{version, std::move(value)});
  ++versions_;
}

void MVStore::put_speculative(Key k, std::string value, Version version) {
  put(k, std::move(value), version);
  std::vector<Key>& ks = spec_log_[version];
  // A transaction may write the same key twice (same-version overwrite in
  // put); one undo record per key is enough.
  if (ks.empty() || ks.back() != k) ks.push_back(k);
}

std::size_t MVStore::promote(Version version) {
  return spec_log_.erase(version);
}

std::size_t MVStore::rollback(Version version) {
  auto it = spec_log_.find(version);
  if (it == spec_log_.end()) return 0;
  std::size_t erased = 0;
  for (Key k : it->second) {
    VersionChain* chain = map_.find(k);
    if (chain == nullptr) continue;
    // The entry sits at upper_bound(version) - 1 if present; later
    // committed versions of the key may follow it, so close the gap.
    std::size_t pos = chain->upper_bound(version);
    if (pos == 0 || (*chain)[pos - 1].version != version) continue;
    --pos;
    for (std::size_t i = pos + 1; i < chain->size(); ++i)
      (*chain)[i - 1] = std::move((*chain)[i]);
    chain->pop_back();
    --versions_;
    ++erased;
    if (chain->empty()) map_.erase(k);
  }
  spec_log_.erase(it);
  return erased;
}

void MVStore::mark_speculative(Version version, const std::vector<Key>& ks) {
  if (!ks.empty()) spec_log_[version] = ks;
}

void MVStore::audit_spec_floor(Version floor) const {
  if (spec_log_.empty() || spec_log_.begin()->first > floor) return;
  SDUR_AUDIT_CHECK("storage", "spec-floor", false,
                   "speculative version " << spec_log_.begin()->first
                                          << " at or below resolved floor " << floor
                                          << " — a rollback or promote was missed");
  throw std::logic_error("MVStore: speculative version below resolved floor");
}

void MVStore::truncate_above(Version horizon) {
  // Collect first: erase() perturbs the probe layout mid-walk.
  std::vector<Key> ks = keys();
  for (Key k : ks) {
    VersionChain& chain = *map_.find(k);
    while (!chain.empty() && chain.back().version > horizon) {
      chain.pop_back();
      --versions_;
    }
    if (chain.empty()) map_.erase(k);
  }
  spec_log_.erase(spec_log_.upper_bound(horizon), spec_log_.end());
}

void MVStore::gc(Version horizon) {
  map_.for_each([&](Key, VersionChain& chain) {
    if (chain.size() <= 1) return;
    // Keep the newest version <= horizon (still readable at the horizon)
    // and everything newer.
    const std::size_t pos = chain.upper_bound(horizon);
    if (pos <= 1) return;
    const std::size_t drop = pos - 1;
    chain.drop_front(drop);
    versions_ -= drop;
  });
}

std::optional<Version> MVStore::gc_horizon(Version before, Version after, Version keep) {
  const Version boundary = after - after % kGcPeriod;  // newest multiple <= after
  if (boundary <= before) return std::nullopt;
  return boundary - keep;
}

void MVStore::encode(util::Writer& w) const {
  // Keys are serialized sorted so a checkpoint blob is a canonical function
  // of the store's contents — byte-identical across replicas regardless of
  // hash-table probe order.
  std::vector<Key> ks = keys();
  std::sort(ks.begin(), ks.end());
  w.varint(ks.size());
  for (Key k : ks) {
    const VersionChain& chain = *map_.find(k);
    w.u64(k);
    w.varint(chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
      w.i64(chain[i].version);
      w.bytes(chain[i].value);
    }
  }
}

void MVStore::install(util::Reader& r) {
  map_.clear();
  versions_ = 0;
  spec_log_.clear();  // the installer re-marks from its own spec records
  const std::uint64_t nkeys = r.varint();
  map_.reserve(nkeys);
  for (std::uint64_t i = 0; i < nkeys; ++i) {
    const Key k = r.u64();
    const std::uint64_t nv = r.varint();
    VersionChain& chain = map_[k];
    chain.reserve(nv);
    for (std::uint64_t j = 0; j < nv; ++j) {
      VersionedValue vv;
      vv.version = r.i64();
      vv.value = r.bytes();
      chain.push_back(std::move(vv));
    }
    versions_ += nv;
  }
}

}  // namespace sdur::storage
