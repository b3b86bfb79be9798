#include "storage/mvstore.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "audit/audit.h"

namespace sdur::storage {

std::string_view ValueArena::append(std::string_view v) {
  if (v.empty()) return {};
  if (v.size() > left_) {
    const std::size_t n = std::max(v.size(), next_block_);
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(n));
    cur_ = blocks_.back().get();
    left_ = n;
    capacity_ += n;
    next_block_ = std::min(next_block_ * 2, kMaxBlock);
  }
  std::memcpy(cur_, v.data(), v.size());
  const std::string_view out(cur_, v.size());
  cur_ += v.size();
  left_ -= v.size();
  used_ += v.size();
  return out;
}

void ValueArena::reset(std::size_t first_block) {
  blocks_.clear();
  cur_ = nullptr;
  left_ = 0;
  next_block_ = first_block == 0 ? kMinBlock : first_block;
  capacity_ = 0;
  used_ = 0;
}

std::size_t VersionChain::upper_bound(Version snapshot) const {
  std::size_t lo = 0, hi = size();
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

void VersionChain::insert(std::size_t i, VersionRef v) {
  if (i == 0) {
    rest_.insert(rest_.begin(), first_);
    first_ = v;
  } else {
    rest_.insert(rest_.begin() + static_cast<std::ptrdiff_t>(i - 1), v);
  }
}

void VersionChain::drop_front(std::size_t n) {
  first_ = rest_[n - 1];
  rest_.erase(rest_.begin(), rest_.begin() + static_cast<std::ptrdiff_t>(n));
}

MVStore::MVStore(std::shared_ptr<const MVStore> image) : image_(std::move(image)) {
  if (image_ && (image_->image_ || image_->version_count() != image_->key_count())) {
    throw std::invalid_argument("MVStore: an image must be a plain store of one load per key");
  }
}

std::optional<VersionedValue> MVStore::get(Key k, Version snapshot) const {
  const VersionChain* chain = versions_of(k);
  if (chain == nullptr) return std::nullopt;
  // First version with version > snapshot; the predecessor is the answer.
  const std::size_t pos = chain->upper_bound(snapshot);
  if (pos == 0) return std::nullopt;
  const VersionRef& v = (*chain)[pos - 1];
  return VersionedValue{v.version, std::string(v.value)};
}

std::optional<VersionedValue> MVStore::get_latest(Key k) const {
  const VersionChain* chain = versions_of(k);
  if (chain == nullptr) return std::nullopt;
  const VersionRef& v = chain->back();
  return VersionedValue{v.version, std::string(v.value)};
}

void MVStore::put(Key k, std::string_view value, Version version) {
  if (chains_.size() >= kErased) {
    throw std::length_error("MVStore::put: more keys than 32-bit chain ids");
  }
  const auto next = static_cast<std::uint32_t>(chains_.size());
  const auto [id, inserted] = index_.try_emplace(k, next);
  if (inserted || *id == kErased) {
    const VersionChain* image = inserted ? image_chain(k) : nullptr;
    *id = next;
    ++versions_;
    if (image == nullptr) {
      chains_.emplace_back(k, VersionRef{version, arena_.append(value)});
      return;
    }
    // Copy-on-write: the key's own chain starts from a view of the image's
    // version 0, then takes this write like any existing chain.
    chains_.emplace_back(k, image->front());
    ++shadowed_;
  }
  VersionChain& chain = chains_[*id];
  // Commits are applied in snapshot-counter order, so per-key versions are
  // non-decreasing; a regression means the apply order diverged from the
  // commit order.
  VersionRef& last = chain.last();
  SDUR_AUDIT_CHECK("storage", "version-order", last.version <= version,
                   "key " << k << " written at version " << version << " after version "
                          << last.version);
  if (last.version > version) throw std::logic_error("MVStore::put: version regression");
  if (last.version == version) {
    last.value = arena_.append(value);  // same-snapshot overwrite
    return;
  }
  chain.rest_.push_back(VersionRef{version, arena_.append(value)});
  ++versions_;
}

void MVStore::insert(Key k, std::string_view value, Version version) {
  const std::uint32_t* id = index_.find(k);
  if (id == nullptr || *id == kErased || chains_[*id].back().version <= version) {
    put(k, value, version);
    return;
  }
  VersionChain& chain = chains_[*id];
  const std::size_t pos = chain.upper_bound(version);
  if (pos > 0 && chain[pos - 1].version == version) {
    chain.at(pos - 1).value = arena_.append(value);  // same-version overwrite
    return;
  }
  chain.insert(pos, VersionRef{version, arena_.append(value)});
  ++versions_;
}

void MVStore::truncate_above(Version horizon) {
  // Walk down so that swap-with-last only ever moves a chain already
  // visited into the hole.
  for (std::size_t id = chains_.size(); id-- > 0;) {
    VersionChain& chain = chains_[id];
    const std::size_t keep = chain.upper_bound(horizon);
    versions_ -= chain.size() - keep;
    if (keep == 0) {
      erase_chain(id, /*to_image=*/false);
      continue;
    }
    chain.truncate(keep);
    if (keep == 1 && borrows_image(chain)) {  // nothing left but the image's
      --versions_;
      erase_chain(id, /*to_image=*/true);
    }
  }
  compact();
}

void MVStore::gc(Version horizon) {
  for (VersionChain& chain : chains_) {
    // Keep the newest version <= horizon (still readable at the horizon)
    // and everything newer.
    const std::size_t pos = chain.upper_bound(horizon);
    if (pos <= 1) continue;
    chain.drop_front(pos - 1);
    versions_ -= pos - 1;
  }
  compact();
}

std::optional<Version> MVStore::gc_horizon(Version before, Version after, Version keep) {
  const Version boundary = after - after % kGcPeriod;  // newest multiple <= after
  if (boundary <= before) return std::nullopt;
  return boundary - keep;
}

std::vector<Key> MVStore::keys() const {
  std::vector<Key> out;
  out.reserve(key_count());
  for (const VersionChain& chain : chains_) out.push_back(chain.key_);
  if (image_) {
    for (const VersionChain& chain : image_->chains_) {
      if (index_.find(chain.key_) == nullptr) out.push_back(chain.key_);
    }
  }
  return out;
}

bool MVStore::borrows_image(const VersionChain& chain) const {
  if (chain.first_.version != 0) return false;
  const VersionChain* image = image_chain(chain.key_);
  if (image == nullptr) return false;
  const std::string_view bytes = image->front().value;
  return chain.first_.value.data() == bytes.data() && chain.first_.value.size() == bytes.size();
}

void MVStore::erase_chain(std::size_t id, bool to_image) {
  const Key k = chains_[id].key_;
  if (to_image) {
    index_.erase(k);
    --shadowed_;
  } else if (image_chain(k) != nullptr) {
    *index_.find(k) = kErased;  // absent, as in a plain store
  } else {
    index_.erase(k);
  }
  if (id + 1 != chains_.size()) {
    chains_[id] = std::move(chains_.back());
    *index_.find(chains_[id].key_) = static_cast<std::uint32_t>(id);
  }
  chains_.pop_back();
}

void MVStore::compact() {
  // A view of the image's bytes is not the own arena's: neither counted
  // nor copied.
  std::size_t live = 0;
  for (const VersionChain& chain : chains_) {
    for (const VersionRef& v : chain) live += v.value.size();
    if (borrows_image(chain)) live -= chain.first_.value.size();
  }
  if (arena_.used() == live) return;
  ValueArena fresh;
  fresh.reset(live);
  for (VersionChain& chain : chains_) {
    if (!borrows_image(chain)) chain.first_.value = fresh.append(chain.first_.value);
    for (VersionRef& v : chain.rest_) v.value = fresh.append(v.value);
  }
  arena_ = std::move(fresh);
}

void MVStore::encode(util::Writer& w) const {
  // Keys are serialized sorted so a checkpoint blob is a canonical function
  // of the store's contents — byte-identical across replicas regardless of
  // the order keys were inserted and erased in, and of which layer holds
  // them.
  std::vector<std::pair<Key, const VersionChain*>> order;
  order.reserve(key_count());
  for (const VersionChain& chain : chains_) order.emplace_back(chain.key_, &chain);
  if (image_) {
    for (const VersionChain& chain : image_->chains_) {
      if (index_.find(chain.key_) == nullptr) order.emplace_back(chain.key_, &chain);
    }
  }
  std::sort(order.begin(), order.end());
  w.varint(order.size());
  for (const auto& [k, chain] : order) {
    w.u64(k);
    w.varint(chain->size());
    for (const VersionRef& v : *chain) {
      w.i64(v.version);
      w.bytes(v.value);
    }
  }
}

void MVStore::install(util::Reader& r) {
  index_.clear();
  chains_.clear();
  arena_.reset();
  versions_ = 0;
  image_.reset();
  shadowed_ = 0;
  const std::uint64_t nkeys = r.varint();
  index_.reserve(nkeys);
  chains_.reserve(nkeys);
  for (std::uint64_t i = 0; i < nkeys; ++i) {
    const Key k = r.u64();
    const std::uint64_t nv = r.varint();
    for (std::uint64_t j = 0; j < nv; ++j) {
      const Version version = r.i64();
      put(k, r.view(), version);
    }
  }
}

}  // namespace sdur::storage
