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
// every simulated server, so each stored byte has one compact home:
//   - an index FlatTable<std::uint32_t> (storage/flat_table.h) maps a key
//     to its chain id — a 16 B slot, so growth rehashes small slots (and a
//     store holds fewer than 2^32 - 1 keys; put() throws past that);
//   - a dense std::vector of VersionChains, one per key, erased by
//     swap-with-last plus one index fix-up;
//   - a per-store, chunked, append-only value arena. A version is a
//     {Version, std::string_view} into it, the first one held in the chain
//     and only later ones spilled to a vector, so loading a key allocates
//     nothing of its own.
//
// LAYERS. Every replica of a partition starts from the same initial load,
// so a partition is loaded once, into one immutable image (a plain store
// holding only version-0 loads), and each replica's store is its own
// layer — the index, chains and arena above — over a shared_ptr to that
// image. Reads (get(), get_latest(), versions_of()) check the own layer
// first, then the image; a key's own chain, once it exists, is
// authoritative. Copy-on-write per key: the first put() or insert() of a
// key only the image holds creates its own chain, whose version 0 is a
// view of the image's bytes, never a copy. truncate_above() erases an own
// chain when all it keeps is that view, so a rollback to 0 falls back to
// the bare image; an own chain of an image key that truncation empties
// leaves an erased mark in the index, so the key stays absent as it would
// in a plain store. A store over an image answers every read, and
// encode()s, exactly as a plain store given the same loads and the same
// mutations; install() drops the image.
//
// Arena rule: bytes a version stops referencing (a same-version overwrite,
// a truncated or collected version) stay in the arena as garbage
// until the next gc() or truncate_above(), which then copy the live values
// into one fresh block sized to fit — after either, the arena holds exactly
// the live value bytes. Image bytes are never the own arena's: views of
// them are neither counted nor copied, and the shared_ptr keeps the
// image's arena alive for as long as any layer views it. install() starts
// from an empty arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/flat_table.h"
#include "util/bytes.h"

namespace sdur::storage {

using Key = std::uint64_t;
/// A snapshot-counter value; version 0 is "initial load".
using Version = std::int64_t;

/// A version as reads return it: owns its bytes.
struct VersionedValue {
  Version version = 0;
  std::string value;
};

/// A version as the store holds it: `value` views the store's arena (or
/// its image's) and is valid until the store's next mutation that may
/// compact it (gc(), truncate_above(), install()).
struct VersionRef {
  Version version = 0;
  std::string_view value;
};

/// Append-only byte storage in blocks that never move, so a view into it
/// stays valid until reset(). Blocks double from kMinBlock up to kMaxBlock;
/// a value longer than the next block gets a block of its own size.
class ValueArena {
 public:
  /// Copies `v` in and returns a view of the copy.
  std::string_view append(std::string_view v);
  /// Drops every block; starts the next one at `first_block` bytes.
  void reset(std::size_t first_block = 0);

  /// Bytes held by blocks (what the arena costs in memory).
  std::size_t capacity() const { return capacity_; }
  /// Bytes handed out by append() since the last reset().
  std::size_t used() const { return used_; }

 private:
  static constexpr std::size_t kMinBlock = std::size_t{4} << 10;
  static constexpr std::size_t kMaxBlock = std::size_t{1} << 20;

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cur_ = nullptr;
  std::size_t left_ = 0;
  std::size_t next_block_ = kMinBlock;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

/// A key's versions in ascending version order; never empty while in the
/// store. Indexable like a vector and iterable in version order.
class VersionChain {
 public:
  VersionChain(Key key, VersionRef first) : key_(key), first_(first) {}

  std::size_t size() const { return 1 + rest_.size(); }

  const VersionRef& operator[](std::size_t i) const { return i == 0 ? first_ : rest_[i - 1]; }
  const VersionRef& front() const { return first_; }
  const VersionRef& back() const { return rest_.empty() ? first_ : rest_.back(); }

  /// Read-only forward iteration in version order.
  class const_iterator {
   public:
    const_iterator(const VersionChain* chain, std::size_t i) : chain_(chain), i_(i) {}
    const VersionRef& operator*() const { return (*chain_)[i_]; }
    const VersionRef* operator->() const { return &(*chain_)[i_]; }
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
  const_iterator end() const { return const_iterator(this, size()); }

  /// Index of the first version > `snapshot` (== size() if none).
  std::size_t upper_bound(Version snapshot) const;

 private:
  friend class MVStore;

  VersionRef& last() { return rest_.empty() ? first_ : rest_.back(); }
  VersionRef& at(std::size_t i) { return i == 0 ? first_ : rest_[i - 1]; }
  /// Inserts `v` before version `i` (i < size()).
  void insert(std::size_t i, VersionRef v);
  /// Keeps the first `n` versions (1 <= n <= size()).
  void truncate(std::size_t n) { rest_.resize(n - 1); }
  /// Drops the first `n` versions (n < size()).
  void drop_front(std::size_t n);

  Key key_;
  VersionRef first_;
  std::vector<VersionRef> rest_;
};

class MVStore {
 public:
  /// A plain store: no image.
  MVStore() = default;
  /// An empty own layer over `image` (see LAYERS in the header comment).
  /// The image must be a plain store holding one version-0 load per key;
  /// throws std::invalid_argument otherwise. A null image is a plain store.
  explicit MVStore(std::shared_ptr<const MVStore> image);

  /// Most recent version of `k` with version <= snapshot.
  std::optional<VersionedValue> get(Key k, Version snapshot) const;

  /// Latest version of `k`.
  std::optional<VersionedValue> get_latest(Key k) const;

  /// Installs `value` for `k` at `version`. Versions per key must be
  /// non-decreasing (commits are applied in snapshot-counter order).
  void put(Key k, std::string_view value, Version version);

  /// Bulk load at version 0 (initial database population).
  void load(Key k, std::string_view value) { put(k, value, 0); }

  /// Places `value` for `k` at `version` below any newer versions of the
  /// key (a same-version write overwrites); put() when nothing newer
  /// exists. A speculated global's writes land here once its votes commit
  /// it, after later locals may already have written the key (DESIGN.md
  /// "Speculative global commit").
  void insert(Key k, std::string_view value, Version version);

  /// Always 0: speculation never writes into the store before its votes.
  /// perfbench/src/driver.cpp still calls it, and perfbench is kept
  /// unchanged.
  std::size_t speculative_count() const { return 0; }

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

  /// Keys and versions readable here, both layers' (an image key counts
  /// once, from the layer that answers for it, and not at all once its
  /// erased mark hides it).
  std::size_t key_count() const {
    return chains_.size() + (image_ ? image_->key_count() : 0) - shadowed_;
  }
  std::size_t version_count() const {
    return versions_ + (image_ ? image_->version_count() : 0) - shadowed_;
  }
  /// The own layer alone: its chains and their versions.
  std::size_t own_key_count() const { return chains_.size(); }
  std::size_t own_version_count() const { return versions_; }
  /// Bytes the own value arena holds (live values plus garbage awaiting
  /// the next gc(); see the arena rule in the header comment). The
  /// image's bytes are its own arena_bytes().
  std::size_t arena_bytes() const { return arena_.capacity(); }
  /// The shared initial image, or nullptr for a plain store.
  const MVStore* image() const { return image_.get(); }

  /// Serializes the full store, both layers merged in key order, into a
  /// checkpoint / replaces it from one (dropping the image).
  void encode(util::Writer& w) const;
  void install(util::Reader& r);

  /// All keys present in the store: the own layer's in chain order
  /// (insertion order, except that erasing a key moves the last-inserted
  /// one into its place), then the image-only ones in the image's. Every
  /// caller sorts (encode() does) or is order-insensitive.
  std::vector<Key> keys() const;

  /// All versions of a key in ascending version order (nullptr if absent;
  /// invalidated by the next mutation). Used by tests (e.g. to recover the
  /// per-key write order for the serializability checker).
  const VersionChain* versions_of(Key k) const {
    const std::uint32_t* id = index_.find(k);
    if (id != nullptr) return *id == kErased ? nullptr : &chains_[*id];
    return image_chain(k);
  }

 private:
  /// Index value of an image key whose own chain truncation emptied: the
  /// key is absent, not the image's.
  static constexpr std::uint32_t kErased = ~std::uint32_t{0};

  /// The image's chain of `k` (nullptr without an image or if absent).
  const VersionChain* image_chain(Key k) const {
    return image_ ? image_->versions_of(k) : nullptr;
  }
  /// True if `chain`'s first version is the image's version 0, viewed.
  bool borrows_image(const VersionChain& chain) const;
  /// Removes chain `id` (swap-with-last, then one index fix-up). An image
  /// key falls back to the image if `to_image`, else is marked kErased.
  void erase_chain(std::size_t id, bool to_image);
  /// Copies every live value into one fresh block if the arena holds any
  /// garbage, then frees the old blocks.
  void compact();

  std::shared_ptr<const MVStore> image_;
  FlatTable<std::uint32_t> index_;  // key -> position in chains_, or kErased
  std::vector<VersionChain> chains_;
  ValueArena arena_;
  std::size_t versions_ = 0;  // own layer's
  std::size_t shadowed_ = 0;  // image keys with an index entry here
};

}  // namespace sdur::storage
