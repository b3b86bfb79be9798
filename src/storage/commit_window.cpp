#include "storage/commit_window.h"

#include <algorithm>
#include <stdexcept>

namespace sdur::storage {

void CommitWindow::push(Version version, CommitRecord rec) {
  // A gap or an out-of-order push would break every version-ordered
  // structure here (the index, the bloom suffix list, the O(1) lookup by
  // version); a record below the base would be evicted history reappearing.
  if (empty() ? version < base_ : version != newest() + 1) {
    throw std::logic_error("CommitWindow::push: versions must be contiguous");
  }
  if (rec.writeset.is_bloom()) {
    throw std::invalid_argument("CommitWindow::push: writesets must be exact");
  }
  index_.insert(version, rec.readset, rec.writeset);
  records_.push_back(Entry{version, std::move(rec)});
}

void CommitWindow::evict_below(Version base) {
  if (base <= base_) return;
  base_ = base;
  while (!empty() && records_.front().version < base_) {
    const Entry& e = records_.front();
    index_.evict(e.version, e.rec.readset, e.rec.writeset);
    records_.pop_front();
  }
}

void CommitWindow::clear(Version base) {
  records_.clear();
  index_.clear();
  base_ = base;
}

std::size_t CommitWindow::lower_index(Version v) const {
  if (empty() || v <= oldest()) return 0;
  if (v > newest()) return records_.size();
  return static_cast<std::size_t>(v - oldest());  // contiguous: v sits right there
}

const CommitRecord* CommitWindow::find(Version version) const {
  const std::size_t i = lower_index(version);
  if (i == records_.size() || records_[i].version != version) return nullptr;
  return &records_[i].rec;
}

void CommitWindow::set_status(Version version, CommitStatus status) {
  records_[lower_index(version)].rec.status = status;
}

bool CommitWindow::conflicts(const util::KeySet& rs, const util::KeySet& ws, bool global,
                             Version st) const {
  const bool indexed = conflicts_indexed(rs, ws, global, st);
  // The index must reproduce the scan verdict bit for bit — same boolean
  // on every delivery, or replicas running different strategies would
  // diverge.
  SDUR_AUDIT_CHECK("storage", "index-scan-equivalence",
                   indexed == conflicts_scan(rs, ws, global, st),
                   "indexed certification verdict " << (indexed ? "conflict" : "clear")
                                                    << " diverges from window scan (st=" << st
                                                    << ", window [" << oldest() << ", "
                                                    << newest() << "])");
  return indexed;
}

bool CommitWindow::conflicts_scan(const util::KeySet& rs, const util::KeySet& ws, bool global,
                                  Version st) const {
  // ctest(t, t') (Algorithm 2, lines 46-47): t must not have read anything
  // a later-serialized transaction wrote; a global t must additionally not
  // write anything a later-serialized transaction read, so that
  // cross-partition delivery orders cannot matter (Section III-B).
  return !scan_after(st, [&](Version, const CommitRecord& r) {
    return !(rs.intersects(r.writeset) || (global && ws.intersects(r.readset)));
  });
}

bool CommitWindow::conflicts_indexed(const util::KeySet& rs, const util::KeySet& ws, bool global,
                                     Version st) const {
  if (empty() || st >= newest()) return false;
  // True iff some record after st is `hit`: the fallback for a bloom probe
  // set, which cannot drive key probes.
  const auto scan_hits = [&](auto hit) {
    return !scan_after(st, [&](Version, const CommitRecord& r) { return !hit(r); });
  };
  // Component A: rs vs the writesets. Writesets are exact (push), so the
  // key index holds every one of them.
  if (scans(rs) ? scan_hits([&](const CommitRecord& r) { return rs.intersects(r.writeset); })
                : index_.reads_conflict(rs, st)) {
    return true;
  }
  if (!global) return false;
  // Component B: ws vs the readsets (global transactions only): key probes,
  // then a scan of only the records whose readset is bloom-encoded.
  const auto reads_ws = [&](const CommitRecord& r) { return ws.intersects(r.readset); };
  if (scans(ws)) return scan_hits(reads_ws);
  if (index_.writes_conflict(ws, st)) return true;
  const std::deque<Version>& bloom = index_.bloom_read_versions();
  for (auto it = std::upper_bound(bloom.begin(), bloom.end(), st); it != bloom.end(); ++it) {
    if (reads_ws(at(*it))) return true;
  }
  return false;
}

}  // namespace sdur::storage
