// Fixture: speculative-commit hot path. Bodies starting with
// `speculate`/`finalize`/`rollback` under src/sdur/ and src/storage/
// are hot (they run per speculated global / per vote resolution);
// `spec_floor_report` matches none of the patterns, so identical
// constructs there must stay silent.

namespace storage {

std::size_t MVStore::rollback(Version version) {
  KeySet doomed = spec_log_.keys;  // positive: container deep-copy
  auto* undo = new UndoRec();      // positive: hotpath-alloc
  if (doomed.empty()) {
    throw std::logic_error("no");  // positive: hotpath-throw
  }
  return erase(version, doomed, undo);
}

void MVStore::finalize_spec(Version v, KeySet touched) {  // positive: by-value param
  auto scratch = std::make_unique<UndoRec>();  // positive: hotpath-alloc
  promote(v, touched, scratch.get());
}

bool MVStore::speculate_slot(Version v) {
  KeySet probe = spec_log_.keys;  // positive: container deep-copy
  return mark(v, probe);
}

void MVStore::spec_floor_report(Version floor) const {
  // Matches no hot pattern (like an audit helper that throws by
  // contract and is deliberately not hot): identical constructs must
  // stay silent.
  KeySet copy = spec_log_.keys;  // negative: not a hot function
  auto* scratch = new UndoRec();
  (void)floor;
  (void)copy;
  (void)scratch;
}

}  // namespace storage
