// Fixture: read-frontier hot path. Bodies under src/sdur/ whose name
// contains `frontier` are hot (the unresolved-writer probe runs once per
// served read); `serve_stable_read` does not match, so identical
// constructs there must stay silent.

namespace sdur {

Version Certifier::read_frontier(Key k) const {
  std::vector<Version> writers = unresolved_ws_;  // positive: container deep-copy
  auto* probe = new FrontierProbe(k);             // positive: hotpath-alloc
  if (writers.empty()) {
    throw std::logic_error("no");  // positive: hotpath-throw
  }
  return probe->oldest(writers) - 1;
}

Version Certifier::scan_frontier(Key k, std::deque<Version> pending) const {  // positive: by-value param
  auto owned = std::make_shared<FrontierProbe>(k);  // positive: hotpath-alloc
  const std::deque<Version>& ref = pending;         // negative: reference
  return owned->first(ref);
}

void Server::serve_stable_read(const DeferredRead& r) {
  // No `frontier` in the name: not hot, identical constructs stay silent.
  std::vector<Version> copy = r.versions;  // negative: not a hot function
  auto* scratch = new FrontierProbe(r.key);
  (void)copy;
  (void)scratch;
}

}  // namespace sdur
