// Fixture: completion-loop hot path. `drain*`, `head_stall*` and
// `record_vote*` bodies are hot (they run after every delivery and every
// recorded vote); `complete` matches none of the patterns, so identical
// constructs there must stay silent.

namespace sdur {

void Server::drain_pending() {
  KeySet doomed = pending_.write_keys;  // positive: container deep-copy
  auto* round = new Round();            // positive: hotpath-alloc
  if (doomed.empty()) {
    throw std::logic_error("no");       // positive: hotpath-throw
  }
  finalize(doomed, round);
}

Server::Stall Server::head_stall(KeySet head) const {  // positive: by-value param
  const KeySet& ref = head;                            // negative: reference
  return stall_of(ref);
}

void Server::record_vote(TxId id, Outcome v) {
  auto owned = std::make_unique<Round>();  // positive: hotpath-alloc
  settle(id, v, owned.get());
}

void Server::complete(const Entry& e) {
  // Not hot: identical constructs must stay silent.
  KeySet copy = e.write_keys;
  auto* scratch = new Round();
  (void)copy;
  (void)scratch;
}

}  // namespace sdur
