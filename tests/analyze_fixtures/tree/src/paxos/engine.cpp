// Fixture: the Paxos value path. Under src/paxos/, on_phase2a, record_ack,
// decide and try_deliver are hot (once per accepted value, acknowledgement
// or decided instance). A Value is a refcounted slice, so taking or
// copying one is fine; a Bytes deep copy is not. on_phase1a is off the
// path: identical constructs there must stay silent.

namespace paxos {

void PaxosEngine::on_phase2a(Phase2A m, ProcessId from) {
  Bytes copy = m.raw;  // positive: container deep-copy
  log_->save_accepted(m.instance, m.ballot, std::move(m.value));
}

void PaxosEngine::decide(InstanceId inst, Value value) {  // negative: a Value is a slice
  Value kept = value;                                       // negative: a refcount bump
  auto buf = std::make_shared<Bytes>(kept.size());          // positive: hotpath-alloc
  undelivered_[inst] = std::move(kept);
}

void PaxosEngine::record_ack(InstanceId inst, Ballot b, std::uint32_t index) {
  if (index >= 64) {
    throw std::out_of_range("acceptor");  // positive: hotpath-throw
  }
}

void PaxosEngine::try_deliver() {
  const std::vector<Value> batch = decode_batch(undelivered_.begin()->second);  // negative: a call
  for (const Value& v : batch) deliver_(v);
}

void PaxosEngine::on_phase1a(const Phase1A& m, ProcessId from) {
  Bytes copy = m.raw;  // negative: not a hot function
  auto owned = std::make_shared<Bytes>(copy);
  (void)owned;
}

}  // namespace paxos
