#include "sdur/transaction.h"

namespace sdur {

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kCommit:
      return "commit";
    case Outcome::kAbort:
      return "abort";
    default:
      return "unknown";
  }
}

Version Transaction::snapshot_of(PartitionId p) const {
  for (const auto& [part, v] : snapshots) {
    if (part == p) return v;
  }
  return kNoSnapshot;
}

void Transaction::set_snapshot(PartitionId p, Version v) {
  for (auto& [part, existing] : snapshots) {
    if (part == p) {
      existing = v;
      return;
    }
  }
  snapshots.emplace_back(p, v);
}

util::Bytes PartTx::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  if (kind == Kind::kTick) return std::move(w).take();
  if (kind == Kind::kSetThreshold) {
    w.u32(threshold);
    return std::move(w).take();
  }
  w.u64(id);
  if (kind == Kind::kAbortRequest) {
    util::encode(w, involved);
    return std::move(w).take();
  }
  w.u32(client);
  w.u32(contact);
  util::encode(w, involved);
  w.i64(snapshot);
  readset.encode(w);
  write_keys.encode(w);
  util::encode(w, writes);
  return std::move(w).take();
}

PartTx PartTx::decode(std::span<const std::uint8_t> value) {
  util::Reader r(value.data(), value.size());
  PartTx t;
  t.kind = static_cast<Kind>(r.u8());
  if (t.kind == Kind::kTick) return t;
  if (t.kind == Kind::kSetThreshold) {
    t.threshold = r.u32();
    return t;
  }
  t.id = r.u64();
  if (t.kind == Kind::kAbortRequest) {
    t.involved = util::decode<std::vector<PartitionId>>(r);
    return t;
  }
  t.client = r.u32();
  t.contact = r.u32();
  t.involved = util::decode<std::vector<PartitionId>>(r);
  t.snapshot = r.i64();
  t.readset = util::KeySet::decode(r);
  t.write_keys = util::KeySet::decode(r);
  t.writes = util::decode<std::vector<WriteOp>>(r);
  return t;
}

PartTx PartTx::make_tick() {
  PartTx t;
  t.kind = Kind::kTick;
  return t;
}

PartTx PartTx::make_set_threshold(std::uint32_t k) {
  PartTx t;
  t.kind = Kind::kSetThreshold;
  t.threshold = k;
  return t;
}

PartTx PartTx::make_abort_request(TxId id, std::vector<PartitionId> involved) {
  PartTx t;
  t.kind = Kind::kAbortRequest;
  t.id = id;
  t.involved = std::move(involved);
  return t;
}

}  // namespace sdur
