#include "paxos/messages.h"

namespace sdur::paxos {

util::Bytes encode_batch(const std::vector<Value>& values) {
  util::Writer w;
  util::encode(w, values);
  return std::move(w).take();
}

std::vector<Value> decode_batch(const Value& batch) {
  util::Reader r(batch);
  return util::decode<std::vector<Value>>(r);
}

}  // namespace sdur::paxos
