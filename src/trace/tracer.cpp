#include "trace/trace.h"

namespace sdur::trace {

const char* to_string(Point p) {
  switch (p) {
    case Point::kTxBegin: return "tx.begin";
    case Point::kTxSubmit: return "tx.submit";
    case Point::kTxHandle: return "tx.handle";
    case Point::kTxDeliver: return "tx.deliver";
    case Point::kTxCertified: return "tx.certified";
    case Point::kTxReady: return "tx.ready";
    case Point::kTxCompleted: return "tx.completed";
    case Point::kTxOutcome: return "tx.outcome";
    case Point::kConsensus: return "paxos.consensus";
    case Point::kVoteWait: return "vote.wait";
    case Point::kLaneWork: return "lane.work";
    case Point::kLaneWait: return "lane.wait";
    case Point::kCertIndexProbe: return "cert.index_probe";
    case Point::kCertScanFallback: return "cert.scan_fallback";
    case Point::kVoteFlush: return "vote.flush";
    case Point::kVotePiggyback: return "vote.piggyback";
    case Point::kTxBypassed: return "tx.bypassed";
    case Point::kTxParked: return "tx.parked";
    case Point::kTxSpeculated: return "tx.speculated";
    case Point::kTxSpecAbort: return "tx.spec_abort";
    case Point::kPointCount: break;
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::set_ring_capacity(std::size_t records) {
  capacity_ = records == 0 ? 1 : records;
}

std::uint32_t Tracer::register_track(std::uint64_t pid, const std::string& name,
                                     std::int32_t lane) {
  if (!enabled_) return kNoTrack;
  ++heap_allocations_;  // track metadata (vector growth + name string)
  Track t;
  t.pid = pid;
  t.lane = lane;
  t.name = name;
  tracks_.push_back(std::move(t));
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void Tracer::arm_ring() {
  ++heap_allocations_;  // the one steady-state allocation: the record slab
  ring_.resize(capacity_);
  head_ = 0;
}

void Tracer::append(const Record& r) {
  if (ring_.empty()) arm_ring();
  if (appended_ >= ring_.size()) ++dropped_;  // overwriting the oldest
  ring_[head_] = r;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++appended_;
  if (r.track < tracks_.size()) ++tracks_[r.track].appended;
}

std::vector<Record> Tracer::records() const {
  std::vector<Record> out;
  if (appended_ == 0) return out;
  if (appended_ <= ring_.size()) {
    out.assign(ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(appended_));
    return out;
  }
  // The ring wrapped: oldest survivor sits at head_ (the next overwrite
  // target), append order is [head_, end) then [0, head_).
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void Tracer::reset() {
  ring_.clear();
  ring_.shrink_to_fit();
  tracks_.clear();
  head_ = 0;
  appended_ = 0;
  dropped_ = 0;
  heap_allocations_ = 0;
}

void Tracer::clear_records() {
  head_ = 0;
  appended_ = 0;
  dropped_ = 0;
  for (Track& t : tracks_) t.appended = 0;
}

}  // namespace sdur::trace
