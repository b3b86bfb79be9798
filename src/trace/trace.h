// Deterministic transaction-lifecycle tracer.
//
// Records the full span chain of a transaction — client submit, commit
// handling, atomic broadcast, delivery-queue wait, certification (index
// probe vs. scan fallback), vote exchange for globals,
// apply, client reply — as POD records stamped with *simulated* time, so
// traces are bit-reproducible from the seed like everything else in the
// simulation.
//
// Storage is one preallocated ring of POD Records shared by all tracks
// (recycled-slab style, like sim::Simulator's callable slab): appending a
// record at steady state performs zero heap allocations; when the ring is
// full the oldest record is overwritten and `dropped` counts it. Tracks
// (one per replica, client, Paxos engine and P-DUR core lane) are pure
// metadata resolved at export time.
//
// Contract (same as SDUR_FABRIC_COUNTERS, see sim/fabric_stats.h):
// tracing NEVER influences simulated results — it only reads protocol
// state and writes to host-side buffers; simulated time, message bytes
// and event counts are bit-identical with tracing compiled out
// (-DSDUR_TRACE=0 / CMake SDUR_TRACE=OFF, every macro below becomes a
// no-op) or left disarmed at runtime. The CMake option is ON by default;
// recording is armed per run via Tracer::set_enabled(true) by the trace
// consumers (bench/latency_breakdown, tests/trace_test.cpp) so that
// untraced runs pay one branch per instrumentation point and no memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace sdur::trace {

/// Identity of an instrumentation point in the transaction lifecycle.
/// Marks are correlated into per-transaction chains by txid at export
/// time; consecutive chain marks telescope, so per-stage durations sum
/// exactly to the end-to-end latency (see export.h, Breakdown).
enum class Point : std::uint8_t {
  // Transaction chain marks, in lifecycle order.
  kTxBegin = 0,   // client: transaction id assigned
  kTxSubmit,      // client: commit request sent to the contact server
  kTxHandle,      // server: commit request accepted, projections broadcast
  kTxDeliver,     // replica: value adelivered, queued for certification
  kTxCertified,   // replica: certification verdict reached (aux: cert_aux)
  kTxReady,       // replica (P-DUR only): home-core work finished
  kTxCompleted,   // contact replica: outcome fixed, reply sent (aux: 1=commit)
  kTxOutcome,     // client: outcome received (aux: Outcome byte)
  // Spans.
  kConsensus,     // Paxos leader: instance proposed -> decided (id: instance)
  kVoteWait,      // contact replica: global certified -> all votes in
  kLaneWork,      // P-DUR core lane: busy on one transaction's work
  kLaneWait,      // P-DUR core lane: rendezvous idle before a barrier
  // Instants.
  kCertIndexProbe,    // certification served by the key index (aux: depth)
  kCertScanFallback,  // bloom sets forced the window scan (aux: depth)
  kVoteFlush,         // vote batcher flushed a queue (id: dest partition, aux: votes)
  kVotePiggyback,     // pending votes rode an outgoing message (aux: votes)
  kTxBypassed,        // local committed past pending entries (aux: entries leaped)
  kTxParked,          // local parked behind a pending conflict (aux: park bound)
  kTxSpeculated,      // global left the pending list before its votes (aux: 1=global)
  kTxSpecAbort,       // speculated global aborted by its votes (aux: version)
  kPointCount,
};

const char* to_string(Point p);

enum class Kind : std::uint8_t {
  kMark = 0,     // chain point: ts == t0 == t1
  kSpan = 1,     // interval [t0, t1]; ts is the append time
  kInstant = 2,  // point event: ts == t0 == t1
};

/// POD trace record, 48 bytes. All times are simulated microseconds.
struct Record {
  sim::Time ts;        // append time — monotone per track (and globally)
  sim::Time t0;        // span begin (== ts for marks/instants)
  sim::Time t1;        // span end (== ts for marks/instants; may be > ts
                       //           for spans recorded at enqueue time)
  std::uint64_t id;    // transaction id, Paxos instance, or 0
  std::uint64_t aux;   // point-specific payload (see cert_aux below)
  std::uint32_t track;
  Point point = Point::kPointCount;
  Kind kind = Kind::kMark;
  std::uint16_t pad = 0;
};
static_assert(sizeof(Record) == 48, "Record is the ring's slab unit");

/// aux payload of kTxCertified marks: the verdict, the transaction class
/// and the simulated cost charged for the delivery's certification work
/// (what the export-time breakdown splits queue-wait from service time
/// with). Layout: bit 0 = committed, bit 1 = global, bits [2, 64) = cost.
inline std::uint64_t cert_aux(bool global, bool committed, sim::Time cost) {
  return (committed ? 1ULL : 0ULL) | (global ? 2ULL : 0ULL)
         | (static_cast<std::uint64_t>(cost) << 2);
}
inline bool aux_committed(std::uint64_t aux) { return (aux & 1ULL) != 0; }
inline bool aux_global(std::uint64_t aux) { return (aux & 2ULL) != 0; }
inline sim::Time aux_cost(std::uint64_t aux) { return static_cast<sim::Time>(aux >> 2); }

/// Sentinel: "no track". Records addressed to it are dropped.
inline constexpr std::uint32_t kNoTrack = 0xFFFFFFFFu;

/// Process-wide tracer (the simulation is single-threaded). Hot-path
/// methods (record_*) are allocation-free at steady state; registration,
/// ring arming and export allocate on the host side only.
class Tracer {
 public:
  struct Track {
    std::uint64_t pid = 0;     // owning simulated process
    std::int32_t lane = -1;    // P-DUR core lane, or -1
    std::string name;          // e.g. "server-p0-1", "client-13", "paxos-2"
    std::uint64_t appended = 0;
  };

  static Tracer& instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Ring capacity (records) used when the ring is next armed. Takes
  /// effect on the first record after a reset() (the ring is armed
  /// lazily, so an idle tracer holds no storage).
  void set_ring_capacity(std::size_t records);
  std::size_t ring_capacity() const { return capacity_; }

  /// Registers a named track and returns its id, or kNoTrack while the
  /// tracer is disabled (so dormant deployments register nothing and the
  /// tracer holds no per-process state for untraced runs).
  std::uint32_t register_track(std::uint64_t pid, const std::string& name,
                               std::int32_t lane = -1);

  // --- Hot path (zero allocations at steady state) ------------------------

  void record_mark(std::uint32_t track, Point p, std::uint64_t id, sim::Time t,
                   std::uint64_t aux = 0) {
    if (!enabled_ || track == kNoTrack) return;
    append(Record{t, t, t, id, aux, track, p, Kind::kMark, 0});
  }

  /// Records span [t0, t1]; `ts` is the append time (defaults to t1 —
  /// pass the current time explicitly for spans recorded at enqueue time
  /// whose interval lies in the future, keeping ts monotone per track).
  void record_span(std::uint32_t track, Point p, std::uint64_t id, sim::Time t0,
                   sim::Time t1, std::uint64_t aux = 0, sim::Time ts = -1) {
    if (!enabled_ || track == kNoTrack) return;
    append(Record{ts < 0 ? t1 : ts, t0, t1, id, aux, track, p, Kind::kSpan, 0});
  }

  void record_instant(std::uint32_t track, Point p, std::uint64_t id, sim::Time t,
                      std::uint64_t aux = 0) {
    if (!enabled_ || track == kNoTrack) return;
    append(Record{t, t, t, id, aux, track, p, Kind::kInstant, 0});
  }

  // --- Introspection / export ----------------------------------------------

  std::size_t track_count() const { return tracks_.size(); }
  const Track& track(std::uint32_t id) const { return tracks_[id]; }

  /// All live records in append order (oldest survivor first). Copies —
  /// export-time only.
  std::vector<Record> records() const;

  std::uint64_t records_appended() const { return appended_; }
  std::uint64_t records_dropped() const { return dropped_; }
  /// Heap allocations the tracer performed (track registration, ring
  /// arming). Flat at steady state: the zero-allocation-per-span
  /// acceptance bar is asserted against this counter.
  std::uint64_t heap_allocations() const { return heap_allocations_; }

  /// Drops every track and record and disarms the ring.
  void reset();
  /// Keeps registered tracks, clears the ring and counters.
  void clear_records();

 private:
  Tracer() = default;

  void append(const Record& r);  // arms the ring on first use
  void arm_ring();

  bool enabled_ = false;
  std::size_t capacity_ = 1u << 16;
  std::vector<Record> ring_;  // armed to capacity_; wraps, overwriting oldest
  std::size_t head_ = 0;      // next write position
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t heap_allocations_ = 0;
  std::vector<Track> tracks_;
};

}  // namespace sdur::trace

#ifndef SDUR_TRACE
#define SDUR_TRACE 1
#endif

#if SDUR_TRACE
/// Registers a track; yields kNoTrack in no-op builds or disabled runs.
#define SDUR_TRACE_REGISTER(pid, name_, lane) \
  ::sdur::trace::Tracer::instance().register_track((pid), (name_), (lane))
#define SDUR_TRACE_MARK(track, point, id_, t, aux) \
  ::sdur::trace::Tracer::instance().record_mark((track), (point), (id_), (t), (aux))
#define SDUR_TRACE_SPAN(track, point, id_, t0, t1, aux, ts) \
  ::sdur::trace::Tracer::instance().record_span((track), (point), (id_), (t0), (t1), (aux), (ts))
#define SDUR_TRACE_INSTANT(track, point, id_, t, aux) \
  ::sdur::trace::Tracer::instance().record_instant((track), (point), (id_), (t), (aux))
/// Compiles `...` in traced builds only (for instrumentation that needs
/// locals, e.g. reconstructing a lane's reservation window).
#define SDUR_TRACE_STMT(...) __VA_ARGS__
#else
#define SDUR_TRACE_REGISTER(pid, name_, lane) (::sdur::trace::kNoTrack)
#define SDUR_TRACE_MARK(track, point, id_, t, aux) ((void)0)
#define SDUR_TRACE_SPAN(track, point, id_, t0, t1, aux, ts) ((void)0)
#define SDUR_TRACE_INSTANT(track, point, id_, t, aux) ((void)0)
#define SDUR_TRACE_STMT(...)
#endif
