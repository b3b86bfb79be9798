// P-DUR intra-replica executor: schedules the certification/execution work
// of delivered transactions onto a replica's simulated cores.
//
// Single-core transactions (all keys homed on one core) take the fast
// path: the work queues on that core alone, so K cores drain K disjoint
// streams concurrently — this is where P-DUR's near-linear local
// throughput scaling comes from. Transactions spanning cores pay the
// deterministic cross-core vote/barrier: every involved core rendezvouses
// (the earliest ones idle until the last arrives), the sync surcharge is
// added, and all involved cores stay busy until the work completes —
// graceful degradation, mirroring the P-DUR paper's worker threads
// blocking on a multi-partition transaction.
//
// The executor only models *when* effects become visible; the decision
// logic itself (certification) stays a pure function of the delivered
// sequence, evaluated in delivery order by the dispatcher.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pdur/config.h"
#include "pdur/core_partitioner.h"
#include "sim/process.h"
#include "trace/trace.h"

namespace sdur::pdur {

class Executor {
 public:
  Executor(sim::Process& proc, const Config& cfg) : proc_(proc), part_(cfg.cores) {
    SDUR_TRACE_STMT({
      if (trace::Tracer::instance().enabled()) {
        lane_tracks_.reserve(part_.cores());
        for (CoreId c = 0; c < part_.cores(); ++c) {
          lane_tracks_.push_back(SDUR_TRACE_REGISTER(
              proc_.id(), proc_.name() + "-core" + std::to_string(c),
              static_cast<std::int32_t>(c)));
        }
      }
    });
  }

  /// Schedules `work_cost` of certification/execution for transaction
  /// `txid` homed on `cores`; `done` runs (epoch/crash-guarded) when every
  /// involved core has finished. Cross-core transactions additionally pay
  /// kCrossCoreSyncCost under barrier semantics.
  void run(std::uint64_t txid, const std::vector<CoreId>& cores, sim::Time work_cost,
           sim::UniqueFn done) {
    if (cores.size() > 1) {
      trace_lane_spans(txid, cores.data(), cores.size(), work_cost + kCrossCoreSyncCost);
      proc_.enqueue_work_multi(cores, work_cost + kCrossCoreSyncCost, std::move(done));
    } else {
      const CoreId c = cores.empty() ? 0 : cores.front();
      trace_lane_spans(txid, &c, 1, work_cost);
      proc_.enqueue_work_on(c, work_cost, std::move(done));
    }
  }

  /// Schedules a read on the owning core of `key`.
  void run_read(std::uint64_t key, sim::UniqueFn done) {
    const CoreId c = part_.core_of(key);
    SDUR_TRACE_STMT({
      if (c < lane_tracks_.size()) {
        const sim::Time start = std::max(proc_.now(), proc_.core_free_at(c));
        trace::Tracer::instance().record_span(lane_tracks_[c], trace::Point::kLaneWork, 0,
                                              start, start + kReadCost, key, proc_.now());
      }
    });
    proc_.enqueue_work_on(c, kReadCost, std::move(done));
  }

 private:
  /// Mirrors sim::Process's reservation math to record, at enqueue time,
  /// when each involved lane will rendezvous (kLaneWait) and run
  /// (kLaneWork). Purely observational: the process performs the identical
  /// computation when the work is enqueued right after.
  void trace_lane_spans(std::uint64_t txid, const CoreId* cores, std::size_t n, sim::Time cost) {
#if SDUR_TRACE
    if (lane_tracks_.empty()) return;
    auto& tracer = trace::Tracer::instance();
    if (!tracer.enabled()) return;
    const sim::Time t_now = proc_.now();
    sim::Time start = t_now;
    for (std::size_t i = 0; i < n; ++i) start = std::max(start, proc_.core_free_at(cores[i]));
    for (std::size_t i = 0; i < n; ++i) {
      const CoreId c = cores[i];
      if (c >= lane_tracks_.size()) continue;
      const sim::Time free_c = std::max(t_now, proc_.core_free_at(c));
      if (free_c < start) {  // barrier: this lane idles until the last arrives
        tracer.record_span(lane_tracks_[c], trace::Point::kLaneWait, txid, free_c, start, n,
                           t_now);
      }
      tracer.record_span(lane_tracks_[c], trace::Point::kLaneWork, txid, start, start + cost, n,
                         t_now);
    }
#else
    (void)txid;
    (void)cores;
    (void)n;
    (void)cost;
#endif
  }

  sim::Process& proc_;
  CorePartitioner part_;
  /// Per-core lane trace tracks (empty in untraced runs).
  std::vector<std::uint32_t> lane_tracks_;
};

}  // namespace sdur::pdur
