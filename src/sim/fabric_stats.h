// Host-side (wall-clock) counters for the simulation fabric.
//
// These count *real* work done by the host while simulating — payload
// buffers deep-copied, closure allocations — not simulated quantities.
// They exist so bench/harness_perf can verify the zero-copy properties of
// the message fabric (e.g. broadcast fan-out performs zero per-peer payload
// copies) and track the cost trajectory across PRs.
//
// Counting never influences simulated behavior: results stay bit-identical
// whether the counters are compiled in or out. Release/audit builds can
// compile them away with -DSDUR_FABRIC_COUNTERS=0 (CMake option
// SDUR_FABRIC_COUNTERS=OFF).
#pragma once

#include "util/counters.h"

namespace sdur::sim {

#define SDUR_FABRIC_COUNTER_LIST(X)                                                   \
  X(payload_deep_copies)  /* non-empty payloads copied: buffer not shareable */       \
  X(payload_bytes_copied) /* bytes moved by those copies */                           \
  X(payload_shares)       /* payload copies served by bumping a refcount */           \
  X(fn_inline)            /* event-loop callables stored inline (no allocation) */    \
  X(fn_heap_allocs)       /* callables over the inline buffer: one allocation each */

struct FabricCounters {
  SDUR_COUNTERS(FabricCounters, SDUR_FABRIC_COUNTER_LIST)

  void reset() { *this = FabricCounters{}; }
};

/// Process-wide counters (the simulation is single-threaded).
inline FabricCounters& fabric_counters() {
  static FabricCounters c;
  return c;
}

}  // namespace sdur::sim

#ifndef SDUR_FABRIC_COUNTERS
#define SDUR_FABRIC_COUNTERS 1
#endif

#if SDUR_FABRIC_COUNTERS
/// Applies `expr` to the global FabricCounters, e.g.
/// SDUR_FABRIC_COUNT(payload_bytes_copied += n).
#define SDUR_FABRIC_COUNT(expr) ((void)(sdur::sim::fabric_counters().expr))
#else
#define SDUR_FABRIC_COUNT(expr) ((void)0)
#endif
