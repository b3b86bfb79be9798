// Determinism and well-formedness pins for the trace subsystem (src/trace/).
//
//  1. ON/OFF golden-digest equivalence: a chaos run (loss, follower
//     crash/recover churn, checkpoints, reordering, globals) executed with
//     trace recording armed and disarmed must yield byte-identical replica
//     state, identical NetworkStats, event counts and end time — recording
//     only reads protocol state and writes host-side buffers. A second
//     armed run must additionally reproduce the exact record stream
//     (bit-reproducible traces).
//  2. Span invariants: per-track append timestamps are monotone, spans are
//     well-formed (t1 >= t0, ts covers the append), marks collapse to a
//     point, and every chain the breakdown attributes telescopes — the sum
//     of per-stage means equals the end-to-end mean.
//  3. Zero allocations at steady state: once the ring is armed, recording
//     past the wrap point performs no further heap allocations (counter
//     asserted), the acceptance bar of the subsystem.
//  4. The Chrome exporter writes parseable JSON with one named track per
//     registered track (structural checks here; a ctest entry runs
//     json.load on the bench's output).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "trace/export.h"
#include "trace/trace.h"
#include "workload/scenario.h"

namespace sdur::trace {
namespace {

/// Arms/disarms the process-wide tracer for one test scope and always
/// leaves it disarmed and empty, so a failing test cannot leak an armed
/// tracer (and its ring) into later tests.
class TraceGuard {
 public:
  explicit TraceGuard(bool on, std::size_t capacity = 1u << 16) {
    Tracer::instance().reset();
    Tracer::instance().set_ring_capacity(capacity);
    Tracer::instance().set_enabled(on);
  }
  ~TraceGuard() {
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;
};

TEST(TraceRing, WrapKeepsAppendOrderAndCounts) {
  TraceGuard guard(true, 8);
  auto& tr = Tracer::instance();
  const std::uint32_t track = tr.register_track(1, "t", -1);
  ASSERT_NE(track, kNoTrack);
  for (std::uint64_t i = 0; i < 20; ++i) {
    tr.record_mark(track, Point::kTxBegin, i, static_cast<sim::Time>(i), 0);
  }
  EXPECT_EQ(tr.records_appended(), 20u);
  EXPECT_EQ(tr.records_dropped(), 12u);
  const auto recs = tr.records();
  ASSERT_EQ(recs.size(), 8u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].id, 12 + i) << "oldest survivor first, append order";
  }
}

TEST(TraceRing, DisabledTracerRegistersAndRecordsNothing) {
  TraceGuard guard(false);
  auto& tr = Tracer::instance();
  EXPECT_EQ(tr.register_track(1, "t", -1), kNoTrack);
  tr.record_mark(kNoTrack, Point::kTxBegin, 1, 0, 0);
  tr.record_span(kNoTrack, Point::kConsensus, 1, 0, 5, 0, -1);
  EXPECT_EQ(tr.records_appended(), 0u);
  EXPECT_EQ(tr.track_count(), 0u);
  EXPECT_EQ(tr.heap_allocations(), 0u);
}

TEST(TraceRing, ZeroHeapAllocationsAtSteadyState) {
  TraceGuard guard(true, 256);
  auto& tr = Tracer::instance();
  const std::uint32_t track = tr.register_track(1, "hot", -1);
  // Drive past the wrap point so the ring is armed and recycling slots.
  for (std::uint64_t i = 0; i < 512; ++i) {
    tr.record_mark(track, Point::kTxDeliver, i, static_cast<sim::Time>(i), 0);
  }
  ASSERT_GT(tr.records_dropped(), 0u) << "steady state reached (ring wrapped)";
  const std::uint64_t allocs_before = tr.heap_allocations();
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    tr.record_mark(track, Point::kTxDeliver, i, static_cast<sim::Time>(i), i);
    tr.record_span(track, Point::kLaneWork, i, static_cast<sim::Time>(i),
                   static_cast<sim::Time>(i + 3), 0, static_cast<sim::Time>(i));
    tr.record_instant(track, Point::kCertIndexProbe, i, static_cast<sim::Time>(i), 0);
  }
  EXPECT_EQ(tr.heap_allocations(), allocs_before)
      << "recording a span at steady state must not allocate";
}

}  // namespace
}  // namespace sdur::trace

namespace sdur::workload {
namespace {

using trace::Tracer;
using trace::TraceGuard;

struct ChaosResult {
  std::uint64_t digest = 0;        // replica state, network accounting, events, clock
  sim::NetworkStats net;
  std::uint64_t committed = 0;
  std::uint64_t trace_digest = 0;  // digest of the full record stream
  std::uint64_t trace_records = 0;
};

/// The torture recipe (loss, follower churn, checkpoints, reordering, 30%
/// globals) with trace recording armed or disarmed.
ChaosResult run_chaos(bool traced) {
  TraceGuard guard(traced, 1u << 17);
  const ScenarioResult r = run_scenario(torture_recipe());

  ChaosResult out{r.digest, r.dep->network().stats(), r.committed};
  util::Writer tw;
  for (const trace::Record& rec : Tracer::instance().records()) {
    tw.i64(rec.ts);
    tw.i64(rec.t0);
    tw.i64(rec.t1);
    tw.u64(rec.id);
    tw.u64(rec.aux);
    tw.u64(rec.track);
    tw.u8(static_cast<std::uint8_t>(rec.point));
    tw.u8(static_cast<std::uint8_t>(rec.kind));
  }
  out.trace_digest = hash_of(tw);
  out.trace_records = Tracer::instance().records_appended();
  return out;
}

TEST(TraceEquiv, RecordingDoesNotChangeSimulation) {
  const ChaosResult traced = run_chaos(true);
  const ChaosResult untraced = run_chaos(false);
  const ChaosResult again = run_chaos(true);

  ASSERT_GT(traced.committed, 20u) << "the chaos run made real progress";

  // Armed vs disarmed: byte-identical replica state and identical
  // message/event accounting and clock — tracing never influences
  // simulated results.
  EXPECT_EQ(traced.digest, untraced.digest);
  EXPECT_TRUE(traced.net == untraced.net) << "NetworkStats diverged";
  EXPECT_EQ(traced.committed, untraced.committed);
  EXPECT_EQ(untraced.trace_records, 0u) << "disarmed runs record nothing";

  // Same seed, armed twice: the record stream itself is bit-reproducible.
  EXPECT_EQ(traced.digest, again.digest);
#if SDUR_TRACE
  EXPECT_GT(traced.trace_records, 0u);
#else
  EXPECT_EQ(traced.trace_records, 0u) << "instrumentation compiled out";
#endif
  EXPECT_EQ(traced.trace_records, again.trace_records);
  EXPECT_EQ(traced.trace_digest, again.trace_digest);
}

#if SDUR_TRACE

/// A clean traced run (no chaos) for structural checks: every invariant
/// below must hold for serial and P-DUR deployments alike.
void run_clean(PartitionId partitions, std::uint32_t cores, double global_fraction) {
  Scenario sc;
  sc.spec.partitions = partitions;
  sc.spec.server.pdur.cores = cores;
  sc.spec.seed = 5;
  sc.run = {.clients = 8, .warmup = sim::msec(400), .measure = sim::sec(2), .seed = 5};
  sc.micro = {.items_per_partition = 200, .global_fraction = global_fraction};
  sc.micro.cross_core_fraction = 0.2;  // read only on P-DUR replicas
  (void)run_scenario(sc);
}

TEST(TraceInvariants, SpansWellFormedAndTimestampsMonotonePerTrack) {
  TraceGuard guard(true, 1u << 18);
  run_clean(2, 1, 0.2);
  auto& tr = Tracer::instance();
  tr.set_enabled(false);

  const auto recs = tr.records();
  ASSERT_GT(recs.size(), 100u);
  EXPECT_EQ(tr.records_dropped(), 0u) << "ring sized for the whole run";
  std::vector<sim::Time> last_ts(tr.track_count(), sim::kNever * -1);
  std::vector<std::uint64_t> per_track(tr.track_count(), 0);
  for (const trace::Record& r : recs) {
    ASSERT_LT(r.track, tr.track_count());
    // Append timestamps are monotone per track (recording follows the
    // single-threaded simulated clock).
    EXPECT_GE(r.ts, last_ts[r.track]);
    last_ts[r.track] = r.ts;
    ++per_track[r.track];
    switch (r.kind) {
      case trace::Kind::kSpan:
        // Every span is a closed [t0, t1] interval: begin matches end.
        EXPECT_LE(r.t0, r.t1);
        EXPECT_LE(r.ts, r.t1) << "append happens before (or at) the span end";
        break;
      case trace::Kind::kMark:
      case trace::Kind::kInstant:
        EXPECT_EQ(r.t0, r.ts);
        EXPECT_EQ(r.t1, r.ts);
        break;
    }
    EXPECT_LT(static_cast<int>(r.point), static_cast<int>(trace::Point::kPointCount));
  }
  for (std::uint32_t t = 0; t < tr.track_count(); ++t) {
    EXPECT_EQ(per_track[t], tr.track(t).appended);
  }
}

TEST(TraceInvariants, BreakdownTelescopesToEndToEndMean) {
  TraceGuard guard(true, 1u << 18);
  run_clean(2, 1, 0.2);
  Tracer::instance().set_enabled(false);

  const trace::Breakdown b = trace::build_breakdown(Tracer::instance());
  ASSERT_GT(b.local.chains, 50u);
  ASSERT_GT(b.global.chains, 5u);
  for (const trace::Breakdown::Class* c : {&b.local, &b.global}) {
    const double e2e = c->e2e.mean();
    ASSERT_GT(e2e, 0.0);
    // The stages telescope between consecutive marks of the same chain set,
    // so the sums agree to floating-point rounding — far inside the 5%
    // acceptance bar.
    EXPECT_NEAR(c->sum_of_stage_means() / e2e, 1.0, 1e-3);
    for (std::size_t s = 0; s < trace::Breakdown::kStages; ++s) {
      EXPECT_EQ(c->stage[s].count(), c->chains) << trace::Breakdown::stage_name(s);
    }
  }
  for (std::size_t s = 0; s < trace::Breakdown::kStages; ++s) {
    SCOPED_TRACE(trace::Breakdown::stage_name(s));
    // Serial model: no home-core stage.
    if (std::string_view(trace::Breakdown::stage_name(s)) == "lane_exec") {
      EXPECT_EQ(b.local.stage[s].max(), 0);
    }
  }
}

TEST(TraceInvariants, PdurLanesRecordWorkAndCertInstants) {
  TraceGuard guard(true, 1u << 18);
  run_clean(1, 4, 0.0);
  auto& tr = Tracer::instance();
  tr.set_enabled(false);

  bool saw_lane_work = false, saw_cert_instant = false, saw_ready = false;
  std::uint32_t lane_tracks = 0;
  for (std::uint32_t t = 0; t < tr.track_count(); ++t) {
    if (tr.track(t).lane >= 0) ++lane_tracks;
  }
  EXPECT_GE(lane_tracks, 4u * 3u) << "one lane track per core per replica";
  for (const trace::Record& r : tr.records()) {
    if (r.point == trace::Point::kLaneWork) {
      saw_lane_work = true;
      EXPECT_GE(tr.track(r.track).lane, 0) << "lane work lands on a lane track";
    }
    if (r.point == trace::Point::kCertIndexProbe || r.point == trace::Point::kCertScanFallback) {
      saw_cert_instant = true;
    }
    if (r.point == trace::Point::kTxReady) saw_ready = true;
  }
  EXPECT_TRUE(saw_lane_work);
  EXPECT_TRUE(saw_cert_instant);
  EXPECT_TRUE(saw_ready) << "P-DUR core completion is marked";

  // Attribution: a cert instant shares its track, id and time with its
  // delivery's kTxCertified mark, and the delivery's lane work (recorded
  // at enqueue, the certification time) carries that delivery's id on a
  // lane of the same replica. Lane work with id 0 is a read.
  ASSERT_EQ(tr.records_dropped(), 0u) << "ring too small to check attribution";
  std::set<std::tuple<std::uint32_t, std::uint64_t, sim::Time>> certified;
  std::set<std::tuple<std::uint64_t, std::uint64_t, sim::Time>> certified_by_pid, lane_work;
  for (const trace::Record& r : tr.records()) {
    if (r.point == trace::Point::kTxCertified) {
      certified.emplace(r.track, r.id, r.ts);
      certified_by_pid.emplace(tr.track(r.track).pid, r.id, r.ts);
    }
    if (r.point == trace::Point::kLaneWork && r.id != 0) {
      lane_work.emplace(tr.track(r.track).pid, r.id, r.ts);
    }
  }
  std::size_t cert_instants = 0;
  for (const trace::Record& r : tr.records()) {
    if (r.point != trace::Point::kCertIndexProbe && r.point != trace::Point::kCertScanFallback) {
      continue;
    }
    ++cert_instants;
    EXPECT_TRUE(certified.contains({r.track, r.id, r.ts}))
        << "cert instant for tx " << r.id << " at " << r.ts << " has no kTxCertified mark";
  }
  EXPECT_GT(cert_instants, 50u);
  EXPECT_EQ(lane_work, certified_by_pid) << "every delivery's lane work carries its id";

  const trace::Breakdown b = trace::build_breakdown(tr);
  ASSERT_GT(b.local.chains, 50u);
  EXPECT_GT(b.local.sum_of_stage_means(), 0.0);
  EXPECT_NEAR(b.local.sum_of_stage_means() / b.local.e2e.mean(), 1.0, 1e-3);
}

TEST(TraceExport, ChromeJsonWritesNamedTracks) {
  TraceGuard guard(true, 1u << 16);
  auto& tr = Tracer::instance();
  const std::uint32_t a = tr.register_track(1, "server-p0-0", -1);
  const std::uint32_t lane = tr.register_track(1, "server-p0-0-core1", 1);
  tr.record_mark(a, trace::Point::kTxDeliver, 42, sim::msec(1), 0);
  tr.record_span(lane, trace::Point::kLaneWork, 42, sim::msec(1), sim::msec(2), 1, sim::msec(1));
  tr.record_instant(a, trace::Point::kCertIndexProbe, 42, sim::msec(1), 3);

  const std::string path = ::testing::TempDir() + "trace_export_test.json";
  ASSERT_TRUE(trace::write_chrome_trace(tr, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  // Structural checks; the latency_breakdown_smoke ctest entry runs a real
  // json.load over the bench's export.
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(content.find("\"server-p0-0-core1\""), std::string::npos);
  EXPECT_NE(content.find("\"tx.deliver\""), std::string::npos);
  EXPECT_NE(content.find("\"lane.work\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(content.find("\"ph\":\"B\""), std::string::npos)
      << "complete events only: every begin has its end by construction";

  EXPECT_FALSE(trace::write_chrome_trace(tr, "/nonexistent-dir/x.json"));
}

#endif  // SDUR_TRACE

}  // namespace
}  // namespace sdur::workload
