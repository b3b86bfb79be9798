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
#include <string>
#include <string_view>
#include <vector>

#include "trace/export.h"
#include "trace/trace.h"
#include "util/hash.h"
#include "workload/driver.h"
#include "workload/microbench.h"

namespace {

std::uint64_t digest_writer(const sdur::util::Writer& w) {
  const sdur::util::Bytes& b = w.data();
  return sdur::util::fnv1a(
      std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
}

}  // namespace

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
  std::uint64_t state_digest = 0;  // replica state: sc/certified/dc + store
  sim::NetworkStats net;
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::uint64_t committed = 0;
  std::uint64_t trace_digest = 0;  // digest of the full record stream
  std::uint64_t trace_records = 0;
};

/// The fabric_equiv chaos recipe (loss, follower churn, checkpoints,
/// reordering, 30% globals) with trace recording armed or disarmed.
ChaosResult run_chaos(bool traced) {
  TraceGuard guard(traced, 1u << 17);

  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = MicroWorkload::make_partitioning(2, 60);
  spec.log_write_latency = sim::usec(300);
  spec.server.techniques.reorder_threshold = 48;
  spec.server.checkpoint_interval = sim::msec(600);
  spec.server.missing_vote_timeout = sim::msec(1500);
  spec.seed = 31;
  spec.client.read_retry_interval = sim::msec(300);
  spec.client.commit_retry_interval = sim::msec(800);
  Deployment dep(spec);
  dep.network().set_loss_rate(0.03);

  RunConfig cfg;
  cfg.clients = 8;
  cfg.seed = 31;
  cfg.warmup = sim::msec(400);
  cfg.measure = sim::sec(2);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = 60;
  mc.global_fraction = 0.3;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);

  util::Rng chaos(7);
  for (sim::Time t = sim::sec(1); t < stop_at; t += sim::msec(700)) {
    const PartitionId p = static_cast<PartitionId>(chaos.below(2));
    const std::uint32_t replica = 1 + static_cast<std::uint32_t>(chaos.below(2));
    dep.simulator().schedule_at(t, [&dep, p, replica] { dep.server(p, replica).crash(); });
    dep.simulator().schedule_at(t + sim::msec(450),
                                [&dep, p, replica] { dep.server(p, replica).recover(); });
  }

  const RunResult r = run_experiment(dep, wl, cfg);

  dep.network().set_loss_rate(0);
  for (Server* s : dep.servers()) s->recover();
  dep.run_until(dep.simulator().now() + sim::sec(10));

  ChaosResult out;
  util::Writer w;
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    for (std::uint32_t rep = 0; rep < dep.replica_count(); ++rep) {
      Server& s = dep.server(p, rep);
      w.i64(s.sc());
      w.i64(s.certified());
      w.u64(s.dc());
      s.store().encode(w);
    }
  }
  out.state_digest = digest_writer(w);
  out.net = dep.network().stats();
  out.events = dep.simulator().events_processed();
  out.end_time = dep.simulator().now();
  for (const auto& [cls, st] : r.classes) out.committed += st.committed;

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
  out.trace_digest = digest_writer(tw);
  out.trace_records = Tracer::instance().records_appended();
  return out;
}

TEST(TraceEquiv, RecordingDoesNotChangeSimulation) {
  const ChaosResult traced = run_chaos(true);
  const ChaosResult untraced = run_chaos(false);
  const ChaosResult again = run_chaos(true);

  ASSERT_GT(traced.committed, 20u) << "the chaos run made real progress";

  // Armed vs disarmed: byte-identical replica state and identical
  // message/event accounting — tracing never influences simulated results.
  EXPECT_EQ(traced.state_digest, untraced.state_digest);
  EXPECT_TRUE(traced.net == untraced.net) << "NetworkStats diverged";
  EXPECT_EQ(traced.events, untraced.events);
  EXPECT_EQ(traced.end_time, untraced.end_time);
  EXPECT_EQ(traced.committed, untraced.committed);
  EXPECT_EQ(untraced.trace_records, 0u) << "disarmed runs record nothing";

  // Same seed, armed twice: the record stream itself is bit-reproducible.
  EXPECT_EQ(traced.state_digest, again.state_digest);
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
  DeploymentSpec spec;
  spec.partitions = partitions;
  spec.partitioning = MicroWorkload::make_partitioning(partitions, 200);
  spec.server.pdur.cores = cores;
  spec.seed = 5;
  Deployment dep(spec);

  RunConfig cfg;
  cfg.clients = 8;
  cfg.seed = 5;
  cfg.warmup = sim::msec(400);
  cfg.measure = sim::sec(2);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = 200;
  mc.global_fraction = global_fraction;
  mc.cores = cores;
  mc.cross_core_fraction = cores > 1 ? 0.2 : 0.0;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);
  (void)run_experiment(dep, wl, cfg);
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
