// sdur_perfbench: runs one workload for one seed and prints its metrics.
//
//   sdur_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--rate <tps>]
//
// The untraced run repeats on fresh deployments for --seconds of host time:
// one gated warm-up run, then at least kMinReps timed ones. wall_s is the
// fastest timed repetition; setup_s is the fastest of their set-ups and of
// set-up-only repetitions, kMinSetups in all; simulated metrics come
// from the warm-up run, and every repetition must simulate the same
// history. One traced run of the same seed follows and must match it
// exactly. --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer metrics (trace stages, counters and the host-cost probes).
// Every run passes the correctness gate or exits 1 without metrics.
// --rate overrides the offered rate (saturation search).
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a {"stamp": {...}} line naming the build and the host.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "driver.h"
#include "gen.h"
#include "metrics.h"
#include "paxos/messages.h"
#include "probes.h"
#include "sdur/messages.h"
#include "sim/fabric_stats.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

namespace sim = sdur::sim;
using Clock = std::chrono::steady_clock;
using sdur::Outcome;

constexpr std::size_t kMinReps = 3;
/// setup_s is the fastest of at least this many set-ups: each timed
/// repetition's, then set-up-only ones.
constexpr std::size_t kMinSetups = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double rate = 0;  // 0 = the workload's own rate
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--rate") {
      a.rate = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && (a.trace == 0 || a.trace == 1);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Metrics in print order.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", items_[i].name.c_str(), items_[i].value, items_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void print_table() const {
    for (const Item& m : items_) {
      std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Per-class latency samples (due time to outcome, committed only) and
/// outcome counts of one run.
struct Summary {
  std::vector<std::int64_t> latency[kClasses];  // sorted, microseconds
  OutcomeCounts outcomes;
  std::vector<std::int64_t> p0_commits;  // commit times of partition-0-homed arrivals
  std::vector<std::int64_t> queue_us;    // due time to client pickup
  std::uint64_t updates = 0, globals = 0;
  std::uint64_t committed_writes = 0;    // keys written by committed updates
};

Summary summarize(const WorkloadSpec& w, const std::vector<Arrival>& arrivals,
                  const RunOutput& r) {
  Summary s;
  s.outcomes.attempted = arrivals.size();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const RunOutput::Tx& t = r.txs[i];
    if (a.cls != TxClass::kReadOnly) ++s.updates;
    if (a.cls == TxClass::kGlobal) ++s.globals;
    if (t.begin < 0) {
      ++s.outcomes.unstarted;
      continue;
    }
    s.queue_us.push_back(t.begin - a.due);
    if (t.outcome == Outcome::kAbort) {
      ++s.outcomes.aborted;
    } else if (t.outcome != Outcome::kCommit) {
      ++s.outcomes.unknown;
    } else {
      ++s.outcomes.committed;
      const std::int64_t latency = t.done - a.due;
      s.latency[static_cast<std::size_t>(a.cls)].push_back(latency);
      if (latency > w.slo(a.cls)) ++s.outcomes.late;
      if (a.home == 0) s.p0_commits.push_back(t.done);
      if (a.cls != TxClass::kReadOnly) s.committed_writes += a.keys.size();
    }
  }
  for (auto& v : s.latency) std::sort(v.begin(), v.end());
  std::sort(s.p0_commits.begin(), s.p0_commits.end());
  std::sort(s.queue_us.begin(), s.queue_us.end());
  return s;
}

double ms(std::int64_t us) { return static_cast<double>(us) / 1000.0; }

double p50_ms(const std::vector<std::int64_t>& sorted) { return ms(percentile(sorted, 50)); }
double tail_ms(const std::vector<std::int64_t>& sorted) {
  return ms(percentile(sorted, tail_percentile(sorted.size())));
}
std::vector<std::int64_t> sorted(std::vector<std::int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

Time outage_from(const WorkloadSpec& w, const RunOutput& r) {
  return r.fault_time >= 0 ? r.fault_time : w.settle + w.fault_at;
}

void end_to_end(const WorkloadSpec& w, const Summary& s, double setup_s, double peak_rss_mb,
                Metrics& m) {
  const auto& ro = s.latency[static_cast<std::size_t>(TxClass::kReadOnly)];
  const auto& local = s.latency[static_cast<std::size_t>(TxClass::kLocal)];
  const auto& global = s.latency[static_cast<std::size_t>(TxClass::kGlobal)];
  m.add("local_p50_ms", p50_ms(local), "ms");
  m.add("local_p99_ms", tail_ms(local), "ms");
  m.add("global_p50_ms", p50_ms(global), "ms");
  m.add("global_p99_ms", tail_ms(global), "ms");
  m.add("ro_p50_ms", p50_ms(ro), "ms");
  m.add("ro_p99_ms", tail_ms(ro), "ms");
  m.add("commit_tps",
        static_cast<double>(s.outcomes.committed) / (static_cast<double>(w.window) / 1e6), "1/s");
  m.add("commit_ratio", 1.0 - fail_ratio(s.outcomes), "ratio");
  m.add("slo_ok_ratio", 1.0 - slo_miss_ratio(s.outcomes), "ratio");
  m.add("setup_s", setup_s, "s");
  m.add("peak_rss_mb", peak_rss_mb, "MB");
}

void per_layer(const WorkloadSpec& w, const std::vector<Arrival>& arrivals, const Summary& s,
               const RunOutput& first, const RunOutput& traced, double wall_s, Metrics& m) {
  const WindowCounters& c = first.window;
  const auto& sv = c.servers;
  const double txns = static_cast<double>(s.outcomes.attempted);
  const double window_s = static_cast<double>(w.window) / 1e6;

  m.add("fail_ratio", fail_ratio(s.outcomes), "ratio");
  m.add("slo_miss_ratio", slo_miss_ratio(s.outcomes), "ratio");

  // gen
  m.add("gen.queue_ms", tail_ms(s.queue_us), "ms");
  m.add("gen.backlog", first.max_backlog, "count");

  // sdur client API
  const auto read_us = sorted(first.read_us);
  const auto commit_us = sorted(first.commit_us);
  const auto snapshot_us = sorted(first.snapshot_us);
  m.add("sdur.client.read_ms", p50_ms(read_us), "ms");
  m.add("sdur.client.read_p99_ms", tail_ms(read_us), "ms");
  m.add("sdur.client.commit_ms", p50_ms(commit_us), "ms");
  m.add("sdur.client.commit_p99_ms", tail_ms(commit_us), "ms");
  m.add("sdur.client.snapshot_ms", p50_ms(snapshot_us), "ms");
  m.add("sdur.client.retries_per_txn",
        ratio(static_cast<double>(c.client_commit_retries), static_cast<double>(s.updates)),
        "count");
  m.add("sdur.client.timeouts", static_cast<double>(c.client_timeouts), "count");

  // trace: every stage of both update classes (stage means telescope to
  // the end-to-end mean of the attributed chains)
  const sdur::trace::Breakdown& b = traced.breakdown;
  for (const auto& [cls, name] : {std::pair{&b.local, "local"}, std::pair{&b.global, "global"}}) {
    for (std::size_t st = 0; st < sdur::trace::Breakdown::kStages; ++st) {
      m.add(std::string("trace.") + name + "." + sdur::trace::Breakdown::stage_name(st) + "_ms",
            cls->stage[st].mean() / 1000.0, "ms");
    }
  }

  // paxos
  std::uint64_t paxos_msgs = 0, vote_msgs = 0;
  for (sim::MsgType t = sdur::paxos::msgtype::kFirst; t <= sdur::paxos::msgtype::kLast; ++t) {
    paxos_msgs += c.net.per_type_count.at(t);
  }
  for (sim::MsgType t : {sdur::msgtype::kVote, sdur::msgtype::kVoteRequest,
                         sdur::msgtype::kVoteBatch, sdur::msgtype::kVotePiggyback}) {
    vote_msgs += c.net.per_type_count.at(t);
  }
  m.add("paxos.msgs_per_txn", ratio(static_cast<double>(paxos_msgs), txns), "count");
  m.add("paxos.values_per_instance",
        ratio(static_cast<double>(c.paxos_values_delivered),
              static_cast<double>(c.paxos_instances_decided)),
        "count");
  m.add("paxos.elections", static_cast<double>(c.paxos_elections), "count");
  m.add("paxos.state_transfers", static_cast<double>(c.paxos_state_transfers), "count");
  m.add("outage_s",
        static_cast<double>(longest_gap(s.p0_commits, outage_from(w, first), w.window_end())) /
            1e6,
        "s");

  // sdur termination, certifier and speculation
  m.add("sdur.vote_msgs_per_global",
        ratio(static_cast<double>(vote_msgs), static_cast<double>(s.globals)), "count");
  m.add("sdur.votes_piggybacked_share",
        ratio(static_cast<double>(sv.votes_piggybacked),
              static_cast<double>(sv.votes_piggybacked + sv.votes_batched)),
        "ratio");
  const double certified =
      static_cast<double>(sv.committed_local + sv.committed_global + sv.aborted);
  m.add("sdur.cert_abort_ratio", ratio(static_cast<double>(sv.aborted), certified), "ratio");
  m.add("sdur.stale_snapshot_aborts", static_cast<double>(sv.stale_snapshot_aborts), "count");
  m.add("sdur.spec_useful_ratio",
        ratio(static_cast<double>(sv.spec_commits), static_cast<double>(sv.speculated_globals)),
        "ratio");
  m.add("sdur.bypass_share",
        ratio(static_cast<double>(sv.bypassed_locals), static_cast<double>(sv.committed_local)),
        "ratio");
  m.add("sdur.parked_share",
        ratio(static_cast<double>(sv.parked_locals), static_cast<double>(sv.committed_local)),
        "ratio");
  const double ro_committed =
      static_cast<double>(s.latency[static_cast<std::size_t>(TxClass::kReadOnly)].size());
  m.add("sdur.ro_fractured_ratio", ratio(static_cast<double>(first.ro_fractured), ro_committed),
        "ratio");
  m.add("sdur.reads_deferred_share",
        ratio(static_cast<double>(sv.reads_deferred), static_cast<double>(sv.reads_served)),
        "ratio");

  // replica CPU and pdur: the busiest replica's mean and per-core use
  double util = 0, core_max = 0, core_min = 0;
  for (const auto& cores : c.core_busy) {
    double sum = 0, hi = 0, lo = 1e300;
    for (Time busy : cores) {
      const double u = static_cast<double>(busy) / static_cast<double>(w.window);
      sum += u;
      hi = std::max(hi, u);
      lo = std::min(lo, u);
    }
    const double mean = sum / static_cast<double>(cores.size());
    if (mean >= util) {
      util = mean;
      core_max = hi;
      core_min = lo;
    }
  }
  m.add("sdur.replica_cpu_util", util, "ratio");
  m.add("pdur.cross_core_share",
        ratio(static_cast<double>(sv.pdur_cross_core),
              static_cast<double>(sv.pdur_cross_core + sv.pdur_single_core)),
        "ratio");
  m.add("pdur.core_util_max", core_max, "ratio");
  m.add("pdur.core_util_min", core_min, "ratio");

  // sim
  const double events_per_txn = ratio(static_cast<double>(c.events), txns);
  m.add("sim.events_per_txn", events_per_txn, "count");
  m.add("sim.msgs_per_txn", ratio(static_cast<double>(c.net.messages_sent), txns), "count");
  m.add("sim.bytes_per_txn", ratio(static_cast<double>(c.net.bytes_sent), txns), "B");
  m.add("sim.fn_heap_allocs_per_txn", ratio(static_cast<double>(c.fabric.fn_heap_allocs), txns),
        "count");
  m.add("sim.payload_copies_per_txn",
        ratio(static_cast<double>(c.fabric.payload_deep_copies), txns), "count");

  // Host probes, fed this workload's transactions. The certifier probe's
  // snapshot age is the versions a partition commits during one median
  // local transaction.
  const double local_p50_s =
      static_cast<double>(percentile(s.latency[static_cast<std::size_t>(TxClass::kLocal)], 50)) /
      1e6;
  const auto depth = static_cast<std::int64_t>(std::llround(
      static_cast<double>(s.updates) / window_s / static_cast<double>(w.partitions) *
      local_p50_s));
  const ProbeResults pr = run_probes(w, arrivals, std::max<std::int64_t>(depth, 1));
  m.add("host.sim.ns_per_event", pr.sim_ns_per_event, "ns");
  m.add("host.paxos.ns_per_value", pr.paxos_ns_per_value, "ns");
  m.add("host.certifier.ns_per_cert", pr.certifier_ns_per_cert, "ns");
  m.add("host.mvstore.ns_per_get", pr.mvstore_ns_per_get, "ns");
  m.add("host.mvstore.ns_per_put", pr.mvstore_ns_per_put, "ns");
  m.add("host.mvstore.ns_per_load", pr.mvstore_ns_per_load, "ns");
  m.add("host.codec.ns_per_parttx", pr.codec_ns_per_parttx, "ns");

  // Host decomposition of wall_s: probe price x calls per transaction
  // counted in the run (store puts: committed writes on every replica).
  m.add("wall_s", wall_s, "s");
  const double gets = static_cast<double>(sv.reads_served);
  const double puts = static_cast<double>(s.committed_writes) * 3;
  const double store_ns = ratio(pr.mvstore_ns_per_get * gets + pr.mvstore_ns_per_put * puts,
                                gets + puts);
  const Decomposition d = decompose(
      wall_s, txns,
      {{"sim", pr.sim_ns_per_event, events_per_txn},
       {"paxos", pr.paxos_ns_per_value, ratio(static_cast<double>(c.paxos_values_delivered), txns)},
       {"certifier", pr.certifier_ns_per_cert, ratio(static_cast<double>(sv.delivered), txns)},
       {"mvstore", store_ns, ratio(gets + puts, txns)},
       {"codec", pr.codec_ns_per_parttx, ratio(static_cast<double>(sv.delivered), txns)}});
  for (const auto& [layer, us] : d.us_per_txn) m.add("host." + layer + ".us_per_txn", us, "us");
  m.add("host.residual_us_per_txn", d.residual_us_per_txn, "us");
  m.add("trace.overhead", traced.wall_s / wall_s - 1.0, "ratio");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

/// Stamps the build and host. SDUR_AUDIT is always OFF here: run() refuses
/// to time an audit-on build before it stamps.
void print_stamp(const Args& a, const WorkloadSpec& w, std::size_t arrivals) {
  const char* sha = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"rate_tps\": %.17g, "
      "\"arrivals\": %zu, \"build_type\": \"%s\", \"SDUR_AUDIT\": \"OFF\", \"SDUR_TRACE\": "
      "\"%s\", \"SDUR_FABRIC_COUNTERS\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"nproc\": %u}}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), w.rate_tps, arrivals,
      PERFBENCH_BUILD_TYPE, SDUR_TRACE ? "ON" : "OFF", SDUR_FABRIC_COUNTERS ? "ON" : "OFF",
      json_escape(PERFBENCH_COMPILER).c_str(), json_escape(sha ? sha : "unknown").c_str(),
      std::thread::hardware_concurrency());
}

void print_result(bool correct, const OutcomeCounts& c, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed()), m.json().c_str());
  std::fflush(stdout);
}

int fail(const std::string& why, const OutcomeCounts& c) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  print_result(false, c, Metrics{});
  return 1;
}

int run(const Args& a) {
#ifdef SDUR_AUDIT_ENABLED
  std::fprintf(stderr, "perfbench: refusing to time an audit-on build (SDUR_AUDIT=ON)\n");
  return 2;
#endif
  const WorkloadSpec* found = find_workload(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  WorkloadSpec w = *found;
  if (a.rate > 0) w.rate_tps = a.rate;
  const std::vector<Arrival> arrivals = generate(w, a.seed);
  print_stamp(a, w, arrivals.size());
  OutcomeCounts attempted;
  attempted.attempted = arrivals.size();

  // The first untraced run passes the correctness gate and warms the
  // allocator and caches; the timed repetitions after it must simulate the
  // same history.
  const auto t0 = Clock::now();
  RunOutput first = run_workload(w, arrivals, false, true);
  if (!first.gate_error.empty()) return fail("correctness gate: " + first.gate_error, attempted);
  if (backlog_grows(first.backlog, w.settle, w.window_end())) {
    return fail("generator backlog grows across the window: the offered rate is past saturation",
                attempted);
  }
  std::vector<double> walls, setups;
  while (walls.size() < kMinReps ||
         std::chrono::duration<double>(Clock::now() - t0).count() < a.seconds) {
    const RunOutput r = run_workload(w, arrivals, false, false);
    if (const std::string diff = compare_simulations(first, r); !diff.empty()) {
      return fail("repetitions differ: " + diff, attempted);
    }
    walls.push_back(r.wall_s);
    setups.push_back(r.setup_s);
  }
  while (setups.size() < kMinSetups) setups.push_back(time_setup(w));
  // On a shared host whole repetitions and set-ups run slow; the fastest
  // one is the steadiest estimate of the code's own cost (measured across
  // runs: wall_s 7% spread against 19% for the median repetition; set-up
  // on geo-fault 11% against 19%).
  const double wall_s = *std::min_element(walls.begin(), walls.end());
  const double setup_s = *std::min_element(setups.begin(), setups.end());

  // Traced run of the same seed: must simulate the same history.
  const RunOutput traced = run_workload(w, arrivals, true, true);
  if (!traced.gate_error.empty()) {
    return fail("correctness gate (traced): " + traced.gate_error, attempted);
  }
  if (const std::string diff = compare_simulations(first, traced); !diff.empty()) {
    return fail("traced run differs from untraced: " + diff, attempted);
  }
  if (first.ro_fractured != traced.ro_fractured) {
    return fail("traced run differs from untraced: fractured read-only counts", attempted);
  }

  const Summary s = summarize(w, arrivals, first);
  Metrics m;
  if (a.trace == 0) {
    end_to_end(w, s, setup_s, first.peak_rss_mb, m);
  } else {
    per_layer(w, arrivals, s, first, traced, wall_s, m);
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu arrivals, %zu reps, %llu commits, %llu failed, "
               "trace %llu records (%.1f per arrival)\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed), arrivals.size(),
               walls.size(), static_cast<unsigned long long>(s.outcomes.committed),
               static_cast<unsigned long long>(s.outcomes.failed()),
               static_cast<unsigned long long>(traced.trace_records),
               static_cast<double>(traced.trace_records) / static_cast<double>(arrivals.size()));
  std::fprintf(stderr, "perfbench: wall_s per repetition:");
  for (double x : walls) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\nperfbench: setup_s per repetition:");
  for (double x : setups) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");
  m.print_table();
  print_result(true, s.outcomes, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: sdur_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--rate <tps>]\n");
    return 2;
  }
  return perfbench::run(a);
}
