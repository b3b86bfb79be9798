// sdur_sim: command-line experiment runner.
//
// Runs one SDUR experiment (deployment x workload x knobs) and prints the
// per-class results; optionally dumps latency CDFs as CSV for plotting.
//
// Examples:
//   sdur_sim --deployment wan1 --workload micro --global-pct 10 --clients 600
//   sdur_sim --deployment wan2 --workload social --techniques reorder=20 --auto-load
//   sdur_sim --deployment lan --partitions 8 --workload micro --seconds 20
//            --zipf 0.99 --csv out.csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "sdur/technique_config.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/logging.h"
#include "workload/driver.h"
#include "workload/microbench.h"
#include "workload/social.h"
#include "workload/ycsb.h"

using namespace sdur;
using namespace sdur::workload;

namespace {

struct Options {
  std::string deployment = "lan";
  std::string workload = "micro";
  PartitionId partitions = 2;
  std::uint32_t replicas = 3;
  double global_pct = 10.0;
  std::uint64_t items = 100'000;
  std::uint64_t users = 20'000;
  std::uint32_t clients = 64;
  bool auto_load = false;
  double load_fraction = 0.75;
  /// All technique knobs, set by --techniques (single source, see
  /// sdur/technique_config.h).
  TechniqueConfig techniques;
  bool certified_ro = false;
  double zipf = 0.0;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  std::int64_t checkpoint_ms = 0;
  bool breakdown = false;
  std::string csv;
  bool verbose = false;
};

void usage() {
  std::printf(
      "sdur_sim — scalable deferred update replication simulator\n\n"
      "  --deployment lan|wan1|wan2   topology (default lan)\n"
      "  --partitions N               database partitions (default 2)\n"
      "  --replicas N                 replicas per partition (default 3)\n"
      "  --workload micro|social|ycsb-a|ycsb-b|ycsb-c  benchmark (default micro)\n"
      "  --global-pct F               %% global transactions, micro only (default 10)\n"
      "  --items N                    items per partition, micro (default 100000)\n"
      "  --users N                    users per partition, social (default 20000)\n"
      "  --zipf THETA                 key skew, micro (default 0 = uniform)\n"
      "  --clients N                  closed-loop clients (default 64)\n"
      "  --auto-load [FRACTION]       search the ~FRACTION-of-max operating point (0.75)\n"
      "  --techniques STR             technique config string: a preset (baseline,\n"
      "                               geo, all-on) or items such as 'reorder=24,\n"
      "                               delaying=40ms,bloom,vote-batch=200us,\n"
      "                               ooo-bypass,speculation' (default baseline)\n"
      "  --certified-ro               certify read-only transactions (social)\n"
      "  --checkpoint MS              checkpoint interval (default off)\n"
      "  --breakdown                  print the per-stage latency attribution table\n"
      "                               with p50/p95/p99 columns (needs SDUR_TRACE=1)\n"
      "  --seconds S                  measurement window (default 10)\n"
      "  --seed N                     RNG seed (default 1)\n"
      "  --csv FILE                   dump per-class latency CDFs as CSV\n"
      "  --verbose                    log leader elections etc.\n");
}

bool parse(int argc, char** argv, Options& o) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--deployment") o.deployment = need(i);
    else if (a == "--partitions") o.partitions = static_cast<PartitionId>(std::atoi(need(i)));
    else if (a == "--replicas") o.replicas = static_cast<std::uint32_t>(std::atoi(need(i)));
    else if (a == "--workload") o.workload = need(i);
    else if (a == "--global-pct") o.global_pct = std::atof(need(i));
    else if (a == "--items") o.items = std::strtoull(need(i), nullptr, 10);
    else if (a == "--users") o.users = std::strtoull(need(i), nullptr, 10);
    else if (a == "--zipf") o.zipf = std::atof(need(i));
    else if (a == "--clients") o.clients = static_cast<std::uint32_t>(std::atoi(need(i)));
    else if (a == "--auto-load") {
      o.auto_load = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') o.load_fraction = std::atof(argv[++i]);
    } else if (a == "--techniques") {
      std::string err;
      if (!parse_techniques(need(i), o.techniques, &err)) {
        std::fprintf(stderr, "bad --techniques: %s\n", err.c_str());
        return false;
      }
    } else if (a == "--certified-ro") o.certified_ro = true;
    else if (a == "--checkpoint") o.checkpoint_ms = std::atoll(need(i));
    else if (a == "--breakdown") o.breakdown = true;
    else if (a == "--seconds") o.seconds = std::atof(need(i));
    else if (a == "--seed") o.seed = std::strtoull(need(i), nullptr, 10);
    else if (a == "--csv") o.csv = need(i);
    else if (a == "--verbose") o.verbose = true;
    else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

DeploymentSpec::Kind kind_of(const std::string& s) {
  if (s == "lan") return DeploymentSpec::Kind::kLan;
  if (s == "wan1") return DeploymentSpec::Kind::kWan1;
  if (s == "wan2") return DeploymentSpec::Kind::kWan2;
  std::fprintf(stderr, "unknown deployment '%s' (lan|wan1|wan2)\n", s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  if (o.verbose) util::Logger::instance().set_level(util::LogLevel::kInfo);
  if (const std::string err = o.techniques.validate(); !err.empty()) {
    std::fprintf(stderr, "bad technique config: %s\n", err.c_str());
    return 2;
  }

  const DeploymentSpec::Kind kind = kind_of(o.deployment);
  auto make_spec = [&] {
    DeploymentSpec spec;
    spec.kind = kind;
    spec.partitions = o.partitions;
    spec.replicas = o.replicas;
    spec.server.techniques = o.techniques;
    spec.server.checkpoint_interval = o.checkpoint_ms > 0 ? sim::msec(o.checkpoint_ms) : 0;
    spec.seed = o.seed;
    if (o.workload == "micro") {
      spec.partitioning = MicroWorkload::make_partitioning(o.partitions, o.items);
    } else if (o.workload.rfind("ycsb", 0) == 0) {
      spec.partitioning = YcsbWorkload::make_partitioning(o.partitions, o.items);
    } else {
      spec.partitioning = SocialWorkload::make_partitioning(o.partitions);
    }
    return spec;
  };

  MicroConfig mc;
  mc.items_per_partition = o.items;
  mc.global_fraction = o.global_pct / 100.0;
  mc.zipf_theta = o.zipf;
  SocialConfig sc;
  sc.users_per_partition = o.users;
  sc.certified_timeline = o.certified_ro;

  YcsbConfig yc;
  yc.records_per_partition = o.items;
  if (o.zipf > 0) yc.zipf_theta = o.zipf;
  if (o.workload == "ycsb-a") yc.mix = YcsbConfig::Mix::kA;
  if (o.workload == "ycsb-b") yc.mix = YcsbConfig::Mix::kB;
  if (o.workload == "ycsb-c") yc.mix = YcsbConfig::Mix::kC;

  auto make_workload = [&]() -> std::unique_ptr<Workload> {
    if (o.workload == "micro") return std::make_unique<MicroWorkload>(mc);
    if (o.workload == "social") return std::make_unique<SocialWorkload>(sc);
    if (o.workload.rfind("ycsb", 0) == 0) return std::make_unique<YcsbWorkload>(yc);
    std::fprintf(stderr, "unknown workload '%s' (micro|social|ycsb-a|ycsb-b|ycsb-c)\n",
                 o.workload.c_str());
    std::exit(2);
  };

  RunConfig cfg;
  cfg.settle = sim::msec(1200);
  cfg.warmup = sim::sec(1);
  cfg.measure = static_cast<sim::Time>(o.seconds * 1e6);
  cfg.seed = o.seed;
  cfg.clients = o.clients;

  if (o.auto_load) {
    RunConfig probe = cfg;
    probe.measure = sim::sec(4);
    cfg.clients = find_operating_point([&] { return std::make_unique<Deployment>(make_spec()); },
                                       make_workload, probe, o.load_fraction);
    std::printf("operating point: %u clients (~%.0f%% of max throughput)\n", cfg.clients,
                o.load_fraction * 100);
  }

  // Arm the tracer after the auto-load probes (their deployments must not
  // register tracks) and before the final deployment is built (track
  // registration happens in the Server/Client/PaxosEngine constructors).
#if SDUR_TRACE
  if (o.breakdown) {
    auto& tracer = trace::Tracer::instance();
    tracer.set_ring_capacity(1u << 20);
    tracer.set_enabled(true);
  }
#else
  if (o.breakdown) {
    std::fprintf(stderr, "sdur_sim: --breakdown needs an SDUR_TRACE=1 build; ignoring\n");
    o.breakdown = false;
  }
#endif

  Deployment dep(make_spec());
  auto wl = make_workload();
  const RunResult r = run_experiment(dep, *wl, cfg);

  std::printf("\n%s / %s: %u partitions x %u replicas, %u clients, %.1fs measured [%s]\n",
              o.deployment.c_str(), o.workload.c_str(), o.partitions, o.replicas, cfg.clients,
              o.seconds, format_techniques(o.techniques).c_str());
  std::printf("%-16s %10s %10s %10s %10s %10s\n", "class", "tput(tps)", "p50(ms)", "p99(ms)",
              "avg(ms)", "aborts");
  for (const auto& [cls, st] : r.classes) {
    std::printf("%-16s %10.0f %10.1f %10.1f %10.1f %10llu\n", cls.c_str(),
                static_cast<double>(st.committed) / r.duration_sec,
                static_cast<double>(st.latency.percentile(50)) / 1000.0,
                static_cast<double>(st.latency.percentile(99)) / 1000.0,
                st.latency.mean() / 1000.0, static_cast<unsigned long long>(st.aborted));
  }
  std::printf("\nservers: delivered=%llu committed=%llu(local)+%llu(global) aborted=%llu "
              "reordered=%llu ticks=%llu\n",
              static_cast<unsigned long long>(r.servers.delivered),
              static_cast<unsigned long long>(r.servers.committed_local),
              static_cast<unsigned long long>(r.servers.committed_global),
              static_cast<unsigned long long>(r.servers.aborted),
              static_cast<unsigned long long>(r.servers.reordered),
              static_cast<unsigned long long>(r.servers.ticks_sent));
  std::printf("network: %llu msgs, %.1f MB (%.0f B/committed-txn)\n",
              static_cast<unsigned long long>(r.net.messages_sent),
              static_cast<double>(r.net.bytes_sent) / 1e6,
              r.servers.committed_local + r.servers.committed_global == 0
                  ? 0.0
                  : static_cast<double>(r.net.bytes_sent) /
                        static_cast<double>(r.servers.committed_local + r.servers.committed_global));

  std::printf("reads: served=%llu above-stable=%llu deferred=%llu routed=%llu\n",
              static_cast<unsigned long long>(r.servers.reads_served),
              static_cast<unsigned long long>(r.servers.reads_above_stable),
              static_cast<unsigned long long>(r.servers.reads_deferred),
              static_cast<unsigned long long>(r.servers.reads_routed));

  if (r.servers.bypassed_locals + r.servers.parked_locals > 0) {
    std::printf("ooo-bypass: bypassed=%llu parked=%llu\n",
                static_cast<unsigned long long>(r.servers.bypassed_locals),
                static_cast<unsigned long long>(r.servers.parked_locals));
  }

  if (r.servers.speculated_globals > 0) {
    std::printf("speculation: speculated=%llu finalized=%llu rolled-back=%llu\n",
                static_cast<unsigned long long>(r.servers.speculated_globals),
                static_cast<unsigned long long>(r.servers.spec_commits),
                static_cast<unsigned long long>(r.servers.spec_aborts));
  }

  if (r.servers.votes_batched + r.servers.votes_piggybacked > 0) {
    std::printf("votes: batches=%llu batched=%llu piggybacked=%llu stale-dropped=%llu\n",
                static_cast<unsigned long long>(r.servers.vote_batches_sent),
                static_cast<unsigned long long>(r.servers.votes_batched),
                static_cast<unsigned long long>(r.servers.votes_piggybacked),
                static_cast<unsigned long long>(r.servers.stale_votes_dropped));
  }

#if SDUR_TRACE
  if (o.breakdown) {
    auto& tracer = trace::Tracer::instance();
    tracer.set_enabled(false);
    const trace::Breakdown b = trace::build_breakdown(tracer);
    std::printf("\nlatency attribution (complete committed chains only):\n");
    const struct {
      const char* name;
      const trace::Breakdown::Class* c;
    } classes[] = {{"local", &b.local}, {"global", &b.global}};
    for (const auto& [name, c] : classes) {
      if (c->chains == 0) continue;
      std::printf("  %-8s (%llu chains): e2e mean %.1f ms, p50 %.1f, p95 %.1f, p99 %.1f ms\n",
                  name, static_cast<unsigned long long>(c->chains), c->e2e.mean() / 1000.0,
                  static_cast<double>(c->e2e.percentile(50)) / 1000.0,
                  static_cast<double>(c->e2e.percentile(95)) / 1000.0,
                  static_cast<double>(c->e2e.percentile(99)) / 1000.0);
      std::printf("    %-12s %13s %9s %9s %9s\n", "stage", "mean", "p50", "p95", "p99");
      for (std::size_t s = 0; s < trace::Breakdown::kStages; ++s) {
        const util::Histogram& h = c->stage[s];
        const double share = c->e2e.mean() > 0 ? 100.0 * h.mean() / c->e2e.mean() : 0;
        std::printf("    %-12s %6.2f (%4.1f%%) %7.2f %9.2f %9.2f ms\n",
                    trace::Breakdown::stage_name(s), h.mean() / 1000.0, share,
                    static_cast<double>(h.percentile(50)) / 1000.0,
                    static_cast<double>(h.percentile(95)) / 1000.0,
                    static_cast<double>(h.percentile(99)) / 1000.0);
      }
    }
    if (b.local.chains == 0 && b.global.chains == 0) {
      std::printf("  (no complete chains attributed — run longer or enlarge the ring)\n");
    }
    std::printf("  (aborted %llu, incomplete %llu chains; ring dropped %llu records)\n",
                static_cast<unsigned long long>(b.aborted_chains),
                static_cast<unsigned long long>(b.incomplete_chains),
                static_cast<unsigned long long>(tracer.records_dropped()));
  }
#endif  // SDUR_TRACE

  if (!o.csv.empty()) {
    std::ofstream out(o.csv);
    out << "class,latency_ms,cdf\n";
    for (const auto& [cls, st] : r.classes) {
      for (const auto& [value, frac] : st.latency.cdf()) {
        out << cls << ',' << static_cast<double>(value) / 1000.0 << ',' << frac << '\n';
      }
    }
    std::printf("wrote latency CDFs to %s\n", o.csv.c_str());
  }
  return 0;
}
