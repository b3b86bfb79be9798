// sdur_sim: command-line experiment runner.
//
// Runs one SDUR experiment (deployment x workload x knobs) and prints the
// per-class results; optionally dumps latency CDFs as CSV for plotting.
// The run flags parse into one `workload::Scenario`, built and run without
// a heal, so its counter lines stop at the end of the measured window.
//
// Examples:
//   sdur_sim --deployment wan1 --workload micro --global-pct 10 --clients 600
//   sdur_sim --deployment wan2 --workload social --techniques reorder=20 --auto-load
//   sdur_sim --deployment lan --partitions 8 --workload micro --seconds 20
//            --zipf 0.99 --csv out.csv
//   sdur_sim --deployment wan1 --crash 0:0@0.5+2   (partition 0's leader down 2 s)
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sdur/technique_config.h"
#include "sim/fabric_stats.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/logging.h"
#include "workload/scenario.h"

using namespace sdur;
using namespace sdur::workload;

namespace {

/// The settle and warm-up ahead of the measured window, which a fresh
/// deployment starts at time 0.
constexpr sim::Time kSettle = sim::msec(1200);
constexpr sim::Time kWarmup = sim::sec(1);
constexpr sim::Time kWindowStart = kSettle + kWarmup;

/// The flags that shape how a run is driven and reported, not the run: the
/// run itself parses into a `Scenario`.
struct Options {
  /// --auto-load [FRACTION]: search the client count at FRACTION of the
  /// maximum throughput; 0 keeps --clients.
  double load_fraction = 0;
  bool breakdown = false;
  std::string csv;
  bool verbose = false;
};

/// The names --deployment and --workload take, and the header prints.
constexpr std::pair<const char*, DeploymentSpec::Kind> kDeployments[] = {
    {"lan", DeploymentSpec::Kind::kLan},
    {"wan1", DeploymentSpec::Kind::kWan1},
    {"wan2", DeploymentSpec::Kind::kWan2}};
struct WorkloadName {
  const char* name;
  WorkloadKind kind;
  YcsbConfig::Mix mix;  // YCSB only
};
constexpr WorkloadName kWorkloads[] = {
    {"micro", WorkloadKind::kMicro, YcsbConfig::Mix::kA},
    {"social", WorkloadKind::kSocial, YcsbConfig::Mix::kA},
    {"ycsb-a", WorkloadKind::kYcsb, YcsbConfig::Mix::kA},
    {"ycsb-b", WorkloadKind::kYcsb, YcsbConfig::Mix::kB},
    {"ycsb-c", WorkloadKind::kYcsb, YcsbConfig::Mix::kC}};

const char* deployment_name(const Scenario& s) {
  for (const auto& [name, kind] : kDeployments) {
    if (kind == s.spec.kind) return name;
  }
  return "?";
}

const char* workload_name(const Scenario& s) {
  for (const WorkloadName& w : kWorkloads) {
    if (w.kind == s.workload && (w.kind != WorkloadKind::kYcsb || w.mix == s.ycsb.mix)) {
      return w.name;
    }
  }
  return "?";
}

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
      "  --crash P:R@SEC[+DOWN]       crash replica R of partition P SEC seconds into\n"
      "                               the measured window; recover DOWN seconds later\n"
      "                               (repeatable; default never recovers)\n"
      "  --verbose                    log leader elections etc.\n");
}

[[noreturn]] void bad_flag(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "bad %s: %s\n", flag.c_str(), why.c_str());
  std::exit(2);
}

/// Parses all of `v` as one finite T (an unsigned T takes no minus sign);
/// anything else, overflow included, exits 2.
template <class T>
void parse_number(const std::string& flag, const char* v, T& out) {
  const char* end = v + std::strlen(v);
  const auto [stop, ec] = std::from_chars(v, end, out);
  bool ok = ec == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) bad_flag(flag, "cannot parse '" + std::string(v) + "'");
}

/// Parses P:R@SEC[+DOWN] into a crash at window start + SEC; a malformed
/// value exits 2.
Crash parse_crash(const std::string& flag, const std::string& v) {
  const std::size_t colon = v.find(':');
  const std::size_t at = v.find('@');
  const std::size_t plus = v.find('+');
  if (colon == std::string::npos || at == std::string::npos || at < colon ||
      (plus != std::string::npos && plus < at)) {
    bad_flag(flag, "expected P:R@SEC[+DOWN], got '" + v + "'");
  }
  Crash c;
  double sec = 0;
  double down = 0;
  parse_number(flag, v.substr(0, colon).c_str(), c.partition);
  parse_number(flag, v.substr(colon + 1, at - colon - 1).c_str(), c.replica);
  parse_number(flag, v.substr(at + 1, plus - at - 1).c_str(), sec);
  if (plus != std::string::npos) {
    parse_number(flag, v.substr(plus + 1).c_str(), down);
    c.down = static_cast<sim::Time>(down * 1e6);
    if (c.down <= 0) bad_flag(flag, "DOWN must be at least 1 us");
  }
  if (sec < 0) bad_flag(flag, "SEC must not be negative");
  c.at = kWindowStart + static_cast<sim::Time>(sec * 1e6);
  return c;
}

/// sdur_sim's run before any flag: the scenario defaults (LAN, 2
/// partitions of 3 replicas, the micro workload) with 64 clients.
Scenario default_scenario() {
  Scenario s;
  s.run = {.clients = 64, .settle = kSettle, .warmup = kWarmup};
  return s;
}

bool parse(int argc, char** argv, Scenario& s, Options& o) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  double global_pct = 10.0;
  double seconds = 10.0;
  std::int64_t checkpoint_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--deployment") {
      const std::string v = need(i);
      const auto* it = std::find_if(std::begin(kDeployments), std::end(kDeployments),
                                    [&](const auto& d) { return v == d.first; });
      if (it == std::end(kDeployments)) {
        std::fprintf(stderr, "unknown deployment '%s' (lan|wan1|wan2)\n", v.c_str());
        std::exit(2);
      }
      s.spec.kind = it->second;
    } else if (a == "--partitions") parse_number(a, need(i), s.spec.partitions);
    else if (a == "--replicas") parse_number(a, need(i), s.spec.replicas);
    else if (a == "--workload") {
      const std::string v = need(i);
      const auto* it = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                    [&](const WorkloadName& w) { return v == w.name; });
      if (it == std::end(kWorkloads)) {
        std::fprintf(stderr, "unknown workload '%s' (micro|social|ycsb-a|ycsb-b|ycsb-c)\n",
                     v.c_str());
        std::exit(2);
      }
      s.workload = it->kind;
      s.ycsb.mix = it->mix;
    } else if (a == "--global-pct") parse_number(a, need(i), global_pct);
    else if (a == "--items") parse_number(a, need(i), s.micro.items_per_partition);
    else if (a == "--users") parse_number(a, need(i), s.social.users_per_partition);
    else if (a == "--zipf") parse_number(a, need(i), s.micro.zipf_theta);
    else if (a == "--clients") parse_number(a, need(i), s.run.clients);
    else if (a == "--auto-load") {
      o.load_fraction = 0.75;
      if (i + 1 < argc && argv[i + 1][0] != '-') parse_number(a, need(i), o.load_fraction);
      if (o.load_fraction <= 0 || o.load_fraction > 1) bad_flag(a, "must be in (0, 1]");
    } else if (a == "--techniques") {
      std::string err;
      if (!parse_techniques(need(i), s.spec.server.techniques, &err)) {
        std::fprintf(stderr, "bad --techniques: %s\n", err.c_str());
        return false;
      }
    } else if (a == "--certified-ro") s.social.certified_timeline = true;
    else if (a == "--checkpoint") parse_number(a, need(i), checkpoint_ms);
    else if (a == "--breakdown") o.breakdown = true;
    else if (a == "--seconds") parse_number(a, need(i), seconds);
    else if (a == "--seed") parse_number(a, need(i), s.spec.seed);
    else if (a == "--csv") o.csv = need(i);
    else if (a == "--verbose") o.verbose = true;
    else if (a == "--crash") s.faults.crashes.push_back(parse_crash(a, need(i)));
    else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (s.spec.partitions < 1) bad_flag("--partitions", "must be at least 1");
  if (s.spec.replicas < 1) bad_flag("--replicas", "must be at least 1");
  if (s.micro.items_per_partition < 1) bad_flag("--items", "must be at least 1");
  if (s.social.users_per_partition < 1) bad_flag("--users", "must be at least 1");
  if (seconds <= 0) bad_flag("--seconds", "must be above 0");
  for (const Crash& c : s.faults.crashes) {
    if (c.partition >= s.spec.partitions || c.replica >= s.spec.replicas) {
      bad_flag("--crash", "no replica " + std::to_string(c.replica) + " of partition " +
                              std::to_string(c.partition));
    }
  }
  // One flag sets what each workload calls the same thing.
  s.micro.global_fraction = global_pct / 100.0;
  s.ycsb.records_per_partition = s.micro.items_per_partition;
  if (s.micro.zipf_theta > 0) s.ycsb.zipf_theta = s.micro.zipf_theta;
  s.spec.server.checkpoint_interval = checkpoint_ms > 0 ? sim::msec(checkpoint_ms) : 0;
  s.run.measure = static_cast<sim::Time>(seconds * 1e6);
  s.run.seed = s.spec.seed;
  return true;
}

/// Prints one `group: name=value ...` line, every counter of the struct's
/// list in declaration order.
template <class Counters>
void print_counters(const char* group, const Counters& c) {
  std::printf("%s:", group);
  c.for_each([](const char* name, std::uint64_t v) {
    std::printf(" %s=%llu", name, static_cast<unsigned long long>(v));
  });
  std::printf("\n");
}

/// One `timing:` line per partition, in ms, as the deployment derives it
/// from its topology while replica 0 leads (DESIGN.md "Failover"): each
/// replica's suspicion timeout, the election timeout T and stagger S, and
/// replica 0's delay estimate to each partition.
std::string derived_timing(Deployment& dep) {
  std::string out;
  auto ms = [&out](const char* sep, sim::Time t) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.2f", sep, sim::to_ms(t));
    out += buf;
  };
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    out += "timing: partition " + std::to_string(p) + " suspicion=";
    for (std::uint32_t r = 0; r < dep.replica_count(); ++r) {
      ms(r == 0 ? "" : "/", dep.server(p, r).engine().suspicion_timeout());
    }
    Server& leader = dep.server(p, 0);
    ms(" T=", leader.engine().election_timeout());
    ms(" S=", leader.engine().election_stagger());
    out += " delay_estimate=";
    for (PartitionId q = 0; q < dep.partition_count(); ++q) {
      ms(q == 0 ? "" : "/", leader.delay_estimate(q));
    }
    out += " ms\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Scenario sc = default_scenario();
  Options o;
  if (!parse(argc, argv, sc, o)) {
    usage();
    return 2;
  }
  if (o.verbose) util::Logger::instance().set_level(util::LogLevel::kInfo);
  if (const std::string err = sc.spec.server.techniques.validate(); !err.empty()) {
    std::fprintf(stderr, "bad technique config: %s\n", err.c_str());
    return 2;
  }

  if (o.load_fraction > 0) {
    Scenario probe = sc;
    probe.run.measure = sim::sec(4);
    sc.run.clients = find_operating_point(probe, o.load_fraction);
    std::printf("operating point: %u clients (~%.0f%% of max throughput)\n", sc.run.clients,
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

  // The fabric line counts the measured deployment only, not the probes.
  sim::fabric_counters().reset();
  const Built built = build(sc);
  Deployment& dep = *built.dep;
  schedule_faults(dep, sc.faults, kWindowStart + sc.run.measure);
  const std::string timing = derived_timing(dep);
  const RunResult r = run_experiment(dep, *built.workload, sc.run);

  std::printf("\n%s / %s: %u partitions x %u replicas, %u clients, %.1fs measured [%s]\n",
              deployment_name(sc), workload_name(sc), sc.spec.partitions, sc.spec.replicas,
              sc.run.clients, sim::to_sec(sc.run.measure),
              format_techniques(sc.spec.server.techniques).c_str());
  std::printf("%s", timing.c_str());
  for (const Crash& c : sc.faults.crashes) {
    std::printf("crash: partition %u replica %u at %.3fs of the window, ", c.partition, c.replica,
                sim::to_sec(c.at - kWindowStart));
    if (c.down > 0) {
      std::printf("recovers %.3fs later", sim::to_sec(c.down));
    } else {
      std::printf("never recovers");
    }
    // Takeover: from the crash to the first election in the partition after it.
    sim::Time elected = sim::kNever;
    std::uint32_t leader = 0;
    for (std::uint32_t rep = 0; rep < sc.spec.replicas; ++rep) {
      const sim::Time t = dep.server(c.partition, rep).engine().elected_at();
      if (t > c.at && t < elected) {
        elected = t;
        leader = rep;
      }
    }
    if (elected == sim::kNever) {
      std::printf(", no leader change\n");
    } else {
      std::printf(", takeover %.1f ms (replica %u leads)\n", sim::to_ms(elected - c.at),
                  leader);
    }
  }
  std::printf("%-16s %10s %10s %10s %10s %10s\n", "class", "tput(tps)", "p50(ms)", "p99(ms)",
              "avg(ms)", "aborts");
  for (const auto& [cls, st] : r.classes) {
    std::printf("%-16s %10.0f %10.1f %10.1f %10.1f %10llu\n", cls.c_str(),
                static_cast<double>(st.committed) / r.duration_sec,
                static_cast<double>(st.latency.percentile(50)) / 1000.0,
                static_cast<double>(st.latency.percentile(99)) / 1000.0,
                st.latency.mean() / 1000.0, static_cast<unsigned long long>(st.aborted));
  }
  paxos::PaxosEngine::Stats paxos;
  for (Server* s : dep.servers()) paxos += s->engine().stats();
  Client::Stats clients;
  for (const Client* c : dep.clients()) clients += c->stats();
  std::printf("\n");
  print_counters("servers", r.servers);
  print_counters("paxos", paxos);
  print_counters("clients", clients);
  print_counters("network", r.net);
  print_counters("fabric", sim::fabric_counters());

  // Dedup state is per replica: print the largest.
  std::size_t sessions = 0;
  std::size_t outcomes = 0;
  std::size_t rounds = 0;
  for (const Server* s : dep.servers()) {
    sessions = std::max(sessions, s->session_count());
    outcomes = std::max(outcomes, s->outcome_count());
    rounds = std::max(rounds, s->round_count());
  }
  std::printf("dedup: sessions=%zu outcomes=%zu rounds=%zu (max per replica)\n", sessions,
              outcomes, rounds);

  // Store: each partition's shared initial image, then the largest own
  // layer (the keys a replica wrote, or every key once a checkpoint
  // install dropped its image).
  std::string image_keys;
  std::string image_bytes;
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    const storage::MVStore* image = nullptr;
    for (std::uint32_t i = 0; i < dep.replica_count() && image == nullptr; ++i) {
      image = dep.server(p, i).store().image();
    }
    const char* sep = p == 0 ? "" : "/";
    image_keys += sep + std::to_string(image ? image->key_count() : 0);
    image_bytes += sep + std::to_string(image ? image->arena_bytes() : 0);
  }
  std::size_t chains = 0;
  std::size_t versions = 0;
  std::size_t arena = 0;
  for (const Server* s : dep.servers()) {
    chains = std::max(chains, s->store().own_key_count());
    versions = std::max(versions, s->store().own_version_count());
    arena = std::max(arena, s->store().arena_bytes());
  }
  std::printf("store: image keys=%s arena_bytes=%s (per partition) own chains=%zu versions=%zu "
              "arena_bytes=%zu (max per replica)\n",
              image_keys.c_str(), image_bytes.c_str(), chains, versions, arena);

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
