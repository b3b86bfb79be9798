// Shared helpers for the figure-reproduction benches.
//
// Every bench binary reproduces one table/figure from the paper's
// evaluation (Section VI). All of them follow the paper's methodology:
// closed-loop clients, results reported at ~75% of the saturation
// throughput (found by a probe-run search once per deployment/mix and
// reused across technique settings, matching "controlling the load to
// keep the throughput approximately constant").
//
// A bench describes each run as a `workload::Scenario`, most starting from
// bench_scenario(), and runs it with the helpers below.
//
// Durations scale with the SDUR_BENCH_SCALE environment variable
// (default 0.5; smaller = faster, noisier).
//
// Besides the human-readable tables on stdout, every bench writes its rows
// as BENCH_<name>.json (see BenchReport below) so the figure data can be
// consumed by scripts without scraping the text output.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sdur/technique_config.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workload/scenario.h"

namespace sdur::bench {

using workload::RunResult;
using workload::Scenario;
using workload::WorkloadKind;

/// Duration scale factor from SDUR_BENCH_SCALE. Defaults to 0.5, tuned so
/// the full figure suite finishes in tens of minutes on one core; raise
/// for tighter percentiles. Out-of-range (or unparseable) values are
/// clamped to [0.01, 100] with a warning rather than silently ignored.
inline double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("SDUR_BENCH_SCALE");
    if (env == nullptr || *env == '\0') return 0.5;
    const double v = std::atof(env);
    if (v < 0.01 || v > 100.0) {
      const double clamped = v < 0.01 ? 0.01 : 100.0;
      std::fprintf(stderr, "SDUR_BENCH_SCALE=%s out of range [0.01, 100]; clamping to %g\n", env,
                   clamped);
      return clamped;
    }
    return v;
  }();
  return scale;
}

// --- Machine-readable output --------------------------------------------------

/// Collects the rows a bench prints and writes them to
/// $SDUR_BENCH_JSON_DIR/BENCH_<name>.json (default: current directory) at
/// exit. One report per binary, created by report_open() at the top of
/// main(); print_header() and print_class_row() feed the active report
/// automatically, benches with bespoke tables add rows explicitly.
class BenchReport {
 public:
  class Row {
   public:
    Row& num(const std::string& k, double v) {
      char buf[64];
      if (std::isfinite(v)) {
        std::snprintf(buf, sizeof(buf), "%.10g", v);
      } else {
        std::snprintf(buf, sizeof(buf), "null");
      }
      fields_.emplace_back(k, buf);
      return *this;
    }
    Row& str(const std::string& k, const std::string& v) {
      fields_.emplace_back(k, quote(v));
      return *this;
    }

   private:
    friend class BenchReport;
    static std::string quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';  // control chars never appear in labels; keep JSON valid
          continue;
        }
        out.push_back(c);
      }
      out.push_back('"');
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  ~BenchReport() { flush(); }

  /// Appends a row; the current section (last print_header) is attached.
  Row& row() {
    rows_.emplace_back();
    if (!section_.empty()) rows_.back().str("section", section_);
    return rows_.back();
  }

  void set_section(const std::string& s) { section_ = s; }

  void flush() {
    if (flushed_) return;
    flushed_ = true;
    // Reports live under bench_json/ (run_benches.sh merges them into
    // TRAJECTORY.json there). With no explicit SDUR_BENCH_JSON_DIR, try
    // bench_json/ relative to the working directory first and fall back to
    // the working directory itself (e.g. ctest smoke runs in build/, which
    // has no bench_json/).
    const char* dir = std::getenv("SDUR_BENCH_JSON_DIR");
    const std::string file = "BENCH_" + name_ + ".json";
    std::string path;
    std::FILE* f = nullptr;
    if (dir && *dir) {
      path = std::string(dir) + "/" + file;
      f = std::fopen(path.c_str(), "w");
    } else {
      path = "bench_json/" + file;
      f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        path = file;
        f = std::fopen(path.c_str(), "w");
      }
    }
    if (f == nullptr) {
      std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"scale\":%.10g,\"rows\":[", name_.c_str(), bench_scale());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fputs(i == 0 ? "\n  {" : ",\n  {", f);
      const auto& fields = rows_[i].fields_;
      for (std::size_t j = 0; j < fields.size(); ++j) {
        std::fprintf(f, "%s%s:%s", j == 0 ? "" : ",", Row::quote(fields[j].first).c_str(),
                     fields[j].second.c_str());
      }
      std::fputc('}', f);
    }
    std::fputs(rows_.empty() ? "]}\n" : "\n]}\n", f);
    std::fclose(f);
  }

 private:
  std::string name_;
  std::string section_;
  std::deque<Row> rows_;  // deque: row() hands out stable references
  bool flushed_ = false;
};

inline BenchReport*& report_slot() {
  static BenchReport* active = nullptr;
  return active;
}

/// Opens this binary's report (call once at the top of main).
inline BenchReport& report_open(const std::string& name) {
  static BenchReport rep(name);
  report_slot() = &rep;
  return rep;
}

/// The active report, or nullptr when the binary opened none.
inline BenchReport* report() { return report_slot(); }

inline sim::Time scaled(sim::Time t) {
  return static_cast<sim::Time>(static_cast<double>(t) * bench_scale());
}

// --- Runs ---------------------------------------------------------------------

/// A bench run of the paper's micro workload (Section VI-A; 100K items per
/// partition here, 10% globals) on 2 partitions of `kind`, measured after a
/// 1.2 s settle and the scaled 1 s warm-up for the scaled 8 s window. The
/// caller sets the client count, often from find_clients().
inline Scenario bench_scenario(DeploymentSpec::Kind kind) {
  Scenario s;
  s.spec.kind = kind;
  s.run = {
      .settle = sim::msec(1200), .warmup = scaled(sim::sec(1)), .measure = scaled(sim::sec(8))};
  return s;
}

/// Runs `s` once on a fresh build.
inline RunResult run_bench(const Scenario& s) {
  const workload::Built b = workload::build(s);
  return workload::run_experiment(*b.dep, *b.workload, s.run);
}

/// The ~75%-of-max client count for `s`, probed with half its window.
inline std::uint32_t find_clients(const Scenario& s, std::uint32_t start = 16,
                                  std::uint32_t max = 2048) {
  Scenario probe = s;
  probe.run.measure = scaled(sim::sec(4));
  return workload::find_operating_point(probe, 0.75, start, max);
}

/// Runs `s`, then re-runs it up to `reruns` times with the client count
/// scaled by target / throughput until total committed throughput lands
/// within 5% of `target_tput`. The paper holds the load constant when
/// comparing a technique against the baseline: an improved configuration
/// serves the same load with fewer in-flight clients, so its latency drops
/// instead of its throughput rising.
inline RunResult run_matched(Scenario s, double target_tput, std::uint32_t* used_clients = nullptr,
                             int reruns = 3) {
  RunResult r = run_bench(s);
  for (int attempt = 0; attempt < reruns; ++attempt) {
    const double tput = r.throughput();
    if (tput <= 0 || std::abs(tput - target_tput) / target_tput < 0.05) break;
    s.run.clients = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(static_cast<double>(s.run.clients) * target_tput / tput));
    r = run_bench(s);
  }
  if (used_clients) *used_clients = s.run.clients;
  return r;
}

/// A run and its latency attribution (empty with tracing compiled out).
struct TracedRun {
  RunResult run;
  trace::Breakdown breakdown;
};

/// Runs `s` traced. The tracer is armed with a ring of `ring` records
/// before the build (tracks register in the Server, Client and
/// PaxosEngine constructors), disarmed after the run, and reset once the
/// attribution is built, which frees the ring. `inspect`, when set, sees
/// the disarmed tracer before that.
inline TracedRun run_traced(const Scenario& s, std::size_t ring,
                            const std::function<void(const trace::Tracer&)>& inspect = {}) {
  TracedRun out;
#if SDUR_TRACE
  auto& tracer = trace::Tracer::instance();
  tracer.reset();
  tracer.set_ring_capacity(ring);
  tracer.set_enabled(true);
  out.run = run_bench(s);
  tracer.set_enabled(false);
  if (inspect) inspect(tracer);
  out.breakdown = trace::build_breakdown(tracer);
  tracer.reset();
#else
  (void)ring;
  (void)inspect;
  out.run = run_bench(s);
#endif
  return out;
}

/// Mean of the named stage ("e2e": the end-to-end latency) over a class's
/// attributed chains, in ms; -1 when the class attributed none.
inline double mean_ms(const trace::Breakdown::Class& c, std::string_view stage) {
  if (c.chains == 0) return -1;
  if (stage == "e2e") return c.e2e.mean() / 1000.0;
  std::size_t i = 0;
  while (i + 1 < trace::Breakdown::kStages && trace::Breakdown::stage_name(i) != stage) ++i;
  return c.stage[i].mean() / 1000.0;
}

// --- Table formatting ---------------------------------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
  if (auto* rep = report()) rep->set_section(title);
}

/// Prints one row in the paper's style: throughput (tps), 99th percentile
/// (bars in the paper) and average (diamonds) latency in ms.
inline void print_class_row(const char* label, const RunResult& r, const std::string& cls) {
  const double aborts =
      static_cast<double>(r.classes.count(cls) ? r.classes.at(cls).aborted : 0);
  std::printf("  %-28s tput=%8.0f tps   p99=%8.1f ms   avg=%8.1f ms   aborts=%.0f\n", label,
              r.throughput(cls), static_cast<double>(r.p99(cls)) / 1000.0,
              static_cast<double>(r.mean(cls)) / 1000.0, aborts);
  if (auto* rep = report()) {
    rep->row()
        .str("label", label)
        .str("class", cls)
        .num("tput_tps", r.throughput(cls))
        .num("p99_ms", static_cast<double>(r.p99(cls)) / 1000.0)
        .num("avg_ms", static_cast<double>(r.mean(cls)) / 1000.0)
        .num("aborts", aborts);
  }
}

/// Prints a latency CDF (paper Figure 2, right panels), downsampled.
inline void print_cdf(const char* label, const RunResult& r, const std::string& cls,
                      std::size_t points = 12) {
  auto it = r.classes.find(cls);
  if (it == r.classes.end() || it->second.latency.count() == 0) return;
  const auto cdf = it->second.latency.cdf();
  std::printf("  CDF %-26s", label);
  const std::size_t step = std::max<std::size_t>(1, cdf.size() / points);
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    std::printf(" %.0fms:%.2f", static_cast<double>(cdf[i].first) / 1000.0, cdf[i].second);
  }
  std::printf(" %.0fms:1.00\n", static_cast<double>(cdf.back().first) / 1000.0);
}

}  // namespace sdur::bench
