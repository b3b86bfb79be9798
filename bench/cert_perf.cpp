// Certification microbench: indexed conflict checks vs the legacy window
// scan.
//
// The certifier answers "does transaction t conflict with any commit in
// (t.st, SC]?" once per delivered transaction. The legacy strategy scans
// every window record; the indexed strategy (storage/cert_index.h) probes
// a per-key last-writer/last-reader table — O(|rs| + |ws|) regardless of
// window depth. This bench times both strategies on storage::CommitWindow —
// the one window sdur::Certifier certifies against, serial or P-DUR —
// through its public conflicts_scan() /
// conflicts_indexed() split (both audit-free, so the numbers are
// meaningful even in SDUR_AUDIT builds, where conflicts() itself re-runs
// the scan as a cross-check).
//
// Sweeps window depth x set size x readset encoding (exact / bloom) x
// local / global. Probe transactions use snapshot = window base - 1 (the
// worst case: the scan walks the entire window) and keys disjoint from
// the record keys (no early exit; index probes miss). Bloom rows keep the
// protocol's shape — record AND probe readsets bloom-encoded — which
// forces the documented fallback: reads still scan, but global
// write-vs-reader checks walk only the bloom suffix.
//
// Rows go to BENCH_cert_perf.json. `--smoke` (CTest: cert_perf_smoke)
// shrinks the sweep and cross-validates every probe's verdict between the
// two strategies (and conflicts()) before timing anything.
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <random>

#include "common.h"
#include "storage/commit_window.h"

namespace sdur::bench {
namespace {

using storage::CommitRecord;
using storage::CommitWindow;
using storage::Version;
using Clock = std::chrono::steady_clock;

struct Probe {
  util::KeySet rs;
  util::KeySet ws;
};

std::vector<std::uint64_t> draw_keys(std::mt19937_64& rng, std::size_t n,
                                     std::uint64_t base, std::uint64_t space) {
  std::uniform_int_distribution<std::uint64_t> d(0, space - 1);
  std::vector<std::uint64_t> ks(n);
  for (auto& k : ks) k = base + d(rng);
  return ks;
}

/// Fills `w` with `depth` records of `set_size`-key read/write sets.
/// Writesets stay exact (they always are in the protocol); readsets are
/// bloom-encoded when `bloom` is set, mirroring server bloom_readsets.
void fill_window(CommitWindow& w, std::size_t depth, std::size_t set_size, bool bloom,
                 std::mt19937_64& rng) {
  constexpr std::uint64_t kRecordSpace = 1u << 20;
  for (std::size_t i = 0; i < depth; ++i) {
    CommitRecord rec;
    rec.txid = i + 1;
    const auto rk = draw_keys(rng, set_size, 0, kRecordSpace);
    rec.readset = bloom ? util::KeySet::bloom(rk) : util::KeySet::exact(rk);
    rec.writeset = util::KeySet::exact(draw_keys(rng, set_size, 0, kRecordSpace));
    w.push(static_cast<Version>(i + 1), std::move(rec));
  }
}

/// Probe sets live in a key range disjoint from the records, so the scan
/// pays full depth and index probes miss — the worst case for both.
std::vector<Probe> make_probes(std::size_t n, std::size_t set_size, bool bloom,
                               std::mt19937_64& rng) {
  constexpr std::uint64_t kProbeBase = 1ull << 32;
  std::vector<Probe> out(n);
  for (Probe& p : out) {
    const auto rk = draw_keys(rng, set_size, kProbeBase, 1u << 20);
    p.rs = bloom ? util::KeySet::bloom(rk) : util::KeySet::exact(rk);
    p.ws = util::KeySet::exact(draw_keys(rng, set_size, kProbeBase, 1u << 20));
  }
  return out;
}

/// Runs `fn(probe)` over the probe set until `min_wall_sec` elapsed;
/// returns nanoseconds per call. `sink` defeats dead-code elimination.
template <typename Fn>
double time_probes(const std::vector<Probe>& probes, double min_wall_sec, Fn&& fn) {
  std::uint64_t calls = 0;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (const Probe& p : probes) sink += fn(p) ? 1 : 0;
    calls += probes.size();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_wall_sec);
  if (sink == ~0ull) std::printf("impossible\n");
  return elapsed * 1e9 / static_cast<double>(calls);
}

struct SweepPoint {
  std::size_t depth;
  std::size_t set_size;
  bool bloom;
  bool global;
};

int run_point(const SweepPoint& s, bool smoke) {
  std::mt19937_64 rng(0x5EED ^ (s.depth * 31 + s.set_size * 7 + (s.bloom ? 2 : 0) +
                                (s.global ? 1 : 0)));
  CommitWindow w;
  fill_window(w, s.depth, s.set_size, s.bloom, rng);
  const Version st = w.oldest() - 1;  // full-depth scans

  // Verdict cross-validation on probes that CAN conflict (shared key
  // space), plus the disjoint timing probes. Any divergence is a bug the
  // equivalence tests should have caught; fail loudly here too.
  std::mt19937_64 vrng(7);
  for (int i = 0; i < (smoke ? 400 : 50); ++i) {
    const auto rk = draw_keys(vrng, s.set_size, 0, 1u << 20);
    Probe p;
    p.rs = s.bloom ? util::KeySet::bloom(rk) : util::KeySet::exact(rk);
    p.ws = util::KeySet::exact(draw_keys(vrng, s.set_size, 0, 1u << 20));
    std::uniform_int_distribution<Version> st_dist(w.oldest() - 1, w.newest());
    const Version vst = st_dist(vrng);
    const bool scan = w.conflicts_scan(p.rs, p.ws, s.global, vst);
    const bool indexed = w.conflicts_indexed(p.rs, p.ws, s.global, vst);
    if (scan != indexed || w.conflicts(p.rs, p.ws, s.global, vst) != scan) {
      std::fprintf(stderr,
                   "cert_perf: VERDICT MISMATCH depth=%zu set=%zu bloom=%d global=%d st=%" PRId64
                   " scan=%d indexed=%d\n",
                   s.depth, s.set_size, s.bloom, s.global, vst, scan, indexed);
      return 1;
    }
  }

  const auto probes = make_probes(smoke ? 64 : 256, s.set_size, s.bloom, rng);
  const double budget = smoke ? 0.01 : 0.12 * bench_scale() / 0.5;
  const double scan_ns = time_probes(probes, budget, [&](const Probe& p) {
    return w.conflicts_scan(p.rs, p.ws, s.global, st);
  });
  const double index_ns = time_probes(probes, budget, [&](const Probe& p) {
    return w.conflicts_indexed(p.rs, p.ws, s.global, st);
  });
  const double speedup = scan_ns / index_ns;

  std::printf("  depth=%6zu set=%2zu %-5s %-6s scan=%9.0f ns  index=%8.0f ns  speedup=%7.1fx\n",
              s.depth, s.set_size, s.bloom ? "bloom" : "exact", s.global ? "global" : "local",
              scan_ns, index_ns, speedup);
  if (auto* rep = report()) {
    rep->row()
        .num("depth", static_cast<double>(s.depth))
        .num("set_size", static_cast<double>(s.set_size))
        .str("mode", s.bloom ? "bloom" : "exact")
        .str("txn", s.global ? "global" : "local")
        .num("scan_ns", scan_ns)
        .num("index_ns", index_ns)
        .num("speedup", speedup);
  }
  return 0;
}

}  // namespace
}  // namespace sdur::bench

int main(int argc, char** argv) {
  using namespace sdur::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  auto& rep = report_open("cert_perf");
  (void)rep;

  std::printf("\n==== Certification conflict check: window scan vs key index ====\n");
  const std::vector<std::size_t> depths =
      smoke ? std::vector<std::size_t>{64, 512} : std::vector<std::size_t>{64, 256, 1024, 4096, 16384};
  const std::vector<std::size_t> set_sizes = smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{4, 16};
  int rc = 0;
  for (const bool bloom : {false, true}) {
    print_header(bloom ? "bloom readsets" : "exact readsets");
    for (const std::size_t depth : depths) {
      for (const std::size_t set_size : set_sizes) {
        for (const bool global : {false, true}) {
          rc |= run_point(SweepPoint{depth, set_size, bloom, global}, smoke);
        }
      }
    }
  }
  if (rc == 0) std::printf("\nall verdicts cross-validated (indexed == scan == conflicts)\n");
  return rc;
}
