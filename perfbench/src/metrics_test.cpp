// Tests for the benchmark's own math. Exits non-zero on the first failed
// expectation; run with `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "metrics.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "metrics_test:%d: FAILED %s\n", line, what);
  ++failures;
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_choice_keeps_ten_samples_beyond() {
  using perfbench::kTailSamples;
  for (std::size_t n : {11u, 12u, 50u, 99u, 100u, 999u, 1000u, 1001u, 4321u, 100000u}) {
    const double p = perfbench::tail_percentile(n);
    EXPECT(p <= 99.0);
    EXPECT(n - perfbench::nearest_rank(n, p) >= kTailSamples);
  }
  // Enough samples: the target itself is reported, exactly at the edge.
  EXPECT(near(perfbench::tail_percentile(1000), 99.0));
  EXPECT(perfbench::nearest_rank(1000, 99.0) == 990);
  EXPECT(near(perfbench::tail_percentile(100000), 99.0));
  // Too few: the percentile backs off to keep ten beyond.
  EXPECT(near(perfbench::tail_percentile(200), 95.0));
  EXPECT(perfbench::nearest_rank(200, 95.0) == 190);
  EXPECT(perfbench::tail_percentile(10) == 0.0);

  std::vector<std::int64_t> sorted;
  for (std::int64_t i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT(perfbench::percentile(sorted, 50) == 500);
  EXPECT(perfbench::percentile(sorted, 99) == 990);
  EXPECT(perfbench::percentile({}, 99) == 0);
}

void failure_ratios_count_unknown_and_unstarted() {
  perfbench::OutcomeCounts c;
  c.attempted = 100;
  c.committed = 90;
  c.aborted = 4;
  c.unknown = 2;     // started, never answered
  c.unstarted = 4;   // no client before the window closed
  c.late = 5;
  EXPECT(c.failed() == 10);
  EXPECT(near(perfbench::fail_ratio(c), 0.10));
  // Failures miss the latency limit too; late commits add to them.
  EXPECT(near(perfbench::slo_miss_ratio(c), 0.15));

  perfbench::OutcomeCounts only_unstarted;
  only_unstarted.attempted = 8;
  only_unstarted.unstarted = 2;
  EXPECT(near(perfbench::fail_ratio(only_unstarted), 0.25));
  EXPECT(near(perfbench::slo_miss_ratio(only_unstarted), 0.25));
  EXPECT(perfbench::fail_ratio(perfbench::OutcomeCounts{}) == 0.0);
}

void outage_on_synthetic_timeline() {
  // Steady commits every 10 until a crash at 100, nothing until 2300, then
  // steady again: the outage runs from the crash to the first commit.
  std::vector<std::int64_t> t;
  for (std::int64_t x = 0; x <= 95; x += 5) t.push_back(x);
  for (std::int64_t x = 2300; x <= 4000; x += 10) t.push_back(x);
  EXPECT(perfbench::longest_gap(t, 100, 4000) == 2200);
  // Commits before `from` do not shorten the gap.
  EXPECT(perfbench::longest_gap(t, 50, 4000) == 2205);
  // A stream that stops before the window end: the tail gap counts.
  EXPECT(perfbench::longest_gap({10, 20, 30}, 0, 500) == 470);
  // Nothing inside: the whole interval.
  EXPECT(perfbench::longest_gap({}, 100, 700) == 600);
}

void backlog_growth() {
  std::vector<std::pair<std::int64_t, std::uint32_t>> flat, growing, transient;
  for (std::int64_t t = 0; t < 1000; t += 10) {
    flat.emplace_back(t, 0);
    growing.emplace_back(t, static_cast<std::uint32_t>(t / 50));
    transient.emplace_back(t, t >= 400 && t < 600 ? 30u : 0u);  // an outage that drains
  }
  EXPECT(!perfbench::backlog_grows(flat, 0, 1000));
  EXPECT(perfbench::backlog_grows(growing, 0, 1000));
  EXPECT(!perfbench::backlog_grows(transient, 0, 1000));
}

void host_decomposition() {
  // 2 s of wall time over 1000 transactions is 2000 us per transaction.
  const perfbench::Decomposition d = perfbench::decompose(
      2.0, 1000, {{"sim", 500, 1200}, {"paxos", 2000, 3}, {"codec", 250, 4}});
  EXPECT(d.us_per_txn.size() == 3);
  EXPECT(d.us_per_txn[0].first == "sim");
  EXPECT(near(d.us_per_txn[0].second, 600.0));   // 500 ns x 1200 calls
  EXPECT(near(d.us_per_txn[1].second, 6.0));
  EXPECT(near(d.us_per_txn[2].second, 1.0));
  EXPECT(near(d.residual_us_per_txn, 2000.0 - 607.0));
  // Layers priced above the wall time leave a negative residual, which
  // flags overlapping probes instead of hiding them.
  EXPECT(perfbench::decompose(0.001, 1000, {{"sim", 5000, 1}}).residual_us_per_txn < 0);
}

}  // namespace

int main() {
  percentile_choice_keeps_ten_samples_beyond();
  failure_ratios_count_unknown_and_unstarted();
  outage_on_synthetic_timeline();
  backlog_growth();
  host_decomposition();
  if (failures != 0) {
    std::fprintf(stderr, "metrics_test: %d failure(s)\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("metrics_test: all passed\n");
  return EXIT_SUCCESS;
}
