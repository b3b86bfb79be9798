// The benchmark's own arithmetic: percentile choice, failure ratios, the
// outage gap, the backlog-growth test and the host-cost decomposition.
// Pure functions over plain data, tested by metrics_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples a reported tail percentile must keep beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Highest percentile <= `target` that keeps at least kTailSamples of `n`
/// samples strictly above its nearest-rank position (0 when n is too
/// small to keep any).
double tail_percentile(std::size_t n, double target = 99.0);

/// 1-based nearest rank of percentile `p` among `n` samples (>= 1).
std::size_t nearest_rank(std::size_t n, double p);

/// Nearest-rank percentile of ascending `sorted` samples (0 when empty).
std::int64_t percentile(const std::vector<std::int64_t>& sorted, double p);

/// Outcomes of every arrival due in the measurement window.
struct OutcomeCounts {
  std::uint64_t attempted = 0;  // arrivals due in the window
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t unknown = 0;    // started, outcome never learned
  std::uint64_t unstarted = 0;  // still waiting for a client when the window closed
  std::uint64_t late = 0;       // committed, but over the class latency limit

  std::uint64_t failed() const { return aborted + unknown + unstarted; }
};

/// (aborts + unknown outcomes + unstarted arrivals) / attempted.
double fail_ratio(const OutcomeCounts& c);

/// (failed + late commits) / attempted: a failure misses every limit.
double slo_miss_ratio(const OutcomeCounts& c);

/// Longest gap in ascending `times` within [from, to], counting the gap
/// from `from` to the first time and from the last time to `to` (the
/// whole interval when no time falls inside it).
std::int64_t longest_gap(const std::vector<std::int64_t>& times, std::int64_t from,
                         std::int64_t to);

/// True when the generator's backlog grows across [from, to]: the mean
/// backlog over the last quarter of the interval exceeds the mean over the
/// first quarter by more than one arrival. `samples` are (time, backlog)
/// pairs in time order, taken at every arrival.
bool backlog_grows(const std::vector<std::pair<std::int64_t, std::uint32_t>>& samples,
                   std::int64_t from, std::int64_t to);

/// One layer's host cost: a probe's nanoseconds per call and the number of
/// such calls one transaction made in the measured run.
struct LayerCost {
  std::string layer;
  double ns_per_call = 0;
  double calls_per_txn = 0;
};

struct Decomposition {
  std::vector<std::pair<std::string, double>> us_per_txn;  // per layer, in input order
  double residual_us_per_txn = 0;  // wall time per txn no probe accounts for
};

/// Splits `wall_s` over `txns` transactions into probe-priced layers and
/// the residual.
Decomposition decompose(double wall_s, double txns, const std::vector<LayerCost>& layers);

}  // namespace perfbench
