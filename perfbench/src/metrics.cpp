#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double tail_percentile(std::size_t n, double target) {
  if (n <= kTailSamples) return 0;
  const double keep = 100.0 * static_cast<double>(n - kTailSamples) / static_cast<double>(n);
  return std::min(target, keep);
}

std::size_t nearest_rank(std::size_t n, double p) {
  // The epsilon keeps p * n / 100 from rounding up past an exact integer
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::int64_t percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double fail_ratio(const OutcomeCounts& c) {
  if (c.attempted == 0) return 0;
  return static_cast<double>(c.failed()) / static_cast<double>(c.attempted);
}

double slo_miss_ratio(const OutcomeCounts& c) {
  if (c.attempted == 0) return 0;
  return static_cast<double>(c.failed() + c.late) / static_cast<double>(c.attempted);
}

std::int64_t longest_gap(const std::vector<std::int64_t>& times, std::int64_t from,
                         std::int64_t to) {
  std::int64_t prev = from;
  std::int64_t longest = 0;
  for (std::int64_t t : times) {
    if (t < from) continue;
    if (t > to) break;
    longest = std::max(longest, t - prev);
    prev = t;
  }
  return std::max(longest, to - prev);
}

bool backlog_grows(const std::vector<std::pair<std::int64_t, std::uint32_t>>& samples,
                   std::int64_t from, std::int64_t to) {
  const std::int64_t quarter = (to - from) / 4;
  double first_sum = 0, last_sum = 0;
  std::uint64_t first_n = 0, last_n = 0;
  for (const auto& [t, backlog] : samples) {
    if (t >= from && t < from + quarter) {
      first_sum += backlog;
      ++first_n;
    } else if (t >= to - quarter && t <= to) {
      last_sum += backlog;
      ++last_n;
    }
  }
  const double first = first_n ? first_sum / static_cast<double>(first_n) : 0;
  const double last = last_n ? last_sum / static_cast<double>(last_n) : 0;
  return last > first + 1.0;
}

Decomposition decompose(double wall_s, double txns, const std::vector<LayerCost>& layers) {
  Decomposition d;
  const double total_us = txns > 0 ? wall_s * 1e6 / txns : 0;
  double priced = 0;
  for (const LayerCost& l : layers) {
    const double us = l.ns_per_call * l.calls_per_txn / 1000.0;
    d.us_per_txn.emplace_back(l.layer, us);
    priced += us;
  }
  d.residual_us_per_txn = total_us - priced;
  return d;
}

}  // namespace perfbench
