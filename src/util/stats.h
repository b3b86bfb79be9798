// Latency/throughput statistics used by the benchmark harness.
//
// Histogram is a log-bucketed histogram (HdrHistogram-style) with bounded
// relative error, suitable for recording millions of latency samples with
// O(1) memory. It supports means, arbitrary percentiles (the paper reports
// averages and 99th percentiles), and CDF export (paper Figure 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sdur::util {

class Histogram {
 public:
  /// `sub_bucket_bits` controls relative precision: 2^bits sub-buckets per
  /// power of two, i.e. ~1.5% worst-case relative error at the default 6.
  explicit Histogram(int sub_bucket_bits = 6);

  void record(std::int64_t value);
  void record_n(std::int64_t value, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  std::int64_t min() const;
  std::int64_t max() const { return max_; }
  double mean() const;

  /// Value at percentile p in [0, 100].
  std::int64_t percentile(double p) const;

  /// (value, cumulative fraction) pairs for plotting a CDF; one point per
  /// non-empty bucket.
  std::vector<std::pair<std::int64_t, double>> cdf() const;

  void merge(const Histogram& other);
  void clear();

 private:
  std::size_t bucket_index(std::int64_t value) const;
  std::int64_t bucket_value(std::size_t index) const;

  int sub_bits_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::vector<std::uint64_t> buckets_;
};

/// Formats a microsecond value as milliseconds with one decimal ("32.6").
std::string format_ms(std::int64_t micros);

/// Formats a throughput value as e.g. "6.3K".
std::string format_k(double v);

}  // namespace sdur::util
