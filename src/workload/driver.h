// Experiment driver: closed-loop clients and measurement windows. The
// "75% of maximum performance" operating-point search of the paper's
// evaluation (Section VI-A) runs scenarios, so it lives in scenario.h.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sdur/deployment.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sdur::workload {

/// Collects per-class latency histograms and commit/abort counts inside a
/// measurement window (records outside the window are dropped).
class Recorder {
 public:
  struct ClassStats {
    util::Histogram latency{6};  // microseconds
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t unknown = 0;
  };

  void set_window(sim::Time begin, sim::Time end) {
    begin_ = begin;
    end_ = end;
  }

  void record(const std::string& cls, Outcome outcome, sim::Time latency, sim::Time now);

  /// Enables per-class latency time series (bucketed by wall-clock window);
  /// used to visualize the convoy effect over time.
  void enable_timeline(sim::Time bucket_width) { timeline_bucket_ = bucket_width; }

  struct TimelineBucket {
    sim::Time start = 0;
    std::uint64_t count = 0;
    double sum = 0;
    sim::Time max = 0;
  };
  const std::vector<TimelineBucket>& timeline(const std::string& cls) const;

  const std::map<std::string, ClassStats>& classes() const { return classes_; }
  const ClassStats& of(const std::string& cls) const;

  /// Committed transactions per second for one class ("" = all classes).
  double throughput(const std::string& cls = "") const;

  std::uint64_t total_committed() const;

 private:
  sim::Time begin_ = 0;
  sim::Time end_ = 0;
  sim::Time timeline_bucket_ = 0;
  std::map<std::string, ClassStats> classes_;
  std::map<std::string, std::vector<TimelineBucket>> timelines_;
};

/// One closed-loop client session; start() begins issuing transactions and
/// each completion immediately starts the next.
class Session {
 public:
  virtual ~Session() = default;
  virtual void start() = 0;
};

/// A benchmark workload: initial data + a session per client.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Loads the initial database into every replica. Called before start().
  virtual void populate(Deployment& dep, util::Rng& rng) = 0;

  /// Home partition of the i-th client (clients are spread across
  /// partitions' home regions by default).
  virtual PartitionId client_home(std::uint32_t index, PartitionId partitions) const {
    return index % partitions;
  }

  /// Creates the i-th client's session. `home` is the partition the client
  /// was homed on (its region hosts that partition's preferred server).
  virtual std::unique_ptr<Session> make_session(Client& client, PartitionId home,
                                                PartitionId partitions, util::Rng rng,
                                                Recorder& rec) = 0;
};

struct RunConfig {
  std::uint32_t clients = 32;
  /// > 0 enables per-class latency time series with this bucket width.
  sim::Time timeline_bucket = 0;
  sim::Time settle = sim::msec(800);  // leader election + gossip warmup
  sim::Time warmup = sim::sec(2);
  sim::Time measure = sim::sec(8);
  std::uint64_t seed = 7;
};

struct RunResult {
  std::map<std::string, Recorder::ClassStats> classes;
  std::map<std::string, std::vector<Recorder::TimelineBucket>> timelines;
  double duration_sec = 0;
  Server::Stats servers;
  sim::NetworkStats net;

  double throughput(const std::string& cls = "") const;
  /// p99 / mean latency in microseconds for a class (0 if absent).
  std::int64_t p99(const std::string& cls) const;
  std::int64_t mean(const std::string& cls) const;
};

/// Runs `wl` on `dep` with cfg.clients closed-loop clients and returns the
/// measured statistics. `dep` must be freshly built (the run pollutes it).
RunResult run_experiment(Deployment& dep, Workload& wl, const RunConfig& cfg);

}  // namespace sdur::workload
