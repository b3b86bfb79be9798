#include "workload/driver.h"

#include <algorithm>

namespace sdur::workload {

void Recorder::record(const std::string& cls, Outcome outcome, sim::Time latency, sim::Time now) {
  if (now < begin_ || now > end_) return;
  auto& st = classes_[cls];
  switch (outcome) {
    case Outcome::kCommit:
      ++st.committed;
      st.latency.record(latency);
      if (timeline_bucket_ > 0) {
        auto& series = timelines_[cls];
        const auto idx = static_cast<std::size_t>((now - begin_) / timeline_bucket_);
        if (series.size() <= idx) {
          series.resize(idx + 1);
          for (std::size_t i = 0; i < series.size(); ++i) {
            series[i].start = begin_ + static_cast<sim::Time>(i) * timeline_bucket_;
          }
        }
        TimelineBucket& b = series[idx];
        ++b.count;
        b.sum += static_cast<double>(latency);
        b.max = std::max(b.max, latency);
      }
      break;
    case Outcome::kAbort:
      ++st.aborted;
      break;
    default:
      ++st.unknown;
      break;
  }
}

const std::vector<Recorder::TimelineBucket>& Recorder::timeline(const std::string& cls) const {
  static const std::vector<TimelineBucket> kEmpty;
  auto it = timelines_.find(cls);
  return it == timelines_.end() ? kEmpty : it->second;
}

const Recorder::ClassStats& Recorder::of(const std::string& cls) const {
  static const ClassStats kEmpty;
  auto it = classes_.find(cls);
  return it == classes_.end() ? kEmpty : it->second;
}

double Recorder::throughput(const std::string& cls) const {
  const double window = static_cast<double>(end_ - begin_) / 1e6;
  if (window <= 0) return 0;
  if (!cls.empty()) return static_cast<double>(of(cls).committed) / window;
  return static_cast<double>(total_committed()) / window;
}

std::uint64_t Recorder::total_committed() const {
  std::uint64_t n = 0;
  for (const auto& [cls, st] : classes_) n += st.committed;
  return n;
}

double RunResult::throughput(const std::string& cls) const {
  if (duration_sec <= 0) return 0;
  std::uint64_t n = 0;
  for (const auto& [name, st] : classes) {
    if (cls.empty() || name == cls) n += st.committed;
  }
  return static_cast<double>(n) / duration_sec;
}

std::int64_t RunResult::p99(const std::string& cls) const {
  auto it = classes.find(cls);
  return it == classes.end() ? 0 : it->second.latency.percentile(99.0);
}

std::int64_t RunResult::mean(const std::string& cls) const {
  auto it = classes.find(cls);
  return it == classes.end() ? 0 : static_cast<std::int64_t>(it->second.latency.mean());
}

RunResult run_experiment(Deployment& dep, Workload& wl, const RunConfig& cfg) {
  util::Rng rng(cfg.seed);
  wl.populate(dep, rng);
  dep.start();

  // Heap-allocated and retained: sessions keep recording after this
  // function returns if the caller continues running the simulation.
  auto recorder_ptr = std::make_shared<Recorder>();
  Recorder& recorder = *recorder_ptr;
  dep.retain(recorder_ptr);
  const sim::Time t0 = dep.simulator().now();
  const sim::Time begin = t0 + cfg.settle + cfg.warmup;
  const sim::Time end = begin + cfg.measure;
  recorder.set_window(begin, end);
  if (cfg.timeline_bucket > 0) recorder.enable_timeline(cfg.timeline_bucket);

  for (std::uint32_t i = 0; i < cfg.clients; ++i) {
    const PartitionId home = wl.client_home(i, dep.partition_count());
    Client& c = dep.add_client(home);
    std::shared_ptr<Session> session =
        wl.make_session(c, home, dep.partition_count(), rng.fork(), recorder);
    // Stagger session starts across the settle window to avoid a thundering
    // herd against a just-elected leader. Sessions are retained by the
    // deployment: their continuations live in the event queue and in
    // client callback tables, so they must survive this function.
    const sim::Time start_at = t0 + cfg.settle * (i + 1) / (cfg.clients + 1);
    dep.simulator().schedule_at(start_at, [session] { session->start(); });
    dep.retain(std::move(session));
  }

  dep.run_until(end);

  RunResult result;
  result.classes = recorder.classes();
  for (const auto& [cls, st] : recorder.classes()) {
    const auto& tl = recorder.timeline(cls);
    if (!tl.empty()) result.timelines[cls] = tl;
  }
  result.duration_sec = static_cast<double>(cfg.measure) / 1e6;
  result.servers = dep.total_stats();
  result.net = dep.network().stats();
  return result;
}

}  // namespace sdur::workload
