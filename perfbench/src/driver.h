// Open-loop driver: builds a workload's deployment, replays an arrival
// schedule against it through the public Client API, and checks the
// result after the window (the correctness gate).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen.h"
#include "sim/fabric_stats.h"
#include "trace/export.h"

namespace perfbench {

/// Counters read at the end of the measurement window.
struct WindowCounters {
  std::uint64_t events = 0;
  sdur::sim::NetworkStats net;
  sdur::sim::FabricCounters fabric;
  sdur::Server::Stats servers;  // summed over every replica
  std::uint64_t paxos_values_delivered = 0;
  std::uint64_t paxos_instances_decided = 0;
  std::uint64_t paxos_elections = 0;
  std::uint64_t paxos_state_transfers = 0;
  std::uint64_t client_commit_retries = 0;
  std::uint64_t client_timeouts = 0;
  /// Per server, per core: busy time accrued inside the window.
  std::vector<std::vector<Time>> core_busy;
};

struct RunOutput {
  /// One entry per arrival, index-aligned with the schedule.
  struct Tx {
    Time begin = -1;  // client picked up the arrival (-1: never started)
    Time done = -1;   // outcome delivered (-1: none)
    sdur::Outcome outcome = sdur::Outcome::kUnknown;
    bool operator==(const Tx&) const = default;
  };
  std::vector<Tx> txs;

  /// Simulated microseconds from each Client call to its callback.
  std::vector<std::int64_t> read_us;      // read_many
  std::vector<std::int64_t> commit_us;    // commit of an update
  std::vector<std::int64_t> snapshot_us;  // begin_read_only

  /// (time, backlog) at every arrival; arrivals waiting for a client.
  std::vector<std::pair<std::int64_t, std::uint32_t>> backlog;
  std::uint32_t max_backlog = 0;

  WindowCounters window;
  std::uint64_t events_final = 0;  // after the drain
  sdur::sim::NetworkStats net_final;
  Time fault_time = -1;  // when the fault fired (-1: no fault)

  double setup_s = 0;  // Deployment build + load + client pool + start()
  double wall_s = 0;   // start() to the end of the window
  double peak_rss_mb = 0;  // process peak resident set at the end of the window

  /// Empty when the correctness gate passed; otherwise the first violation.
  std::string gate_error;
  /// Committed read-only transactions whose snapshot includes a global
  /// update on one partition but not on another (see driver.cpp).
  std::uint64_t ro_fractured = 0;

  // Traced runs only.
  sdur::trace::Breakdown breakdown;
  std::uint64_t trace_records = 0;
  std::uint64_t trace_dropped = 0;
};

/// Runs `w` over `arrivals` on a fresh deployment. With `traced`, the
/// Tracer is armed for the whole run (its ring sized to drop nothing) and
/// the stage breakdown is filled in. With `gate`, the correctness gate runs
/// after the drain; a repetition that simulates the same history as a gated
/// run (compare_simulations) may skip it.
RunOutput run_workload(const WorkloadSpec& w, const std::vector<Arrival>& arrivals, bool traced,
                       bool gate);

/// Host seconds to set up `w` (what RunOutput::setup_s times) without
/// running it.
double time_setup(const WorkloadSpec& w);

/// Compares everything simulated (per-transaction outcomes and times,
/// client-call latencies, events, messages, bytes, counters). Returns an
/// empty string when the two runs simulated the same history.
std::string compare_simulations(const RunOutput& a, const RunOutput& b);

}  // namespace perfbench
