// One run description: a `Scenario` names a deployment, a workload (micro,
// social or YCSB, each with its config), the measured run, faults and a
// drain. `build()` is the one place that turns it into a deployment and a
// workload; the benches and `sdur_sim` run what it builds, and
// `run_scenario()` builds, schedules the faults, runs, heals (loss 0,
// every replica up), drains and returns one `ScenarioResult` with the
// checks every end-to-end test asks of a run. The checks are public
// helpers too, for tests that drive their own clients or keep running a
// scenario's deployment:
//
//  1. no new audit violation during the run (0 when audit is compiled out);
//  2. the MVSG over committed updates is acyclic (history on);
//  3. every live replica of a partition holds byte-identical
//     (sc, certified, store);
//  4. every live replica is drained: nothing pending, nothing certified
//     beyond sc, no open global round.
//
// `state_digest` hashes every replica's sc, certified, dc and encoded
// store, partition by partition; `digest` continues the same bytes with
// the network totals, the per-type counts and bytes of types 1..49, the
// simulator's event count and its clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sdur/deployment.h"
#include "util/bytes.h"
#include "workload/driver.h"
#include "workload/history.h"
#include "workload/microbench.h"
#include "workload/social.h"
#include "workload/ycsb.h"

namespace sdur::workload {

/// Replica `replica` of partition `partition` crashes at the absolute
/// simulated time `at` and recovers `down` later; `down` 0: it stays down
/// until the heal.
struct Crash {
  PartitionId partition = 0;
  std::uint32_t replica = 0;
  sim::Time at = 0;
  sim::Time down = 0;
};

/// Rolling follower churn: from `from`, every `every` until the workload
/// stops, a random follower (never replica 0) of a random partition
/// crashes for `down` (> 0). Per step the RNG draws the partition, then
/// the replica. `every` 0: no churn; churn needs 2 replicas or more.
struct Churn {
  std::uint64_t seed = 0;
  sim::Time from = 0;
  sim::Time every = 0;
  sim::Time down = 0;
};

/// Message loss at `rate` from `from` until `to`, then the base rate again.
struct LossWindow {
  double rate = 0;
  sim::Time from = 0;
  sim::Time to = 0;
};

struct FaultSchedule {
  std::vector<Crash> crashes;
  Churn churn;
  /// Loss rate from the start until the heal.
  double loss = 0;
  std::vector<LossWindow> loss_windows;
};

/// Sets the base loss rate, then schedules the crashes (explicit entries,
/// then the churn expanded up to `stop`, each crash before its recovery),
/// then the loss windows.
void schedule_faults(Deployment& dep, const FaultSchedule& faults, sim::Time stop);

/// The workload a scenario drives; its config is the scenario's field of
/// the same name.
enum class WorkloadKind { kMicro, kSocial, kYcsb };

struct Scenario {
  /// `build()` derives `spec.partitioning` from the workload's key layout.
  DeploymentSpec spec;
  RunConfig run;
  WorkloadKind workload = WorkloadKind::kMicro;
  /// `build()` derives `micro.cores` from `spec.server.pdur.cores` (1
  /// unless `core_aware`) and, with `history`, sets `micro.commit_hook`;
  /// for `run_scenario()` it also sets the workload's `keep_running` (no
  /// transaction starts after the measured window).
  MicroConfig micro;
  SocialConfig social;
  YcsbConfig ycsb;
  bool core_aware = true;
  FaultSchedule faults;
  /// Simulated time run after the heal; 0 runs nothing.
  sim::Time drain = 0;
  /// Record committed updates for the MVSG check (micro only). Tags every
  /// written value with its writer (8-byte values, a tagged initial load),
  /// so it changes the digests of a run.
  bool history = false;
};

/// A scenario's deployment and workload, built and not yet run.
struct Built {
  std::unique_ptr<Deployment> dep;
  /// Retained by `dep`: its sessions read the config whenever it runs.
  std::shared_ptr<Workload> workload;
  /// With micro history: the checker its sessions report commits to, also
  /// retained by `dep`; null otherwise.
  std::shared_ptr<SerializabilityChecker> checker;
};

/// Builds the deployment and the workload `s` describes. With `stop` set,
/// the workload's sessions start no transaction at or after it.
Built build(const Scenario& s, sim::Time stop = sim::kNever);

/// Finds the client count at which committed throughput is about
/// `fraction` of the saturation throughput (paper Section VI-A: results
/// are reported at 75% of maximum performance). Each probe runs a fresh
/// build of `probe` for `probe.run` with the count under test: counts
/// double from `start_clients` until throughput stops improving, then the
/// count is interpolated back to the target.
std::uint32_t find_operating_point(const Scenario& probe, double fraction = 0.75,
                                   std::uint32_t start_clients = 8,
                                   std::uint32_t max_clients = 4096);

struct ScenarioResult {
  /// The run's deployment, as the drain left it; its sessions and workload
  /// stay alive, so a test may keep running it.
  std::unique_ptr<Deployment> dep;
  RunResult run;
  /// Outcomes inside the measured window, summed over the classes.
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t unknown = 0;
  std::uint64_t digest = 0;
  std::uint64_t new_violations = 0;
  bool agree = false;
  bool drained = false;
  /// With history: the committed updates recorded and the MVSG verdict
  /// (`why` names a cycle). Without: 0, true.
  std::size_t history_commits = 0;
  bool serializable = true;
  std::string why;
};

/// Runs `s`. `before_start`, when set, sees the freshly built deployment
/// before any fault is scheduled or any traffic starts.
ScenarioResult run_scenario(const Scenario& s,
                            const std::function<void(Deployment&)>& before_start = {});

/// The chaos recipe: 3 partitions, 2% loss from the start, follower churn
/// (from 1 s, every 600 ms, down 400 ms), 500 ms checkpoints, 40% globals
/// over 90 keys per partition, then a heal and a 10 s drain; `techniques`
/// on replicas of `cores` cores, with core-blind sessions.
Scenario chaos_recipe(const TechniqueConfig& techniques, std::uint32_t cores = 1);

/// The compressed torture run: 2 partitions, 3% loss from the start,
/// follower churn (from 1 s, every 700 ms, down 450 ms), 600 ms
/// checkpoints, reorder threshold 48, 8 clients running 30% globals over
/// 60 keys per partition for 2 s, then a heal and a 10 s drain.
Scenario torture_recipe();

/// FNV-1a of a writer's bytes: the hash behind both digests.
std::uint64_t hash_of(const util::Writer& w);
std::uint64_t state_digest(Deployment& dep);
std::uint64_t digest(Deployment& dep);
bool replicas_agree(Deployment& dep);
bool drained(Deployment& dep);
/// Sets every key's version order from the first live replica of its
/// partition, reading each version's writer from its tagged value.
void read_key_orders(Deployment& dep, SerializabilityChecker& checker);
/// Violations the audit has reported since its last reset (0 when audit
/// is compiled out).
std::uint64_t audit_violations();

}  // namespace sdur::workload
