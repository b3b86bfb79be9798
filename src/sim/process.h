// Process abstraction: a crash-stop actor with one or more serial CPUs.
//
// Each process handles one piece of work at a time per virtual CPU core.
// Incoming messages and explicit work items queue behind core 0 by default,
// which is what produces realistic queueing delay and saturation (and the
// convoy effect the paper analyses: certification is serialized per
// replica).
//
// Multi-core model (P-DUR, src/pdur/): a process may own K deterministic
// per-core serial run queues — simulated cores, not OS threads. Each core
// is just an independent "free at" horizon in virtual time; work enqueued
// on a core starts when that core drains, and enqueue_work_multi() models
// a cross-core barrier (all listed cores busy from the latest free time
// until the work completes). Scheduling is a pure function of the enqueue
// sequence, so multi-core runs stay bit-reproducible from the seed.
//
// Crash-stop semantics: after crash() the process ignores messages, timers
// and queued work. recover() (used by Paxos recovery tests) bumps an epoch
// so anything scheduled before the crash stays dead, then calls
// on_recover() to let the subclass rebuild volatile state from its durable
// log.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/endpoint.h"
#include "sim/network.h"

namespace sdur::sim {

class Process : public Endpoint {
 public:
  Process(Network& net, ProcessId id, std::string name, Location loc);
  ~Process() override;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const { return id_; }
  const std::string& name() const { return name_; }
  Time now() const { return net_.simulator().now(); }
  Network& network() { return net_; }

  bool crashed() const { return crashed_; }
  virtual void crash();
  virtual void recover();

  /// Per-message base CPU cost (default 10 us). Handlers can queue extra
  /// work with enqueue_work().
  void set_message_service_time(Time t) { message_service_time_ = t; }

  /// Sends a message through the network (no-op when crashed).
  void send(ProcessId to, Message m);

  /// One-shot timer. The callback is skipped if the process has crashed or
  /// recovered (epoch change) by the time it fires. Timers model protocol
  /// timeouts and do not consume CPU.
  void set_timer(Time delay, UniqueFn fn);

  /// Queues `fn` on this process's serial CPU (core 0) with the given
  /// cost. `fn` runs when the CPU has finished all previously queued work
  /// plus `cost` microseconds. This is the primitive behind message
  /// handling and explicit work like certification.
  void enqueue_work(Time cost, UniqueFn fn) { enqueue_work_on(0, cost, std::move(fn)); }

  /// Extends the CPU (core 0) busy period by `cost` without scheduling a
  /// callback; used to account for work done inline in a handler (e.g.
  /// applying a writeset). Only work enqueued *after* the charge queues
  /// behind it — already-enqueued work keeps its schedule.
  void charge_cpu(Time cost) { charge_core(0, cost); }

  /// Virtual time at which the CPU (core 0) becomes free (tests/metrics).
  Time cpu_free_at() const { return cpu_free_at_[0]; }

  // --- Multi-core run queues (P-DUR replica model, src/pdur/) -----------

  /// Resizes the process to `cores` independent serial run queues. New
  /// cores start free at the current time; shrinking discards the tail
  /// horizons (already-scheduled callbacks still run). Core 0 always
  /// exists and carries message handling.
  void set_core_count(std::size_t cores);
  std::size_t core_count() const { return cpu_free_at_.size(); }

  /// Queues `fn` on one specific core (clamped to the last core).
  void enqueue_work_on(std::size_t core, Time cost, UniqueFn fn);

  /// Cross-core barrier: every core in `cores` is busy from the latest of
  /// their free times until `cost` later, when `fn` runs once. Models the
  /// P-DUR vote/synchronization step for transactions spanning cores. An
  /// empty list degenerates to core 0.
  void enqueue_work_multi(const std::vector<std::uint32_t>& cores, Time cost, UniqueFn fn);

  /// Extends one core's busy period without scheduling a callback.
  void charge_core(std::size_t core, Time cost);

  /// Virtual time at which `core` becomes free.
  Time core_free_at(std::size_t core) const {
    return cpu_free_at_[core < cpu_free_at_.size() ? core : cpu_free_at_.size() - 1];
  }

  /// Cumulative busy time charged to `core` (utilization metrics).
  Time core_busy_time(std::size_t core) const {
    return core_busy_[core < core_busy_.size() ? core : core_busy_.size() - 1];
  }

  // --- Endpoint interface (delegates to the methods above) ---------------
  ProcessId self() const override { return id_; }
  const Topology& topology() const override { return net_.topology(); }
  Time current_time() const override { return now(); }
  void send_message(ProcessId to, Message m) override { send(to, std::move(m)); }
  void start_timer(Time delay, UniqueFn fn) override { set_timer(delay, std::move(fn)); }
  void queue_work(Time cost, UniqueFn fn) override { enqueue_work(cost, std::move(fn)); }

 protected:
  /// Message handler; runs on the process CPU.
  virtual void on_message(const Message& m, ProcessId from) = 0;

  /// Called after recover(); rebuild volatile state from durable storage.
  virtual void on_recover() {}

 private:
  friend class Network;
  /// Entry point used by the network at delivery time.
  void incoming(Message m, ProcessId from);

  /// Reserves `cost` on `core` (clamped) starting when it next drains;
  /// returns the completion time. Shared accounting for enqueue_work_on
  /// and the direct-scheduled message path.
  Time reserve_core(std::size_t core, Time cost);

  Network& net_;
  ProcessId id_;
  std::string name_;
  bool crashed_ = false;
  std::uint64_t epoch_ = 0;
  Time message_service_time_ = usec(10);
  /// Per-core "free at" horizons; index 0 is the legacy serial CPU.
  std::vector<Time> cpu_free_at_ = std::vector<Time>(1, 0);
  std::vector<Time> core_busy_ = std::vector<Time>(1, 0);
};

}  // namespace sdur::sim
