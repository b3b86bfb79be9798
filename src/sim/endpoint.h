// Transport-agnostic endpoint interface.
//
// Protocol engines (Paxos, SDUR server) are written against this interface
// rather than against the simulator directly, so the same engine code could
// be hosted on a real socket transport. In this repository the simulator's
// Process implements it.
#pragma once

#include "sim/callable.h"
#include "sim/message.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace sdur::sim {

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// This endpoint's process id.
  virtual ProcessId self() const = 0;

  /// Where every process sits, and how far apart they are.
  virtual const Topology& topology() const = 0;

  /// Current time (virtual time in the simulator).
  virtual Time current_time() const = 0;

  /// Sends a message to another process.
  virtual void send_message(ProcessId to, Message m) = 0;

  /// One-shot timer; skipped if the host process crashes first.
  virtual void start_timer(Time delay, UniqueFn fn) = 0;

  /// Queues work on the host's serial CPU with the given cost.
  virtual void queue_work(Time cost, UniqueFn fn) = 0;
};

}  // namespace sdur::sim
