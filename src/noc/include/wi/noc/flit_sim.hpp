#pragma once
/// \file flit_sim.hpp
/// \brief Flit-level NoC simulator (discrete-event).
///
/// Independent cross-check of the analytic queueing model: input-queued
/// routers, round-robin output arbitration, deterministic routing,
/// Poisson packet injection per module. One flit moves per output
/// channel per cycle (per-channel bandwidth b moves up to b flits);
/// router traversal adds a fixed pipeline delay of
/// FlitSimConfig::router_delay_cycles (>= 1) cycles.
///
/// One event-wheel core runs every simulation: a router is only
/// visited on cycles where it has work, and idle stretches are skipped
/// wholesale (see docs/ARCHITECTURE.md). With `partitions`/`threads`
/// it shards the mesh across worker threads. Results are deterministic
/// per seed and bit-identical at any thread or partition count.
/// Routing failures (unreachable pairs, inconsistent next hops) are
/// recorded while the route tables are built and thrown once as
/// wi::StatusError the first time a flit actually needs the failed
/// route.
///
/// Fault injection: the six-argument overload takes a
/// wi::fault::FaultSchedule of link/router failures. When an event
/// activates, the dead entity's buffered flits are destroyed and the
/// routes are recomputed over the surviving graph (deterministic
/// reverse BFS, minimal hops, lowest link index first), so traffic
/// reroutes around the failure. Destinations cut off from a source
/// surface as wi::Status rows in FlitSimResult::route_failures — flits
/// bound for them are dropped and counted, never thrown. An empty
/// schedule gives the same result as the five-argument overload, so a
/// sweep may reuse its fault-free run for an empty schedule.

#include <cstdint>
#include <vector>

#include "wi/common/fault.hpp"
#include "wi/common/status.hpp"
#include "wi/noc/routing.hpp"
#include "wi/noc/topology.hpp"
#include "wi/noc/traffic.hpp"

namespace wi::noc {

/// Simulator settings. simulate_network throws std::invalid_argument
/// unless router_delay_cycles >= 1, the mesh has < 2^26 routers,
/// warmup + measure + drain + delay < 2^37 and buffer_depth < 2^16.
struct FlitSimConfig {
  std::size_t warmup_cycles = 3000;    ///< excluded from statistics
  std::size_t measure_cycles = 20000;  ///< measurement window
  std::size_t drain_cycles = 20000;    ///< post-window drain limit
  std::size_t buffer_depth = 8;        ///< input queue capacity [flits]
  std::size_t router_delay_cycles = 2;  ///< pipeline depth [cycles]
  std::uint64_t seed = 1;
  /// Worker threads for the partitioned-parallel event core (0 = one
  /// per hardware thread). Results are bit-identical at any value.
  std::size_t threads = 1;
  /// Mesh partitions (contiguous router ranges) for the parallel mode;
  /// 0 derives the count from `threads`. 1 partition = sequential core.
  std::size_t partitions = 0;
};

/// Aggregated results.
struct FlitSimResult {
  double mean_latency_cycles = 0.0;   ///< inject->eject, measured packets
  double delivered_per_cycle = 0.0;   ///< throughput per module
  std::size_t delivered = 0;          ///< measured packets delivered
  std::size_t injected = 0;           ///< measured packets injected
  bool stable = false;                ///< queues drained afterwards
  // Fault-mode accounting (all zero when the schedule is empty).
  std::size_t dropped = 0;            ///< measured packets destroyed by a
                                      ///< fault activation (buffered at a
                                      ///< dying entity, or offered at a
                                      ///< dead source)
  std::size_t unreachable = 0;        ///< measured packets dropped for
                                      ///< want of a live route
  std::size_t dead_links = 0;         ///< links dead by the end (incl.
                                      ///< collateral of router deaths)
  std::size_t dead_routers = 0;       ///< routers dead by the end
  /// Unique route failures hit by actual traffic (first few, one per
  /// (source router, destination router) pair) — the Status rows the
  /// fault_sweep workload surfaces instead of a throw.
  std::vector<Status> route_failures;
  /// Diagnostics (not part of any golden): router turns the core
  /// actually executed. Only routers with pending work are turned, so
  /// this is 0 for a zero-traffic run and far below routers * cycles
  /// at low load; a head blocked on a full ring waits for the pop that
  /// frees a slot instead of retrying, so a deadlocked mesh stops
  /// adding turns.
  std::uint64_t turns_executed = 0;
};

/// Run one simulation at a given injection rate [packets/cycle/module]
/// (single-flit packets, matching the analytic model's default).
[[nodiscard]] FlitSimResult simulate_network(const Topology& topology,
                                             const Routing& routing,
                                             const TrafficPattern& traffic,
                                             double injection_rate,
                                             const FlitSimConfig& config = {});

/// Fault-injecting overload: link/router failures from `faults` strike
/// at their scheduled cycles and traffic reroutes over the surviving
/// graph. With an empty schedule this is bit-identical to the overload
/// above.
[[nodiscard]] FlitSimResult simulate_network(const Topology& topology,
                                             const Routing& routing,
                                             const TrafficPattern& traffic,
                                             double injection_rate,
                                             const FlitSimConfig& config,
                                             const fault::FaultSchedule& faults);

}  // namespace wi::noc
