#pragma once
/// \file flit_sim_oracle.hpp
/// \brief Test-only differential oracle for the flit DES.
///
/// The original cycle-stepped simulate_network loop: it visits every
/// router every cycle, queues flits in ring-buffer FIFOs and routes
/// them through a dense (router, dst_router) next-hop table, which it
/// recomputes over the surviving graph when a fault strikes. It shares
/// no code with the event-wheel core in wi_noc, so agreement between
/// the two is real evidence. Both are bit-identical on every statistic
/// a golden pins; the oracle leaves the turns_executed diagnostic at 0.
/// Built as the wi_noc_oracle library and linked only into the noc
/// tests.

#include "wi/common/fault.hpp"
#include "wi/noc/flit_sim.hpp"

namespace wi::noc::oracle {

/// Same contract as wi::noc::simulate_network, except that a zero
/// router delay (which the event core rejects) is accepted.
[[nodiscard]] FlitSimResult simulate_network(
    const Topology& topology, const Routing& routing,
    const TrafficPattern& traffic, double injection_rate,
    const FlitSimConfig& config, const fault::FaultSchedule& faults = {});

}  // namespace wi::noc::oracle
