/// \file flit_sim_oracle.cpp
/// \brief The cycle-stepped flit DES loop, kept as the event core's
///        differential-testing oracle (see flit_sim_oracle.hpp).

#include "flit_sim_oracle.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "wi/common/rng.hpp"
#include "wi/common/status.hpp"

namespace wi::noc::oracle {

namespace {

/// 32 bytes (half a cache line): the simulator copies flits on every
/// hop, so keeping them small is worth the narrower router index.
struct Flit {
  std::uint32_t dst_router = 0;
  std::uint32_t dst_module = 0;
  std::uint64_t inject_cycle = 0;
  std::uint64_t ready_cycle = 0;  ///< earliest cycle it can move again
  bool measured = false;
};

/// Preallocated power-of-two ring buffer FIFO. Channel queues never
/// outgrow the configured buffer depth; injection queues double on
/// demand (amortised O(1), no per-flit allocation in steady state).
///
/// The head flit's ready cycle is mirrored into the ring header (with
/// "never" for an empty ring), so the switch-allocation scan decides
/// "can anything move here?" from one contiguous load instead of
/// chasing into the slot storage every cycle.
class FlitRing {
 public:
  static constexpr std::uint64_t kNeverReady =
      ~static_cast<std::uint64_t>(0);

  void reserve_pow2(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Ready cycle of the head flit; kNeverReady when empty.
  [[nodiscard]] std::uint64_t head_ready() const { return head_ready_; }

  [[nodiscard]] Flit& front() { return slots_[head_]; }

  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    head_ready_ = size_ == 0 ? kNeverReady : slots_[head_].ready_cycle;
  }

  void push_back(const Flit& flit) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = flit;
    if (size_ == 0) head_ready_ = flit.ready_cycle;
    ++size_;
  }

  /// Appends a copy of `flit` with a different ready cycle, writing the
  /// tail slot directly (the forwarding hot path).
  void push_back_rescheduled(const Flit& flit, std::uint64_t ready_cycle) {
    if (size_ == slots_.size()) {
      // `flit` may alias this ring's storage (self-loop link): copy
      // before grow() reallocates the slots.
      const Flit copy = flit;
      grow();
      push_back_rescheduled(copy, ready_cycle);
      return;
    }
    Flit& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
    slot = flit;
    slot.ready_cycle = ready_cycle;
    if (size_ == 0) head_ready_ = ready_cycle;
    ++size_;
  }

  /// Destroys every queued flit (a fault activation killed the buffer).
  void clear() {
    head_ = 0;
    size_ = 0;
    head_ready_ = kNeverReady;
  }

 private:
  void grow() {
    std::vector<Flit> bigger(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    head_ = 0;
    slots_.swap(bigger);
  }

  std::vector<Flit> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t head_ready_ = kNeverReady;
};

constexpr std::uint32_t kNoHop = 0xFFFFFFFFu;
constexpr std::uint32_t kFailedHop = 0xFFFFFFFEu;

/// Precomputed (router, dst_router) -> first-hop table. Routing
/// failures are recorded once here and surfaced as a structured
/// wi::Status the first time a flit actually needs the failed entry —
/// matching the lazy cache's behaviour without re-invoking the routing
/// function per flit.
struct NextHop {
  std::uint32_t link = kNoHop;       ///< link index
  std::uint32_t out_index = kNoHop;  ///< local output port on the router
};

struct NextHopTable {
  std::size_t routers = 0;
  std::vector<NextHop> hops;  ///< [at*routers + dst], one 8-byte load
  std::unordered_map<std::size_t, Status> failures;
};

NextHopTable build_next_hop_table(const Topology& topology,
                                  const Routing& routing,
                                  const std::vector<bool>& dst_used) {
  const std::size_t routers = topology.router_count();
  NextHopTable table;
  table.routers = routers;
  table.hops.assign(routers * routers, NextHop{});
  for (std::size_t at = 0; at < routers; ++at) {
    const auto& outs = topology.out_links(at);
    for (std::size_t dst = 0; dst < routers; ++dst) {
      if (at == dst || !dst_used[dst]) continue;
      const std::size_t key = at * routers + dst;
      Route route;
      try {
        route = routing.route(topology, at, dst);
      } catch (const StatusError& e) {
        table.hops[key].link = kFailedHop;
        table.failures.emplace(key, e.status());
        continue;
      }
      if (route.empty()) {
        table.hops[key].link = kFailedHop;
        table.failures.emplace(
            key, Status(StatusCode::kExecutionError,
                        "simulate_network: empty route for transit from "
                        "router " + std::to_string(at) + " to " +
                        std::to_string(dst)));
        continue;
      }
      const std::size_t l = route.front();
      // Bounded scan for the local output port; a next-hop link that is
      // not an out-link of this router is a routing-function bug and is
      // reported instead of running off the end of the port list.
      std::size_t oi = 0;
      while (oi < outs.size() && outs[oi] != l) ++oi;
      if (oi == outs.size()) {
        table.hops[key].link = kFailedHop;
        table.failures.emplace(
            key, Status(StatusCode::kExecutionError,
                        "simulate_network: next-hop link " +
                            std::to_string(l) + " is not an out-link of "
                            "router " + std::to_string(at)));
        continue;
      }
      table.hops[key].link = static_cast<std::uint32_t>(l);
      table.hops[key].out_index = static_cast<std::uint32_t>(oi);
    }
  }
  return table;
}

/// Recompute-on-failure reroute: rebuild the next-hop table over the
/// surviving graph. One reverse BFS per used destination (minimal hop
/// count; ties broken by out-link order, so the result is deterministic
/// and independent of how the failure set was produced). Sources with
/// no live path get kFailedHop plus a kUnreachableRoute Status — the
/// fault-mode forwarding loop drops those flits instead of throwing.
void rebuild_live_routes(const Topology& topology,
                         const std::vector<bool>& dst_used,
                         const std::vector<std::vector<std::size_t>>& in_channels,
                         const std::vector<std::uint8_t>& link_alive,
                         const std::vector<std::uint8_t>& router_alive,
                         NextHopTable& table) {
  const std::size_t routers = topology.router_count();
  std::vector<std::uint32_t> dist(routers);
  std::vector<std::uint32_t> bfs_queue(routers);
  constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  for (std::size_t dst = 0; dst < routers; ++dst) {
    if (!dst_used[dst]) continue;
    std::fill(dist.begin(), dist.end(), kUnset);
    std::size_t qhead = 0;
    std::size_t qtail = 0;
    if (router_alive[dst]) {
      dist[dst] = 0;
      bfs_queue[qtail++] = static_cast<std::uint32_t>(dst);
    }
    while (qhead < qtail) {
      const std::size_t v = bfs_queue[qhead++];
      for (const std::size_t l : in_channels[v]) {
        if (!link_alive[l]) continue;
        const std::size_t u = topology.link(l).src;
        if (!router_alive[u] || dist[u] != kUnset) continue;
        dist[u] = dist[v] + 1;
        bfs_queue[qtail++] = static_cast<std::uint32_t>(u);
      }
    }
    for (std::size_t at = 0; at < routers; ++at) {
      if (at == dst) continue;
      const std::size_t key = at * routers + dst;
      NextHop& hop = table.hops[key];
      if (!router_alive[at]) {
        // Dead sources never forward; leave a failed entry so a stale
        // lookup is caught rather than followed.
        hop.link = kFailedHop;
        table.failures[key] =
            Status(StatusCode::kUnreachableRoute,
                   "simulate_network: router " + std::to_string(at) +
                       " failed");
        continue;
      }
      if (dist[at] == kUnset) {
        hop.link = kFailedHop;
        table.failures[key] =
            Status(StatusCode::kUnreachableRoute,
                   "simulate_network: no live route from router " +
                       std::to_string(at) + " to router " +
                       std::to_string(dst) +
                       (router_alive[dst] ? " after link/router failures"
                                          : " (destination router failed)"));
        continue;
      }
      const auto& outs = topology.out_links(at);
      for (std::size_t oi = 0; oi < outs.size(); ++oi) {
        const std::size_t l = outs[oi];
        if (!link_alive[l]) continue;
        const std::size_t w = topology.link(l).dst;
        if (!router_alive[w] || dist[w] == kUnset) continue;
        if (dist[w] + 1 != dist[at]) continue;
        hop.link = static_cast<std::uint32_t>(l);
        hop.out_index = static_cast<std::uint32_t>(oi);
        break;
      }
    }
  }
}

}  // namespace

FlitSimResult simulate_network(const Topology& topology,
                               const Routing& routing,
                               const TrafficPattern& traffic,
                               double injection_rate,
                               const FlitSimConfig& config,
                               const fault::FaultSchedule& faults) {
  const std::size_t modules = topology.module_count();
  const std::size_t routers = topology.router_count();
  const std::size_t channels = topology.link_count();
  if (traffic.modules() != modules) {
    throw std::invalid_argument("simulate_network: traffic mismatch");
  }

  // Per-destination cumulative distribution per source (flat row-major)
  // for fast sampling, plus the set of destination routers any flit can
  // ever target (only those routes are precomputed). Implicit patterns
  // skip the O(modules^2) CDF entirely and draw destinations in closed
  // form; any router may then be a destination. (The oracle still
  // keeps its dense next-hop table either way — the event core is the
  // O(routers)-memory path for big meshes.)
  const bool implicit = traffic.implicit_form();
  std::vector<double> cdf;
  std::vector<bool> dst_used(routers, implicit);
  if (!implicit) {
    cdf.resize(modules * modules);
    for (std::size_t s = 0; s < modules; ++s) {
      double acc = 0.0;
      for (std::size_t d = 0; d < modules; ++d) {
        const double p = traffic.probability(s, d);
        acc += p;
        cdf[s * modules + d] = acc;
        if (p > 0.0) dst_used[topology.module_router(d)] = true;
      }
    }
    // The sampler clamps to the last module when u exceeds the row total
    // (floating-point shortfall), so its router must be routable too.
    if (modules > 0) dst_used[topology.module_router(modules - 1)] = true;
  }

  std::vector<std::size_t> module_router(modules);
  for (std::size_t d = 0; d < modules; ++d) {
    module_router[d] = topology.module_router(d);
  }

  NextHopTable next_hop = build_next_hop_table(topology, routing, dst_used);

  // Flat link -> destination-router lookup for the forwarding hot path.
  std::vector<std::uint32_t> link_dst(channels);
  for (std::size_t l = 0; l < channels; ++l) {
    link_dst[l] = static_cast<std::uint32_t>(topology.link(l).dst);
  }

  // Preallocated FIFOs in one flat array — rings[0..channels) are the
  // channel queues (bounded by the buffer depth), rings[channels + r] is
  // router r's injection queue (starts small, doubles as needed).
  std::vector<FlitRing> rings(channels + routers);
  for (std::size_t l = 0; l < channels; ++l) {
    rings[l].reserve_pow2(std::min<std::size_t>(config.buffer_depth, 1024));
  }
  for (std::size_t r = 0; r < routers; ++r) {
    rings[channels + r].reserve_pow2(16);
  }
  std::vector<std::size_t> rr_state(routers, 0);  // round-robin pointer
  // Queued-flit count per router (injection + incoming channels): lets
  // the switch-allocation loop skip idle routers in O(1).
  std::vector<std::uint32_t> occupancy(routers, 0);

  // Flat per-router input-ring list: slot 0 is the injection queue,
  // then the incoming channels in link order (the same round-robin
  // order as scanning a per-router channel list).
  std::vector<std::vector<std::size_t>> in_channels(routers);
  for (std::size_t l = 0; l < channels; ++l) {
    in_channels[topology.link(l).dst].push_back(l);
  }
  std::vector<std::uint32_t> input_ids;
  input_ids.reserve(routers + channels);
  std::vector<std::size_t> input_offset(routers + 1, 0);
  for (std::size_t r = 0; r < routers; ++r) {
    input_offset[r] = input_ids.size();
    input_ids.push_back(static_cast<std::uint32_t>(channels + r));
    for (const std::size_t l : in_channels[r]) {
      input_ids.push_back(static_cast<std::uint32_t>(l));
    }
  }
  input_offset[routers] = input_ids.size();

  // Fault-mode state. `chaos` gates every injection point: with an
  // empty schedule none of this is touched and the cycle loop below is
  // the exact fault-free path (same RNG draws, same arbitration order).
  const bool chaos = !faults.events.empty();
  std::vector<std::uint8_t> link_alive;
  std::vector<std::uint8_t> router_alive;
  std::vector<bool> route_failure_seen;
  if (chaos) {
    link_alive.assign(channels, 1);
    router_alive.assign(routers, 1);
    route_failure_seen.assign(routers * routers, false);
  }
  std::size_t next_event = 0;
  constexpr std::size_t kMaxRouteFailures = 8;

  // Per-output-channel bandwidth budgets, hoisted out of the cycle loop:
  // one flat template refreshed into a scratch buffer per busy router.
  std::vector<std::size_t> budget_offset(routers + 1, 0);
  for (std::size_t r = 0; r < routers; ++r) {
    budget_offset[r + 1] = budget_offset[r] + topology.out_links(r).size();
  }
  std::vector<int> budget_template(budget_offset[routers]);
  std::size_t max_outs = 0;
  for (std::size_t r = 0; r < routers; ++r) {
    const auto& outs = topology.out_links(r);
    max_outs = std::max(max_outs, outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const int b = static_cast<int>(topology.link(outs[i]).bandwidth);
      budget_template[budget_offset[r] + i] = b < 1 ? 1 : b;
    }
  }
  std::vector<int> budget(max_outs);

  Rng rng(config.seed);
  FlitSimResult result;
  double latency_sum = 0.0;

  const std::uint64_t total_cycles = config.warmup_cycles +
                                     config.measure_cycles +
                                     config.drain_cycles;
  const std::uint64_t measure_begin = config.warmup_cycles;
  const std::uint64_t measure_end =
      config.warmup_cycles + config.measure_cycles;

  for (std::uint64_t cycle = 0; cycle < total_cycles; ++cycle) {
    const bool in_window = cycle >= measure_begin && cycle < measure_end;
    // 0. Fault activation: kill due entities, destroy their buffered
    //    flits, then recompute routes over the surviving graph.
    if (chaos && next_event < faults.events.size() &&
        faults.events[next_event].at_cycle <= cycle) {
      bool changed = false;
      const auto kill_link = [&](std::size_t l) {
        if (!link_alive[l]) return;
        link_alive[l] = 0;
        ++result.dead_links;
        // The channel ring is the input buffer the link feeds at its
        // downstream router: everything queued there dies with it.
        FlitRing& ring = rings[l];
        const std::size_t owner = link_dst[l];
        while (!ring.empty()) {
          if (ring.front().measured) ++result.dropped;
          ring.pop_front();
          --occupancy[owner];
        }
        changed = true;
      };
      while (next_event < faults.events.size() &&
             faults.events[next_event].at_cycle <= cycle) {
        const fault::FaultEvent& event = faults.events[next_event++];
        if (event.kind == fault::FaultEvent::Kind::kLink) {
          if (event.index < channels) kill_link(event.index);
          continue;
        }
        const std::size_t r = event.index;
        if (r >= routers || !router_alive[r]) continue;
        router_alive[r] = 0;
        ++result.dead_routers;
        // Out-link queues buffer at the downstream routers and drain
        // normally; the links themselves carry nothing further.
        for (const std::size_t l : topology.out_links(r)) {
          if (link_alive[l]) {
            link_alive[l] = 0;
            ++result.dead_links;
          }
        }
        for (const std::size_t l : in_channels[r]) kill_link(l);
        FlitRing& inject_ring = rings[channels + r];
        while (!inject_ring.empty()) {
          if (inject_ring.front().measured) ++result.dropped;
          inject_ring.pop_front();
          --occupancy[r];
        }
        changed = true;
      }
      if (changed) {
        rebuild_live_routes(topology, dst_used, in_channels, link_alive,
                            router_alive, next_hop);
      }
    }
    // 1. Injection: Bernoulli approximation of Poisson arrivals
    //    (injection_rate < 1 per module per cycle).
    if (cycle < measure_end) {
      for (std::size_t m = 0; m < modules; ++m) {
        if (!rng.bernoulli(injection_rate)) continue;
        std::size_t d;
        if (implicit) {
          d = traffic.sample(rng, m);
        } else {
          const double u = rng.uniform();
          const double* row = &cdf[m * modules];
          d = static_cast<std::size_t>(
              std::lower_bound(row, row + modules, u) - row);
          // Defensive clamp: float shortfall in the row total can push u
          // past the last CDF entry (construction-time validation keeps
          // genuinely bad matrices out; this guards roundoff only).
          if (d >= modules) d = modules - 1;
        }
        if (chaos && !router_alive[module_router[m]]) {
          // Dead source router: the module offered a packet the network
          // never accepted. Both RNG draws above still happened, so the
          // traffic sequence matches the fault-free run.
          if (in_window) {
            ++result.injected;
            ++result.dropped;
          }
          continue;
        }
        Flit flit;
        flit.dst_module = static_cast<std::uint32_t>(d);
        flit.dst_router = static_cast<std::uint32_t>(module_router[d]);
        flit.inject_cycle = cycle;
        flit.measured = in_window;
        flit.ready_cycle = cycle;
        if (flit.measured) ++result.injected;
        const std::size_t r = module_router[m];
        rings[channels + r].push_back(flit);
        ++occupancy[r];
      }
    }

    // 2. Switch allocation per router: each output channel (and the
    //    ejection port) accepts up to `bandwidth` flits per cycle,
    //    round-robin over the input queues (injection + incoming
    //    channels).
    for (std::size_t r = 0; r < routers; ++r) {
      // rr_state is kept reduced mod n_inputs, so the wrap-arounds below
      // are conditional subtractions instead of hardware divisions.
      const std::size_t input_base = input_offset[r];
      const std::size_t n_inputs = input_offset[r + 1] - input_base;
      if (occupancy[r] == 0) {
        // Idle router: nothing can move, only the round-robin pointer
        // advances (exactly as it would after scanning empty queues).
        const std::size_t bumped = rr_state[r] + 1;
        rr_state[r] = bumped == n_inputs ? 0 : bumped;
        continue;
      }
      // Budget per output channel this cycle.
      const std::size_t n_outs = budget_offset[r + 1] - budget_offset[r];
      if (n_outs > 0) {
        std::memcpy(budget.data(), &budget_template[budget_offset[r]],
                    n_outs * sizeof(int));
      }
      int eject_budget = 1;

      // Input queue list: index 0 = injection, then incoming channels.
      const std::size_t start = rr_state[r];
      for (std::size_t k = 0; k < n_inputs; ++k) {
        std::size_t qi = start + k;
        if (qi >= n_inputs) qi -= n_inputs;
        FlitRing& q = rings[input_ids[input_base + qi]];
        // Move as many head flits as outputs allow (one per output).
        // head_ready() folds "empty" and "head still in the pipeline"
        // into one cheap test.
        while (q.head_ready() <= cycle) {
          Flit& flit = q.front();
          if (flit.dst_router == r) {
            if (eject_budget <= 0) break;
            --eject_budget;
            // Delivered.
            if (flit.measured) {
              ++result.delivered;
              latency_sum += static_cast<double>(
                  cycle + config.router_delay_cycles - flit.inject_cycle);
            }
            q.pop_front();
            --occupancy[r];
            continue;
          }
          const std::size_t key = r * routers + flit.dst_router;
          const NextHop hop = next_hop.hops[key];
          if (hop.link >= kFailedHop) {
            if (chaos && hop.link == kFailedHop) {
              // Fault mode: the destination is cut off. Drop the flit
              // and surface the Status as result data, never a throw.
              if (flit.measured) ++result.unreachable;
              if (!route_failure_seen[key]) {
                route_failure_seen[key] = true;
                if (result.route_failures.size() < kMaxRouteFailures) {
                  result.route_failures.push_back(next_hop.failures.at(key));
                }
              }
              q.pop_front();
              --occupancy[r];
              continue;
            }
            // Surfaced once per simulation; kNoHop means the routing
            // table missed a reachable pair, which is a bug here.
            if (hop.link == kFailedHop) {
              throw StatusError(next_hop.failures.at(key));
            }
            throw StatusError(Status(
                StatusCode::kExecutionError,
                "simulate_network: no precomputed next hop for router " +
                    std::to_string(r) + " -> " +
                    std::to_string(flit.dst_router)));
          }
          if (budget[hop.out_index] <= 0) break;
          FlitRing& dst_queue = rings[hop.link];
          if (dst_queue.size() >= config.buffer_depth) break;
          --budget[hop.out_index];
          // A hop costs router_delay cycles total (pipeline + transfer),
          // matching the analytic model's per-hop latency.
          dst_queue.push_back_rescheduled(flit,
                                          cycle + config.router_delay_cycles);
          ++occupancy[link_dst[hop.link]];
          q.pop_front();
          --occupancy[r];
        }
      }
      const std::size_t bumped = rr_state[r] + 1;
      rr_state[r] = bumped == n_inputs ? 0 : bumped;
    }
  }

  result.mean_latency_cycles =
      result.delivered == 0 ? 0.0
                            : latency_sum / static_cast<double>(result.delivered);
  result.delivered_per_cycle =
      static_cast<double>(result.delivered) /
      (static_cast<double>(config.measure_cycles) *
       static_cast<double>(modules));
  // Stability: everything measured was eventually resolved (delivered,
  // or — in fault mode — terminally dropped; losses are accounted, not
  // stuck in a queue).
  result.stable = result.delivered + result.dropped + result.unreachable >=
                  result.injected * 995 / 1000;
  return result;
}

}  // namespace wi::noc::oracle
