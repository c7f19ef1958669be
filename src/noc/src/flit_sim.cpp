/// \file flit_sim.cpp
/// \brief Event-wheel + SoA flit simulator core with an optional
///        partitioned-parallel mode. Bit-identical at any
///        partition/thread count to the cycle-stepped oracle the noc
///        tests keep (tests/noc/flit_sim_oracle.cpp).
///
/// Three ideas, layered:
///
/// 1. Bitmap event wheel. A router only does work on a cycle where (a)
///    a flit becomes ready in one of its input rings, (b) its injection
///    stream offers a packet, or (c) a head it could not move may move
///    now. For (c), a head whose next ring is full waits for a credit:
///    the pop that frees a slot in a full ring wakes the ring's
///    upstream router — this cycle if that router has yet to turn in
///    ascending order, else the next — and a fault reroute wakes every
///    router with a due head or offer. Any other blocked head (output
///    or eject budget spent, or a full ring drained by another shard)
///    polls at c + 1. All wakes land within [c, c + delay], so a
///    power-of-two calendar wheel of delay+2 slots holds every pending
///    wake — and each slot is a router *bitmap*, not a list: scheduling
///    is a single idempotent OR (no dedup state, no stale-entry
///    filtering), draining a slot is a countr_zero walk that visits
///    routers in ascending index order (the oracle's within-cycle
///    order), and a spuriously-set bit costs one state-no-op turn.
///    Cycles with no due router, no injection, and no fault event are
///    skipped wholesale — the drain window after traffic stops costs
///    nothing, and neither does a deadlocked cycle of full rings.
///
/// 2. Cache-conscious flit records. A flit is one 16-byte record
///    (ready cycle; meta = inject cycle | destination router << 37 |
///    measured << 63) that travels unchanged hop to hop — push and pop
///    touch one cache line where an unpacked layout touches three. The
///    injection queue is virtual and uses the same meta format: the
///    whole Bernoulli schedule is materialised from the seed in one
///    pass (the RNG stream never depends on network state) and consumed
///    through a cursor; destination sampling accelerates the oracle's
///    lower_bound with a guide table whose final comparisons are the
///    oracle's bit for bit. The round-robin arbitration pointer
///    advances exactly once per router per cycle, so it is derived as
///    cycle mod n_inputs, and on the (ubiquitous) all-bandwidth-1
///    topologies the per-output budgets collapse to one u32 mask held
///    in a register for the whole turn. The packing caps the core at
///    2^26 routers, 2^37 total cycles, and 2^16-1 buffer depth;
///    simulate_network rejects configs beyond those limits.
///
/// 3. Partitioned parallelism. Routers are sharded into contiguous
///    index ranges. Shard k may execute cycle c once every coupled
///    lower shard has completed c and every coupled higher shard has
///    completed c-1 — the same low-to-high information flow as the
///    sequential loop, so cross-shard ring accesses need no locks
///    (coupled shards provably never run concurrently). Cross-shard
///    wakes travel through SPSC mailboxes; idle shards skip ahead up to
///    min over coupled neighbours of (their progress + delay), which no
///    in-flight wake can undercut. Credit wakes stay inside a shard: a
///    head blocked on a ring that another shard drains keeps polling.
///    Fault cycles are global barriers: the last shard to arrive
///    applies the kill events and reroute for everyone, and each shard
///    then wakes its own stalled routers. Counters are per-shard and
///    merged in shard order, so results are bit-identical at any
///    partition and thread count.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "wi/noc/flit_sim.hpp"

#include "wi/common/rng.hpp"
#include "wi/common/status.hpp"
#include "wi/noc/mesh_grid.hpp"
#include "wi/noc/routing.hpp"

namespace wi::noc {

namespace {

using std::size_t;
using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

constexpr u64 kNever = ~u64{0};
constexpr u8 kNoPort = 0xFF;      ///< pair never routed (unused dst)
constexpr u8 kFailedPort = 0xFE;  ///< routing failed; Status recorded
constexpr u8 kEject = 0xFD;       ///< cached port: flit is at its dst
constexpr size_t kMaxRouteFailures = 8;
/// Flit meta word: inject cycle | dst router << 37 | measured << 63.
constexpr unsigned kCycBits = 37;
constexpr u64 kCycMask = (u64{1} << kCycBits) - 1;
constexpr unsigned kDstBits = 26;
constexpr u32 kDstMask = (u32{1} << kDstBits) - 1;
/// Mailbox entries pack (wake cycle << kDstBits) | router.
constexpr unsigned kRouterBits = kDstBits;

/// cycle mod n_inputs with compiler-strength-reduced constants for the
/// small port counts every mesh router has (the hot path runs this once
/// per turn; a hardware 64-bit division would dominate small turns).
inline u32 fast_mod(u64 c, u32 n) {
  switch (n) {
    case 1: return 0;
    case 2: return static_cast<u32>(c & 1);
    case 3: return static_cast<u32>(c % 3);
    case 4: return static_cast<u32>(c & 3);
    case 5: return static_cast<u32>(c % 5);
    case 6: return static_cast<u32>(c % 6);
    case 7: return static_cast<u32>(c % 7);
    case 8: return static_cast<u32>(c & 7);
    case 9: return static_cast<u32>(c % 9);
    default: return static_cast<u32>(c % n);
  }
}

/// (router, dst_router) -> local output port, one byte per pair (the
/// oracle's table stores link + port in 8 bytes; the port alone recovers
/// both through the per-router out-link arrays, shrinking the table 8x
/// so 16^3 meshes stay cache-resident).
struct PortTable {
  std::vector<u8> port;  ///< [at * routers + dst]
  std::unordered_map<size_t, Status> failures;
};

PortTable build_port_table(const Topology& topology, const Routing& routing,
                           const std::vector<bool>& dst_used) {
  const size_t routers = topology.router_count();
  PortTable table;
  table.port.assign(routers * routers, kNoPort);
  for (size_t at = 0; at < routers; ++at) {
    const auto& outs = topology.out_links(at);
    if (outs.size() >= kFailedPort) {
      throw StatusError(Status(
          StatusCode::kExecutionError,
          "simulate_network: router " + std::to_string(at) + " has " +
              std::to_string(outs.size()) +
              " output ports; the event core's byte-wide port table "
              "supports at most 253"));
    }
    for (size_t dst = 0; dst < routers; ++dst) {
      if (at == dst || !dst_used[dst]) continue;
      const size_t key = at * routers + dst;
      size_t l;
      try {
        l = routing.first_hop(topology, at, dst);
      } catch (const StatusError& e) {
        table.port[key] = kFailedPort;
        table.failures.emplace(key, e.status());
        continue;
      }
      size_t oi = 0;
      while (oi < outs.size() && outs[oi] != l) ++oi;
      if (oi == outs.size()) {
        table.port[key] = kFailedPort;
        table.failures.emplace(
            key, Status(StatusCode::kExecutionError,
                        "simulate_network: next-hop link " +
                            std::to_string(l) + " is not an out-link of "
                            "router " + std::to_string(at)));
        continue;
      }
      table.port[key] = static_cast<u8>(oi);
    }
  }
  return table;
}

/// Single-producer single-consumer wake mailbox. Capacity is sized from
/// the crossing-link bandwidth so a push can never find it full while
/// the staircase protocol holds (the producer runs at most ~2 cycles
/// past the consumer's last drain); the bounded spin below is a
/// backstop that turns a protocol bug into an error instead of a hang.
struct WakeQueue {
  explicit WakeQueue(size_t cap_pow2) : buf(cap_pow2), mask(cap_pow2 - 1) {}
  std::vector<u64> buf;
  size_t mask;
  alignas(64) std::atomic<u64> head{0};
  alignas(64) std::atomic<u64> tail{0};

  [[nodiscard]] bool try_push(u64 v) {
    const u64 t = tail.load(std::memory_order_relaxed);
    if (t - head.load(std::memory_order_acquire) > mask) return false;
    buf[t & mask] = v;
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
  [[nodiscard]] bool try_pop(u64& v) {
    const u64 h = head.load(std::memory_order_relaxed);
    if (h == tail.load(std::memory_order_acquire)) return false;
    v = buf[h & mask];
    head.store(h + 1, std::memory_order_release);
    return true;
  }
};

/// One contiguous router range plus everything only its owner touches.
struct Shard {
  u32 id = 0;
  u32 begin = 0;
  u32 end = 0;
  // Bitmap event wheel: W slots x words router bitmaps. A set bit means
  // "turn this router at the next occurrence of this slot". Bits are
  // only ever set by this shard (or drained from its mailboxes), words
  // are private per shard, and a wake always lands within W-2 cycles of
  // the setter, so each live bit's cycle is exactly the first
  // occurrence of its slot at or after the shard's progress cursor.
  std::vector<u64> wheel;  ///< [slot * words + word]
  size_t words = 0;
  size_t word_base = 0;
  // Injection wake stream: (cycle << kRouterBits | router) of every
  // cycle a router in this shard receives at least one offered packet.
  std::vector<u64> gw;
  size_t gw_pos = 0;
  // Coupled neighbour shards (share at least one link, either
  // direction) and the producers with a mailbox into this shard.
  std::vector<u32> coupled;
  std::vector<u32> in_mail;
  // Scratch + counters (merged in shard order at the end).
  std::vector<int> budget;
  u64 delivered = 0;
  u64 dropped = 0;
  u64 unreachable = 0;
  u64 latency = 0;  ///< exact integer sum; converted to double once
  u64 turns = 0;
  struct Fail {
    u64 cycle;
    u32 router;
    Status status;
  };
  std::vector<Fail> fails;
  /// Completed-cycle progress, encoded as completed+1 (0 = none yet).
  alignas(64) std::atomic<u64> p1{0};
  size_t barrier_idx = 0;
  bool at_barrier = false;
  bool done = false;
};

class EventCore {
 public:
  EventCore(const Topology& topology, const Routing& routing,
            const TrafficPattern& traffic, double injection_rate,
            const FlitSimConfig& config, const fault::FaultSchedule& faults);
  FlitSimResult run();

 private:
  void schedule(Shard& sh, u32 r, u64 t) {
    sh.wheel[(t & wmask_) * sh.words +
             ((static_cast<size_t>(r) >> 6) - sh.word_base)] |=
        u64{1} << (r & 63);
  }
  void send_wake(Shard& sh, u32 owner, u64 t);
  void drain_mail(Shard& sh);
  /// Flit at router r has no live next hop toward dstr: drop + record
  /// the Status once per pair in fault mode, throw otherwise.
  void drop_unroutable(Shard& sh, u32 r, u64 c, u32 dstr, bool measured,
                       u8 p);
  template <bool BW1, bool GRID>
  void turn(Shard& sh, u32 r, u64 c);
  template <bool BW1, bool GRID>
  void execute_cycle(Shard& sh, u64 c);
  u64 shard_next_work(Shard& sh, u64 p1v);
  bool step(Shard& sh);
  void apply_faults_at(u64 cycle);
  void rebuild_live_ports();

  const Topology& topology_;
  const FlitSimConfig& config_;
  const fault::FaultSchedule& faults_;
  size_t modules_ = 0;
  size_t routers_ = 0;
  size_t channels_ = 0;
  u64 delay_ = 0;
  u64 total_ = 0;
  u64 measure_begin_ = 0;
  u64 measure_end_ = 0;
  u32 depth_ = 0;

  std::vector<bool> dst_used_;
  PortTable ports_;
  // Computed next-hop for regular meshes under dimension-order routing:
  // replaces the O(routers^2) port table with O(routers) state. Faults
  // rebuild dense tables, so chaos mode always uses ports_.
  std::optional<MeshGrid> grid_;
  bool use_grid_ = false;
  std::vector<std::vector<size_t>> in_channels_;
  // Flat per-router output arrays: out_off_[r]..out_off_[r+1] indexes
  // (ring | downstream router << 32) words and the bandwidth template.
  std::vector<size_t> out_off_;
  std::vector<u64> out_rd_;
  std::vector<int> budget_template_;
  std::vector<u32> n_inputs_;
  // All-links-bandwidth-1 fast path: the per-turn budget array becomes
  // a per-router bitmask of outputs that may still send this cycle.
  bool bw1_ = false;
  std::vector<u32> out_mask_;
  // Ring storage: rings re-indexed so each router's input-channel rings
  // are contiguous (chin_off_[r]..chin_off_[r+1]), in ascending link
  // order (the oracle's round-robin order). Slot j of ring rid is the
  // 16-byte record f_[((rid << cap_shift_) + j) * 2] = ready cycle,
  // [... + 1] = meta.
  std::vector<size_t> chin_off_;
  std::vector<u32> ring_of_link_;
  std::vector<u32> ring_owner_;  ///< ring -> router whose input it is
  std::vector<u32> ring_src_;    ///< ring -> router that pushes into it
  size_t cap_shift_ = 0;
  u32 cap_mask_ = 0;
  std::vector<u64> f_;
  std::vector<u32> qhs_;  ///< head | size << 16
  std::vector<u64> hr_;   ///< head-ready mirror, kNever when empty
  /// Cached output port per occupied slot: the port the flit will want
  /// at the ring's owner (kEject when the owner is its destination).
  /// Computed once at push time — a blocked head retried every cycle
  /// costs a byte load instead of a meta decode + port-table walk —
  /// and refreshed wholesale when a fault rebuild changes the table.
  std::vector<u8> pp_;
  // Precomputed injection schedule (cycle-major per router, meta-word
  // entries), the next offer cycle per router, and the global
  // measured-offer count.
  std::vector<size_t> inj_off_;
  std::vector<size_t> inj_cur_;
  std::vector<u64> inj_next_;  ///< next offer cycle, kNever when spent
  std::vector<u64> inj_;
  u64 injected_total_ = 0;
  // Wheel geometry.
  size_t W_ = 0;
  u64 wmask_ = 0;
  // Shards.
  size_t S_ = 1;
  size_t T_ = 1;
  std::vector<u32> shard_of_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<WakeQueue>> mail_;  ///< [producer * S + consumer]
  // Fault mode.
  bool chaos_ = false;
  std::vector<u8> link_alive_;
  std::vector<u8> router_alive_;
  std::vector<u8> seen_;
  size_t fault_pos_ = 0;
  std::vector<u64> barriers_;
  std::unique_ptr<std::atomic<u32>[]> arrivals_;
  std::unique_ptr<std::atomic<u8>[]> barrier_done_;
  u64 fault_dropped_ = 0;
  u64 dead_links_ = 0;
  u64 dead_routers_ = 0;
  std::atomic<bool> abort_{false};
};

EventCore::EventCore(const Topology& topology, const Routing& routing,
                     const TrafficPattern& traffic, double injection_rate,
                     const FlitSimConfig& config,
                     const fault::FaultSchedule& faults)
    : topology_(topology), config_(config), faults_(faults) {
  modules_ = topology.module_count();
  routers_ = topology.router_count();
  channels_ = topology.link_count();
  if (traffic.modules() != modules_) {
    throw std::invalid_argument("simulate_network: traffic mismatch");
  }
  delay_ = config.router_delay_cycles;
  total_ = config.warmup_cycles + config.measure_cycles + config.drain_cycles;
  measure_begin_ = config.warmup_cycles;
  measure_end_ = config.warmup_cycles + config.measure_cycles;
  // The wheel bounds wake horizons by the pipeline delay, so a zero
  // delay would allow same-cycle wakes; the rest are packing limits.
  if (delay_ < 1 || routers_ >= (size_t{1} << kDstBits) ||
      total_ + delay_ >= (u64{1} << kCycBits) ||
      config.buffer_depth >= (size_t{1} << 16)) {
    throw std::invalid_argument(
        "simulate_network: config outside the event core's limits (needs "
        "router_delay_cycles >= 1, routers < 2^26, "
        "warmup+measure+drain+delay < 2^37, buffer depth < 2^16)");
  }
  depth_ = static_cast<u32>(config.buffer_depth);

  chaos_ = !faults.events.empty();

  // --- traffic cdf + used destinations (identical to the oracle;
  // the sampler clamps to the last module, so its router is routable).
  // Implicit patterns never build the O(modules^2) CDF: destinations
  // come from the closed-form sampler, and any router may be a target.
  const bool implicit = traffic.implicit_form();
  std::vector<double> cdf;
  dst_used_.assign(routers_, implicit);
  if (!implicit) {
    cdf.resize(modules_ * modules_);
    for (size_t s = 0; s < modules_; ++s) {
      double acc = 0.0;
      for (size_t d = 0; d < modules_; ++d) {
        const double p = traffic.probability(s, d);
        acc += p;
        cdf[s * modules_ + d] = acc;
        if (p > 0.0) dst_used_[topology.module_router(d)] = true;
      }
    }
    if (modules_ > 0) dst_used_[topology.module_router(modules_ - 1)] = true;
  }
  std::vector<size_t> module_router(modules_);
  for (size_t d = 0; d < modules_; ++d) {
    module_router[d] = topology.module_router(d);
  }

  // --- next-hop state. A regular mesh under dimension-order routing
  // gets the computed O(routers) grid (the port it yields is the dense
  // table's port bit for bit — see MeshGrid — so results are unchanged);
  // anything else, and fault mode (which rewrites tables per failure),
  // keeps the dense O(routers^2) port table.
  if (!chaos_ &&
      dynamic_cast<const DimensionOrderRouting*>(&routing) != nullptr) {
    grid_ = MeshGrid::analyze(topology);
  }
  use_grid_ = grid_.has_value();
  if (!use_grid_) {
    ports_ = build_port_table(topology, routing, dst_used_);
  }

  // --- flat output arrays + input-channel lists.
  in_channels_.assign(routers_, {});
  for (size_t l = 0; l < channels_; ++l) {
    in_channels_[topology.link(l).dst].push_back(l);
  }
  out_off_.assign(routers_ + 1, 0);
  for (size_t r = 0; r < routers_; ++r) {
    out_off_[r + 1] = out_off_[r] + topology.out_links(r).size();
  }
  std::vector<u32> out_link(out_off_[routers_]);
  out_rd_.resize(out_off_[routers_]);
  budget_template_.resize(out_off_[routers_]);
  size_t max_outs = 0;
  for (size_t r = 0; r < routers_; ++r) {
    const auto& outs = topology.out_links(r);
    max_outs = std::max(max_outs, outs.size());
    for (size_t i = 0; i < outs.size(); ++i) {
      const size_t l = outs[i];
      out_link[out_off_[r] + i] = static_cast<u32>(l);
      out_rd_[out_off_[r] + i] = static_cast<u64>(topology.link(l).dst) << 32;
      const int b = static_cast<int>(topology.link(l).bandwidth);
      budget_template_[out_off_[r] + i] = b < 1 ? 1 : b;
    }
  }
  bw1_ = max_outs <= 32;
  for (const int b : budget_template_) bw1_ = bw1_ && b == 1;
  if (bw1_) {
    out_mask_.assign(routers_, 0);
    for (size_t r = 0; r < routers_; ++r) {
      const size_t n_outs = out_off_[r + 1] - out_off_[r];
      out_mask_[r] = n_outs >= 32 ? ~u32{0} : (u32{1} << n_outs) - 1;
    }
  }

  // --- ring storage, re-indexed so a router's input rings are
  // contiguous.
  size_t cap = 1;
  while (cap < std::max<size_t>(depth_, 1)) cap <<= 1;
  cap_shift_ = static_cast<size_t>(std::countr_zero(cap));
  cap_mask_ = static_cast<u32>(cap - 1);
  chin_off_.assign(routers_ + 1, 0);
  ring_of_link_.assign(channels_, 0);
  ring_owner_.assign(channels_, 0);
  ring_src_.assign(channels_, 0);
  n_inputs_.assign(routers_, 1);
  {
    size_t rid = 0;
    for (size_t r = 0; r < routers_; ++r) {
      chin_off_[r] = rid;
      for (const size_t l : in_channels_[r]) {
        ring_owner_[rid] = static_cast<u32>(r);
        ring_src_[rid] = static_cast<u32>(topology.link(l).src);
        ring_of_link_[l] = static_cast<u32>(rid++);
      }
      n_inputs_[r] = static_cast<u32>(1 + in_channels_[r].size());
    }
    chin_off_[routers_] = rid;
  }
  for (size_t i = 0; i < out_rd_.size(); ++i) {
    out_rd_[i] |= ring_of_link_[out_link[i]];
  }
  f_.assign((channels_ << cap_shift_) * 2, 0);
  qhs_.assign(channels_, 0);
  hr_.assign(channels_, kNever);
  pp_.assign(channels_ << cap_shift_, kNoPort);

  // --- wheel geometry: wakes span [c, c + delay] plus the c+1 blocked
  // poll, so delay+2 pow2 slots are unambiguous.
  W_ = 1;
  while (W_ < static_cast<size_t>(delay_) + 2) W_ <<= 1;
  wmask_ = W_ - 1;

  // --- shards: contiguous balanced ranges.
  S_ = config.partitions != 0 ? config.partitions
                              : (config.threads != 0
                                     ? config.threads
                                     : std::max<size_t>(
                                           1, std::thread::hardware_concurrency()));
  S_ = std::max<size_t>(1, std::min(S_, std::max<size_t>(routers_, 1)));
  T_ = config.threads != 0
           ? config.threads
           : std::max<size_t>(1, std::thread::hardware_concurrency());
  T_ = std::min(T_, S_);
  shard_of_.assign(routers_, 0);
  shards_.clear();
  for (size_t k = 0; k < S_; ++k) {
    auto sh = std::make_unique<Shard>();
    sh->id = static_cast<u32>(k);
    sh->begin = static_cast<u32>(k * routers_ / S_);
    sh->end = static_cast<u32>((k + 1) * routers_ / S_);
    for (u32 r = sh->begin; r < sh->end; ++r) shard_of_[r] = sh->id;
    if (sh->end > sh->begin) {
      sh->word_base = sh->begin >> 6;
      sh->words = ((sh->end - 1) >> 6) - sh->word_base + 1;
    }
    sh->wheel.assign(W_ * sh->words, 0);
    sh->budget.resize(max_outs);
    shards_.push_back(std::move(sh));
  }
  // Coupled pairs + mailboxes, capacity from crossing bandwidth.
  if (S_ > 1) {
    std::vector<size_t> cross(S_ * S_, 0);
    for (size_t l = 0; l < channels_; ++l) {
      const u32 a = shard_of_[topology.link(l).src];
      const u32 b = shard_of_[topology.link(l).dst];
      if (a == b) continue;
      const int bw = static_cast<int>(topology.link(l).bandwidth);
      cross[a * S_ + b] += static_cast<size_t>(bw < 1 ? 1 : bw);
    }
    mail_.resize(S_ * S_);
    for (size_t a = 0; a < S_; ++a) {
      for (size_t b = 0; b < S_; ++b) {
        if (cross[a * S_ + b] == 0) continue;
        size_t mc = 1;
        while (mc < 8 * cross[a * S_ + b] + 64) mc <<= 1;
        mail_[a * S_ + b] = std::make_unique<WakeQueue>(mc);
        shards_[b]->in_mail.push_back(static_cast<u32>(a));
        shards_[a]->coupled.push_back(static_cast<u32>(b));
        shards_[b]->coupled.push_back(static_cast<u32>(a));
      }
    }
    for (auto& sh : shards_) {
      std::sort(sh->coupled.begin(), sh->coupled.end());
      sh->coupled.erase(std::unique(sh->coupled.begin(), sh->coupled.end()),
                        sh->coupled.end());
      std::sort(sh->in_mail.begin(), sh->in_mail.end());
    }
  }

  // --- injection precompute: one pass over the oracle's exact RNG draw
  // sequence (bernoulli, then uniform + lower_bound on a hit) for every
  // (cycle < measure_end, module) pair. The stream is state-independent,
  // so materialising it up front cannot change it. Hits append to one
  // flat draw-order buffer and a stable counting sort by source router
  // produces the per-router cycle-major streams.
  inj_off_.assign(routers_ + 1, 0);
  {
    const u64 inj_end = std::min(measure_end_, total_);
    // Guide table: g[m * K + k] = lower_bound(row_m, k / K). The per-hit
    // search resumes near where lower_bound would land; the guard loops
    // below re-run the oracle's comparisons (row[d] < u), so the sampled
    // destination is bit-identical even at bucket-boundary roundoff.
    // Implicit patterns have no CDF and need no guide.
    const size_t K = implicit ? 0 : modules_;
    const double Kd = static_cast<double>(K);
    std::vector<u32> guide(modules_ * K);
    for (size_t m = 0; m < modules_ && !implicit; ++m) {
      const double* row = &cdf[m * modules_];
      size_t i = 0;
      for (size_t k = 0; k < K; ++k) {
        const double lo = static_cast<double>(k) / Kd;
        while (i < modules_ && row[i] < lo) ++i;
        guide[m * K + k] = static_cast<u32>(i);
      }
    }
    // bernoulli(p) draws one generator step x and tests
    // (x >> 11) * 2^-53 < p; the power-of-two product is exact, so the
    // test is equivalently (x >> 11) < ceil(p * 2^53) in pure integer
    // space — the branch no longer waits on an int->double conversion.
    const u64 thresh =
        injection_rate <= 0.0
            ? 0
            : injection_rate >= 1.0
                  ? (u64{1} << 53)
                  : static_cast<u64>(std::ceil(injection_rate * 0x1.0p53));
    std::vector<u64> tmp_meta;
    std::vector<u32> tmp_r;
    const double est = injection_rate * static_cast<double>(inj_end) *
                       static_cast<double>(modules_);
    size_t cap_tmp = static_cast<size_t>(est * 1.10) + 4096;
    tmp_meta.resize(cap_tmp);
    tmp_r.resize(cap_tmp);
    u64* tm = tmp_meta.data();
    u32* tr = tmp_r.data();
    size_t n = 0;
    size_t n_at_begin = kNever;
    Rng rng(config.seed);
    for (u64 cycle = 0; cycle < inj_end; ++cycle) {
      if (cycle == measure_begin_) n_at_begin = n;
      const u64 mbit =
          cycle >= measure_begin_ && cycle < measure_end_ ? u64{1} << 63 : 0;
      if (n + modules_ > cap_tmp) {
        cap_tmp = cap_tmp * 2 + modules_;
        tmp_meta.resize(cap_tmp);
        tmp_r.resize(cap_tmp);
        tm = tmp_meta.data();
        tr = tmp_r.data();
      }
      for (size_t m = 0; m < modules_; ++m) {
        // The Bernoulli hit test consumes one generator step, exactly
        // like the oracle loop's rng.bernoulli; on a hit the dense path
        // draws one uniform for its CDF search and the implicit path
        // hands the RNG to the pattern's closed-form sampler. Either
        // way the stream never depends on network state.
        const u64 x = rng.raw();
        if ((x >> 11) >= thresh) continue;
        size_t d;
        if (implicit) {
          d = traffic.sample(rng, m);
        } else {
          const double u = rng.uniform();
          const double* row = &cdf[m * modules_];
          size_t k = static_cast<size_t>(u * Kd);
          if (k >= K) k = K - 1;
          d = guide[m * K + k];
          while (d > 0 && row[d - 1] >= u) --d;
          while (d < modules_ && row[d] < u) ++d;
          if (d >= modules_) d = modules_ - 1;
        }
        tm[n] = cycle | (static_cast<u64>(module_router[d]) << kCycBits) | mbit;
        tr[n] = static_cast<u32>(module_router[m]);
        ++n;
      }
    }
    injected_total_ = n - (n_at_begin == kNever ? n : n_at_begin);
    // Histogram + injection-wake streams in one post-pass (draw order is
    // cycle-major, so consecutive-duplicate dedup matches the inline
    // form), then a stable counting-sort scatter into per-router
    // cycle-major streams.
    std::vector<size_t> count(routers_, 0);
    u64 last_gw = kNever;
    for (size_t i = 0; i < n; ++i) {
      const u32 r = tr[i];
      ++count[r];
      const u64 gw_entry = ((tm[i] & kCycMask) << kRouterBits) | r;
      if (gw_entry != last_gw) {
        last_gw = gw_entry;
        shards_[shard_of_[r]]->gw.push_back(gw_entry);
      }
    }
    for (size_t r = 0; r < routers_; ++r) {
      inj_off_[r + 1] = inj_off_[r] + count[r];
    }
    inj_.resize(inj_off_[routers_]);
    std::vector<size_t> at(inj_off_.begin(), inj_off_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      inj_[at[tr[i]]++] = tm[i];
    }
    inj_cur_ = inj_off_;  // cursor starts at each router's first entry
    inj_cur_.pop_back();
    inj_next_.assign(routers_, kNever);
    for (size_t r = 0; r < routers_; ++r) {
      if (count[r] > 0) inj_next_[r] = inj_[inj_off_[r]] & kCycMask;
    }
  }

  // --- fault mode: alive maps, per-pair failure dedup, and the global
  // barrier schedule (head-driven, exactly the cycles where the oracle
  // loop's `head.at_cycle <= cycle` test first fires).
  if (chaos_) {
    link_alive_.assign(channels_, 1);
    router_alive_.assign(routers_, 1);
    seen_.assign(routers_ * routers_, 0);
    size_t pos = 0;
    while (pos < faults.events.size() &&
           faults.events[pos].at_cycle < total_) {
      const u64 c = faults.events[pos].at_cycle;
      barriers_.push_back(c);
      while (pos < faults.events.size() &&
             faults.events[pos].at_cycle <= c) {
        ++pos;
      }
    }
    if (!barriers_.empty()) {
      arrivals_ = std::make_unique<std::atomic<u32>[]>(barriers_.size());
      barrier_done_ = std::make_unique<std::atomic<u8>[]>(barriers_.size());
      for (size_t i = 0; i < barriers_.size(); ++i) {
        arrivals_[i].store(0, std::memory_order_relaxed);
        barrier_done_[i].store(0, std::memory_order_relaxed);
      }
    }
  }
}

void EventCore::send_wake(Shard& sh, u32 owner, u64 t) {
  const u32 os = shard_of_[owner];
  if (os == sh.id) {
    schedule(sh, owner, t);
    return;
  }
  WakeQueue& q = *mail_[sh.id * S_ + os];
  const u64 v = (t << kRouterBits) | owner;
  size_t spins = 0;
  while (!q.try_push(v)) {
    if (++spins > (size_t{1} << 22)) {
      throw StatusError(Status(StatusCode::kExecutionError,
                               "simulate_network: cross-shard wake mailbox "
                               "overflow (partition protocol bug)"));
    }
    std::this_thread::yield();
  }
}

void EventCore::drain_mail(Shard& sh) {
  for (const u32 p : sh.in_mail) {
    WakeQueue& q = *mail_[static_cast<size_t>(p) * S_ + sh.id];
    u64 v;
    while (q.try_pop(v)) {
      schedule(sh, static_cast<u32>(v & ((u32{1} << kRouterBits) - 1)),
               v >> kRouterBits);
    }
  }
}

void EventCore::drop_unroutable(Shard& sh, const u32 r, const u64 c,
                                const u32 dstr, const bool measured,
                                const u8 p) {
  const size_t key = static_cast<size_t>(r) * routers_ + dstr;
  if (chaos_ && p == kFailedPort) {
    // Destination cut off by a fault: drop, surface the Status once
    // per (source, destination) pair, never throw.
    if (measured) ++sh.unreachable;
    if (!seen_[key]) {
      seen_[key] = 1;
      sh.fails.push_back({c, r, ports_.failures.at(key)});
    }
    return;
  }
  if (p == kFailedPort) throw StatusError(ports_.failures.at(key));
  throw StatusError(Status(
      StatusCode::kExecutionError,
      "simulate_network: no precomputed next hop for router " +
          std::to_string(r) + " -> " + std::to_string(dstr)));
}

template <bool BW1, bool GRID>
void EventCore::turn(Shard& sh, const u32 r, const u64 c) {
  ++sh.turns;
  // Hoist the hot arrays (and the scalars the loop re-derives indices
  // from) into locals: stores through raw element pointers cannot alias
  // the vector control blocks or `this`, so the compiler keeps every
  // base address in a register across the loop instead of reloading it
  // after each store.
  u64* const f = f_.data();
  u32* const qhs = qhs_.data();
  u64* const hr = hr_.data();
  u8* const pp = pp_.data();
  const u64* const ord = out_rd_.data();
  // GRID mode computes the next-hop port from packed coordinates; the
  // dense table is never allocated then.
  const u8* const pt = ports_.port.data();
  const MeshGrid* const grid = GRID ? &*grid_ : nullptr;
  const size_t csh = cap_shift_;
  const u32 cmask = cap_mask_;
  const u32 dep = depth_;
  const u64 del = delay_;
  const size_t nrouters = routers_;
  const size_t ob = out_off_[r];
  u32 obud = 0;
  int* bud = nullptr;
  if constexpr (BW1) {
    obud = out_mask_[r];
  } else {
    bud = sh.budget.data();
    const size_t n_outs = out_off_[r + 1] - ob;
    if (n_outs > 0) {
      std::memcpy(bud, &budget_template_[ob], n_outs * sizeof(int));
    }
  }
  int eject_budget = 1;
  const u32 n_in = n_inputs_[r];
  const u32 start = fast_mod(c, n_in);
  const u8* prow = GRID ? nullptr : pt + static_cast<size_t>(r) * nrouters;
  const size_t cb = chin_off_[r];
  const size_t ce = chin_off_[r + 1];
  const u32 sh_begin = sh.begin;
  const u32 sh_size = sh.end - sh.begin;
  /// A router of this shard (one unsigned compare: ranges are contiguous).
  const auto in_shard = [&](u32 x) { return x - sh_begin < sh_size; };
  const auto has_budget = [&](u8 p) {
    if constexpr (BW1) {
      return ((obud >> p) & 1u) != 0;
    } else {
      return bud[p] > 0;
    }
  };

  /// Append flit record m to the ring named by rd (= ring | owner
  /// router << 32) whose pre-checked cursor word is hs2. The caller has
  /// already consumed budget and verified the ring has room. Caches the
  /// output port the flit will want at the receiving router.
  const auto push_flit = [&](u64 rd, u32 hs2, u64 m) {
    const u32 drid = static_cast<u32>(rd);
    qhs[drid] = hs2 + 0x10000;
    const size_t si = (static_cast<size_t>(drid) << csh) +
                      (((hs2 & 0xFFFFu) + (hs2 >> 16)) & cmask);
    const u64 ready = c + del;
    f[si * 2] = ready;
    f[si * 2 + 1] = m;
    const u32 owner = static_cast<u32>(rd >> 32);
    const u32 fdst = static_cast<u32>(m >> kCycBits) & kDstMask;
    if constexpr (GRID) {
      pp[si] = fdst == owner ? kEject : grid->next_port(owner, fdst);
    } else {
      pp[si] = fdst == owner
                   ? kEject
                   : pt[static_cast<size_t>(owner) * nrouters + fdst];
    }
    if (!(hs2 >> 16)) hr[drid] = ready;
    send_wake(sh, owner, ready);
  };

  // One round-robin pass = rings [start-1, n_in-1), the virtual
  // injection ring, then rings [0, start-1) — i.e. the rotation
  // start, start+1, ..., n_in-1, 0, 1, ..., start-1 with the
  // injection queue at rotational position 0. `open` goes false once
  // every output budget and the eject budget are spent: no later input
  // can move anything, so the rest of the pass is skipped (only valid
  // in clean mode — a fault-era head with a dead route is consumed
  // without budget, so those passes run to the end). `poll` records
  // that a head or offer stalled for a reason only time clears (a spent
  // budget, an unexamined input, or a full ring another shard drains);
  // one stalled on a full ring of this shard waits for its credit.
  bool open = true;
  bool poll = false;
  const auto drain_rings = [&](size_t lo, size_t hi) {
    for (size_t base = lo; base < hi && open; base += 64) {
      // Branchless ready-set gather: hr_ for this router's rings is
      // contiguous, so the readiness tests issue in parallel instead of
      // serialising one dependent-load chain per ring.
      const size_t n = std::min<size_t>(hi - base, 64);
      u64 rmask = 0;
      for (size_t j = 0; j < n; ++j) {
        rmask |= static_cast<u64>(hr[base + j] <= c) << j;
      }
      while (rmask) {
        const size_t rid = base + static_cast<size_t>(std::countr_zero(rmask));
        rmask &= rmask - 1;
        for (;;) {
          const u32 hs = qhs[rid];
          const size_t si = (rid << csh) + (hs & 0xFFFFu);
          const u8 p = pp[si];
          if (p < kEject) {
            if (!has_budget(p)) {
              poll = true;
              break;
            }
            const u64 rd = ord[ob + p];
            const u32 hs2 = qhs[static_cast<u32>(rd)];
            if ((hs2 >> 16) >= dep) {
              poll = poll || !in_shard(static_cast<u32>(rd >> 32));
              break;
            }
            if constexpr (BW1) {
              obud &= ~(u32{1} << p);
            } else {
              --bud[p];
            }
            push_flit(rd, hs2, f[si * 2 + 1]);
          } else if (p == kEject) {
            if (eject_budget <= 0) {
              poll = true;
              break;
            }
            --eject_budget;
            const u64 m = f[si * 2 + 1];
            if (m >> 63) {
              ++sh.delivered;
              sh.latency += c + del - (m & kCycMask);
            }
          } else {
            const u64 m = f[si * 2 + 1];
            drop_unroutable(sh, r, c,
                            static_cast<u32>(m >> kCycBits) & kDstMask,
                            (m >> 63) != 0, p);
          }
          // pop; a pop from a full ring is the credit its upstream
          // router may be waiting for. Routers above r have yet to turn
          // this cycle, so they may use the slot now.
          const u32 nh = ((hs & 0xFFFFu) + 1) & cmask;
          const u32 size = (hs >> 16) - 1;
          qhs[rid] = nh | (size << 16);
          if ((hs >> 16) >= dep) [[unlikely]] {
            const u32 up = ring_src_[rid];
            if (in_shard(up)) schedule(sh, up, up > r ? c : c + 1);
          }
          if (!size) {
            hr[rid] = kNever;
            break;
          }
          const u64 nr = f[((rid << csh) + nh) * 2];
          hr[rid] = nr;
          if (nr > c) break;
        }
        if constexpr (BW1) {
          if (!chaos_ && obud == 0 && eject_budget <= 0) {
            open = false;
            poll = true;
            break;
          }
        }
      }
    }
  };
  /// Offer the injection-stream record m (destination dstr). Returns
  /// false when the source must stall; consumes the record otherwise
  /// (pushed, or dropped unreachable in fault mode).
  const auto try_inject = [&](u32 dstr, u64 m) -> bool {
    const u8 p = GRID ? grid->next_port(r, dstr) : prow[dstr];
    if constexpr (!GRID) {
      // A full regular mesh always routes, so only the dense table can
      // hold failed/unused markers.
      if (p >= kFailedPort) {
        drop_unroutable(sh, r, c, dstr, (m >> 63) != 0, p);
        return true;
      }
    }
    if (!has_budget(p)) {
      poll = true;
      return false;
    }
    const u64 rd = ord[ob + p];
    const u32 hs2 = qhs[static_cast<u32>(rd)];
    if ((hs2 >> 16) >= dep) {
      poll = poll || !in_shard(static_cast<u32>(rd >> 32));
      return false;
    }
    if constexpr (BW1) {
      obud &= ~(u32{1} << p);
    } else {
      --bud[p];
    }
    push_flit(rd, hs2, m);
    return true;
  };
  const auto drain_injection = [&] {
    if (!open) return;
    if (inj_next_[r] > c) return;
    size_t cur = inj_cur_[r];
    const size_t end = inj_off_[r + 1];
    const u64* const inj = inj_.data();
    u64 e = 0;
    while (cur < end && (e = inj[cur], (e & kCycMask) <= c)) {
      const u32 dstr = static_cast<u32>(e >> kCycBits) & kDstMask;
      if (dstr == r) {
        if (eject_budget <= 0) {
          poll = true;
          break;
        }
        --eject_budget;
        if (e >> 63) {
          ++sh.delivered;
          sh.latency += c + del - (e & kCycMask);
        }
      } else if (!try_inject(dstr, e)) {
        break;
      }
      ++cur;
    }
    inj_cur_[r] = cur;
    inj_next_[r] = cur < end ? inj[cur] & kCycMask : kNever;
  };
  if (start == 0) {
    drain_injection();
    drain_rings(cb, ce);
  } else {
    drain_rings(cb + start - 1, ce);
    drain_injection();
    drain_rings(cb, cb + start - 1);
  }

  // End-of-turn reschedule. A head or offer still stalled at c polls
  // at c + 1 if any stall set `poll`; otherwise each waits for the
  // credit that wakes r. A head still in the pipeline turns r when it
  // becomes ready; future offers are woken by the gw stream.
  u64 m = kNever;
  for (size_t rid = cb; rid < ce; ++rid) m = std::min(m, hr[rid]);
  if (poll && (m <= c || inj_next_[r] <= c)) {
    m = c + 1;
  } else if (m <= c) {
    m = kNever;
    for (size_t rid = cb; rid < ce; ++rid) {
      if (hr[rid] > c) m = std::min(m, hr[rid]);
    }
  }
  if (m != kNever) schedule(sh, r, m);
}

template <bool BW1, bool GRID>
void EventCore::execute_cycle(Shard& sh, const u64 c) {
  while (sh.gw_pos < sh.gw.size() && (sh.gw[sh.gw_pos] >> kRouterBits) <= c) {
    schedule(sh,
             static_cast<u32>(sh.gw[sh.gw_pos]) & ((u32{1} << kRouterBits) - 1),
             c);
    ++sh.gw_pos;
  }
  u64* slot = &sh.wheel[(c & wmask_) * sh.words];
  for (size_t w = 0; w < sh.words; ++w) {
    u64 bits = slot[w];
    if (!bits) continue;
    slot[w] = 0;
    const u32 rbase = static_cast<u32>((sh.word_base + w) << 6);
    do {
      const u32 r = rbase + static_cast<u32>(std::countr_zero(bits));
      bits &= bits - 1;
      turn<BW1, GRID>(sh, r, c);
      // A credit may have woken a higher router of this word for c.
      if (const u64 woken = slot[w]) {
        bits |= woken;
        slot[w] = 0;
      }
    } while (bits);
  }
}

u64 EventCore::shard_next_work(Shard& sh, const u64 p1v) {
  u64 t = kNever;
  if (sh.gw_pos < sh.gw.size()) t = sh.gw[sh.gw_pos] >> kRouterBits;
  if (sh.barrier_idx < barriers_.size()) {
    t = std::min(t, barriers_[sh.barrier_idx]);
  }
  // Every live bit's cycle is the first occurrence of its slot at or
  // after p1v (wakes span at most W-2 cycles and progress never skips
  // past one), so the earliest non-empty slot offset is the answer.
  for (size_t off = 0; off < W_; ++off) {
    const u64* slot = &sh.wheel[((p1v + off) & wmask_) * sh.words];
    u64 any = 0;
    for (size_t w = 0; w < sh.words; ++w) any |= slot[w];
    if (any) return std::min(t, p1v + off);
  }
  return t;
}

bool EventCore::step(Shard& sh) {
  if (sh.done) return false;
  const u64 p1v = sh.p1.load(std::memory_order_relaxed);
  if (p1v >= total_) {
    sh.done = true;
    return true;
  }
  // Conservative window: wakes in flight from a coupled neighbour at
  // completed cycle p target cycles > p + delay, so completion may
  // advance that far without missing work. Read caps (acquire) BEFORE
  // draining mailboxes: entries sent after the read target cycles
  // beyond the cap, entries sent before it are visible to the drain.
  u64 cap1 = kNever;
  for (const u32 nb : sh.coupled) {
    cap1 = std::min(
        cap1, shards_[nb]->p1.load(std::memory_order_acquire) + delay_);
  }
  drain_mail(sh);
  u64 t = shard_next_work(sh, p1v);
  if (t >= total_) t = total_;  // nothing executable; run out the clock
  const u64 sd1 = std::min(t, cap1);
  if (sd1 > p1v) {
    sh.p1.store(sd1, std::memory_order_release);
    if (sd1 >= total_) sh.done = true;
    return true;
  }
  if (t != p1v || t >= total_) return false;  // waiting on neighbours
  // Fault cycles are global barriers: rendezvous with completed == t-1,
  // last arriver applies the kill events + reroute for everyone.
  if (sh.barrier_idx < barriers_.size() && barriers_[sh.barrier_idx] == t) {
    const size_t bi = sh.barrier_idx;
    bool progressed = false;
    if (!sh.at_barrier) {
      sh.at_barrier = true;
      progressed = true;
      if (arrivals_[bi].fetch_add(1, std::memory_order_acq_rel) + 1 ==
          static_cast<u32>(S_)) {
        apply_faults_at(t);
        barrier_done_[bi].store(1, std::memory_order_release);
      }
    }
    if (!barrier_done_[bi].load(std::memory_order_acquire)) {
      return progressed;
    }
  }
  // Staircase constraints: lower coupled shards must have completed t
  // (their within-cycle effects precede ours), higher ones t-1.
  for (const u32 nb : sh.coupled) {
    const u64 need = nb < sh.id ? t + 1 : t;
    if (shards_[nb]->p1.load(std::memory_order_acquire) < need) return false;
  }
  drain_mail(sh);
  if (sh.at_barrier) {
    // Past the barrier (kept pending until now so t stays the shard's
    // next work, and read only once no coupled shard can touch our
    // rings). Routes changed under heads that were waiting for a
    // credit: turn every router with a due head or offer.
    ++sh.barrier_idx;
    sh.at_barrier = false;
    for (u32 r = sh.begin; r < sh.end; ++r) {
      bool due = inj_next_[r] <= t;
      for (size_t rid = chin_off_[r]; rid < chin_off_[r + 1]; ++rid) {
        due = due || hr_[rid] <= t;
      }
      if (due) schedule(sh, r, t);
    }
  }
  if (bw1_) {
    if (use_grid_) {
      execute_cycle<true, true>(sh, t);
    } else {
      execute_cycle<true, false>(sh, t);
    }
  } else if (use_grid_) {
    execute_cycle<false, true>(sh, t);
  } else {
    execute_cycle<false, false>(sh, t);
  }
  sh.p1.store(t + 1, std::memory_order_release);
  if (t + 1 >= total_) sh.done = true;
  return true;
}

void EventCore::apply_faults_at(const u64 cycle) {
  bool changed = false;
  const auto kill_link = [&](size_t l) {
    if (!link_alive_[l]) return;
    link_alive_[l] = 0;
    ++dead_links_;
    const size_t rid = ring_of_link_[l];
    const size_t base = (rid << cap_shift_) << 1;
    const u32 hs = qhs_[rid];
    for (u32 i = 0; i < (hs >> 16); ++i) {
      const size_t j = ((hs & 0xFFFFu) + i) & cap_mask_;
      if (f_[base + j * 2 + 1] >> 63) ++fault_dropped_;
    }
    qhs_[rid] = 0;
    hr_[rid] = kNever;
    changed = true;
  };
  while (fault_pos_ < faults_.events.size() &&
         faults_.events[fault_pos_].at_cycle <= cycle) {
    const fault::FaultEvent& event = faults_.events[fault_pos_++];
    if (event.kind == fault::FaultEvent::Kind::kLink) {
      if (event.index < channels_) kill_link(event.index);
      continue;
    }
    const size_t r = event.index;
    if (r >= routers_ || !router_alive_[r]) continue;
    router_alive_[r] = 0;
    ++dead_routers_;
    // Out-link queues buffer at the downstream routers and drain
    // normally; the links themselves carry nothing further.
    for (const size_t l : topology_.out_links(r)) {
      if (link_alive_[l]) {
        link_alive_[l] = 0;
        ++dead_links_;
      }
    }
    for (const size_t l : in_channels_[r]) kill_link(l);
    // Flush the injection stream: queued offers die with the router and
    // future measured offers are counted as dropped at the source (the
    // oracle loop counts them one by one at their injection cycles; the
    // totals are identical because the stream is precomputed).
    for (size_t i = inj_cur_[r]; i < inj_off_[r + 1]; ++i) {
      if (inj_[i] >> 63) ++fault_dropped_;
    }
    inj_cur_[r] = inj_off_[r + 1];
    inj_next_[r] = kNever;
    changed = true;
  }
  if (changed) rebuild_live_ports();
}

/// Port-table flavour of the oracle's rebuild_live_routes: one reverse
/// BFS per used destination over the surviving graph, minimal hops,
/// ties broken by out-link order. Identical Status rows.
void EventCore::rebuild_live_ports() {
  std::vector<u32> dist(routers_);
  std::vector<u32> bfs_queue(routers_);
  constexpr u32 kUnset = 0xFFFFFFFFu;
  for (size_t dst = 0; dst < routers_; ++dst) {
    if (!dst_used_[dst]) continue;
    std::fill(dist.begin(), dist.end(), kUnset);
    size_t qhead = 0;
    size_t qtail = 0;
    if (router_alive_[dst]) {
      dist[dst] = 0;
      bfs_queue[qtail++] = static_cast<u32>(dst);
    }
    while (qhead < qtail) {
      const size_t v = bfs_queue[qhead++];
      for (const size_t l : in_channels_[v]) {
        if (!link_alive_[l]) continue;
        const size_t u = topology_.link(l).src;
        if (!router_alive_[u] || dist[u] != kUnset) continue;
        dist[u] = dist[v] + 1;
        bfs_queue[qtail++] = static_cast<u32>(u);
      }
    }
    for (size_t at = 0; at < routers_; ++at) {
      if (at == dst) continue;
      const size_t key = at * routers_ + dst;
      if (!router_alive_[at]) {
        ports_.port[key] = kFailedPort;
        ports_.failures[key] =
            Status(StatusCode::kUnreachableRoute,
                   "simulate_network: router " + std::to_string(at) +
                       " failed");
        continue;
      }
      if (dist[at] == kUnset) {
        ports_.port[key] = kFailedPort;
        ports_.failures[key] =
            Status(StatusCode::kUnreachableRoute,
                   "simulate_network: no live route from router " +
                       std::to_string(at) + " to router " +
                       std::to_string(dst) +
                       (router_alive_[dst] ? " after link/router failures"
                                           : " (destination router failed)"));
        continue;
      }
      const auto& outs = topology_.out_links(at);
      for (size_t oi = 0; oi < outs.size(); ++oi) {
        const size_t l = outs[oi];
        if (!link_alive_[l]) continue;
        const size_t w = topology_.link(l).dst;
        if (!router_alive_[w] || dist[w] == kUnset) continue;
        if (dist[w] + 1 != dist[at]) continue;
        ports_.port[key] = static_cast<u8>(oi);
        break;
      }
    }
  }
  // The table changed under the in-flight flits: refresh every occupied
  // slot's cached port (rings emptied by the kill pass have size 0).
  for (size_t rid = 0; rid < channels_; ++rid) {
    const u32 hs = qhs_[rid];
    const u32 size = hs >> 16;
    if (!size) continue;
    const u32 owner = ring_owner_[rid];
    for (u32 i = 0; i < size; ++i) {
      const size_t si =
          (rid << cap_shift_) + (((hs & 0xFFFFu) + i) & cap_mask_);
      const u32 dstr = static_cast<u32>(f_[si * 2 + 1] >> kCycBits) & kDstMask;
      pp_[si] = dstr == owner
                    ? kEject
                    : ports_.port[static_cast<size_t>(owner) * routers_ + dstr];
    }
  }
}

FlitSimResult EventCore::run() {
  if (total_ > 0 && routers_ > 0) {
    if (T_ <= 1) {
      // Inline round-robin over all shards (also the S_ == 1 hot path).
      // The staircase always has an enabled shard, so a full pass with
      // no progress is a protocol bug, not a wait state.
      bool all_done = false;
      while (!all_done) {
        bool progressed = false;
        all_done = true;
        for (auto& sh : shards_) {
          if (!sh->done) {
            progressed = step(*sh) || progressed;
            all_done = all_done && sh->done;
          }
        }
        if (!progressed && !all_done) {
          throw StatusError(Status(StatusCode::kExecutionError,
                                   "simulate_network: partition protocol "
                                   "stalled (no shard can advance)"));
        }
      }
    } else {
      std::vector<std::exception_ptr> errors(S_);
      std::vector<std::thread> pool;
      pool.reserve(T_);
      for (size_t tid = 0; tid < T_; ++tid) {
        pool.emplace_back([this, tid, &errors] {
          bool mine_done = false;
          while (!mine_done && !abort_.load(std::memory_order_relaxed)) {
            bool progressed = false;
            mine_done = true;
            for (size_t k = tid; k < S_; k += T_) {
              Shard& sh = *shards_[k];
              if (sh.done) continue;
              try {
                progressed = step(sh) || progressed;
              } catch (...) {
                errors[k] = std::current_exception();
                abort_.store(true, std::memory_order_relaxed);
                sh.done = true;
                continue;
              }
              mine_done = mine_done && sh.done;
            }
            if (!progressed && !mine_done) std::this_thread::yield();
          }
        });
      }
      for (auto& th : pool) th.join();
      for (size_t k = 0; k < S_; ++k) {
        if (errors[k]) std::rethrow_exception(errors[k]);
      }
    }
  }

  // --- merge in shard order: counters are plain sums; route failures
  // sort by (cycle, router) — stable, so within-turn encounter order
  // survives — and truncate to the oracle's cap.
  FlitSimResult result;
  u64 delivered = 0;
  u64 unreachable = 0;
  u64 latency = 0;
  u64 turns = 0;
  std::vector<Shard::Fail> fails;
  for (const auto& sh : shards_) {
    delivered += sh->delivered;
    unreachable += sh->unreachable;
    latency += sh->latency;
    turns += sh->turns;
    fails.insert(fails.end(), sh->fails.begin(), sh->fails.end());
  }
  std::stable_sort(fails.begin(), fails.end(),
                   [](const Shard::Fail& a, const Shard::Fail& b) {
                     return a.cycle != b.cycle ? a.cycle < b.cycle
                                               : a.router < b.router;
                   });
  for (size_t i = 0; i < fails.size() && i < kMaxRouteFailures; ++i) {
    result.route_failures.push_back(fails[i].status);
  }
  result.delivered = static_cast<size_t>(delivered);
  result.injected = static_cast<size_t>(injected_total_);
  result.dropped = static_cast<size_t>(fault_dropped_);
  result.unreachable = static_cast<size_t>(unreachable);
  result.dead_links = static_cast<size_t>(dead_links_);
  result.dead_routers = static_cast<size_t>(dead_routers_);
  result.turns_executed = turns;
  result.mean_latency_cycles =
      delivered == 0
          ? 0.0
          : static_cast<double>(latency) / static_cast<double>(delivered);
  result.delivered_per_cycle =
      static_cast<double>(delivered) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(modules_));
  result.stable = result.delivered + result.dropped + result.unreachable >=
                  result.injected * 995 / 1000;
  return result;
}

}  // namespace

FlitSimResult simulate_network(const Topology& topology,
                               const Routing& routing,
                               const TrafficPattern& traffic,
                               double injection_rate,
                               const FlitSimConfig& config) {
  return simulate_network(topology, routing, traffic, injection_rate, config,
                          fault::FaultSchedule{});
}

FlitSimResult simulate_network(const Topology& topology,
                               const Routing& routing,
                               const TrafficPattern& traffic,
                               double injection_rate,
                               const FlitSimConfig& config,
                               const fault::FaultSchedule& faults) {
  EventCore core(topology, routing, traffic, injection_rate, config, faults);
  return core.run();
}

}  // namespace wi::noc
