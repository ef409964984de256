// The discrete-event simulation core: the one simulator API.
//
// A single event loop reproduces both of the paper's simulation arguments.
// Store-and-forward MCMP (Section 4.3: one-flit packets, pin-limited
// off-chip links) is `flits_per_packet == 1`; virtual cut-through
// (Section 4.2: multi-flit packets streaming across pipelined hops) is
// `flits_per_packet > 1`.  Degradation under failure is the same loop with
// `fault_mode` on: a fault schedule accumulates into a FaultSet, and blocked
// hops time out, re-route through a pluggable Rerouter and retransmit with
// exponential backoff.  The event ordering (a min-heap on time with
// implementation-stable tie handling), the FIFO link-occupancy rule and
// every accumulation order match the seed's standalone loops bit for bit.
//
// Two entry points: simulate_events takes a schedule of permanent link
// kills (LinkFault), simulate_chaos the full fault taxonomy (FaultEvent)
// plus an optional SimObserver.  Each accepts traffic in two shapes:
//  * pre-routed: a span of SimPacket whose paths were materialised up
//    front;
//  * lazy: a span of TrafficPair plus a RoutePolicy — the core sorts the
//    pairs by injection time and routes them in chunks through
//    RoutePolicy::route_paths the first time a packet's event pops, so a
//    long-horizon workload pays for routing as traffic enters the network
//    (and batch-capable policies amortise it through route_batch and the
//    relative-permutation cache) instead of materialising every path
//    before cycle 0.
//
// Links are classified on-chip/off-chip by an OffchipTable, which must be
// built for the simulated graph (OffchipTable(g, pred),
// OffchipTable::uniform(g, ...) or mcmp_offchip_table).
//
// Every run reports SimTelemetry: events processed, queue high-water mark,
// wall time split between routing and transit, lazy chunk count and the
// policy's route-cache hit rate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "networks/fault_router.hpp"
#include "networks/route_policy.hpp"
#include "sim/packet.hpp"
#include "topology/graph.hpp"

namespace scg {

struct EventSimConfig {
  /// 1 = store-and-forward; > 1 = virtual cut-through with this many flits.
  int flits_per_packet = 1;
  int onchip_cycles_per_flit = 1;
  int offchip_cycles_per_flit = 1;  ///< set to d_I under a unit pin budget

  /// Enables the degradation-under-failure machinery: the max_cycles guard,
  /// fault accumulation from the schedule, timeout/re-route/backoff on
  /// blocked hops, and the delivered/latency-percentile/stretch accounting.
  bool fault_mode = false;
  int timeout_cycles = 4;    ///< detection delay when a hop is dead
  int max_retransmits = 8;   ///< rerouting attempts before dropping
  int backoff_base = 2;      ///< first retry waits base, then doubles...
  int backoff_cap = 1024;    ///< ...up to this many cycles
  std::uint64_t max_cycles = std::uint64_t{1} << 32;  ///< hard stop

  /// Lazy routing granularity: pairs routed per RoutePolicy::route_paths
  /// call (in injection order).
  std::size_t route_chunk = 4096;
};

/// The result of every simulator run.  Percentiles, timeout and stretch
/// fields are populated only in fault mode; `flit_hops` counts link
/// traversals weighted by flits_per_packet.  `truncated` mirrors
/// telemetry.truncated: the max_cycles watchdog tripped and every packet
/// still in flight past the horizon was dropped — the counts are a valid
/// partial state (conservation is asserted), not a silent stop.
struct EventSimResult {
  std::uint64_t packets = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double delivered_fraction = 1.0;
  std::uint64_t completion_cycles = 0;  ///< time the last packet arrives
  double avg_latency = 0.0;             ///< mean (arrival - inject), delivered
  std::uint64_t p50_latency = 0;
  std::uint64_t p99_latency = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t offchip_hops = 0;       ///< intercluster transmissions
  std::uint64_t flit_hops = 0;          ///< total_hops * flits_per_packet
  double max_link_busy = 0.0;           ///< busiest link's busy cycles
  std::uint64_t timeouts = 0;           ///< dead-hop detections
  std::uint64_t retransmissions = 0;    ///< successful re-route + resend
  double avg_stretch = 0.0;  ///< hops walked / pristine path hops (delivered)
  double max_stretch = 0.0;
  bool truncated = false;    ///< max_cycles watchdog tripped (partial result)
  SimTelemetry telemetry;
};

/// Pre-routed entry point: every packet carries its path.  Paths whose hops
/// are not arcs of `g` raise std::invalid_argument, as do paths not running
/// src..dst, flits_per_packet < 1, and an `offchip` table not built for `g`
/// (num_arcs() != g.num_links()).  `schedule` and `reroute` are consulted
/// only in fault mode (a null `reroute` drops packets at the first blocked
/// hop).  In fault mode faults accumulate: once dead, a link stays dead.
EventSimResult simulate_events(const Graph& g, const OffchipTable& offchip,
                               std::span<const SimPacket> packets,
                               const EventSimConfig& cfg,
                               std::span<const LinkFault> schedule = {},
                               const Rerouter* reroute = nullptr);

/// Lazy entry point: routes `pairs` through `policy` in injection-time
/// order, `cfg.route_chunk` pairs per batch, the first time each packet's
/// injection event pops.  Identical results to routing every pair up front
/// and calling the pre-routed form (the event sequence does not depend on
/// when paths materialise).
EventSimResult simulate_events(const Graph& g, const OffchipTable& offchip,
                               std::span<const TrafficPair> pairs,
                               RoutePolicy& policy, const EventSimConfig& cfg,
                               std::span<const LinkFault> schedule = {},
                               const Rerouter* reroute = nullptr);

/// Chaos entry points: the same event loop driven by the full fault
/// taxonomy (FaultEvent) instead of permanent link kills only.  Repairs
/// remove entries from the accumulated FaultSet, node crashes take out
/// every incident channel, and kLinkSlow inflates the per-flit cycle count
/// of both directions of a channel through the same path the OffchipTable
/// classification feeds (occupancy = flits * base_cycles * multiplier).
/// fault_mode is forced on — a chaos schedule is meaningless without the
/// timeout/re-route/backoff machinery.  `observer`, when non-null, receives
/// every hop/timeout/delivery/drop synchronously (see SimObserver).
EventSimResult simulate_chaos(const Graph& g, const OffchipTable& offchip,
                              std::span<const SimPacket> packets,
                              const EventSimConfig& cfg,
                              std::span<const FaultEvent> schedule,
                              const Rerouter* reroute = nullptr,
                              SimObserver* observer = nullptr);

/// Lazy chaos entry point (see the TrafficPair overload of simulate_events
/// for the routing contract).
EventSimResult simulate_chaos(const Graph& g, const OffchipTable& offchip,
                              std::span<const TrafficPair> pairs,
                              RoutePolicy& policy, const EventSimConfig& cfg,
                              std::span<const FaultEvent> schedule,
                              const Rerouter* reroute = nullptr,
                              SimObserver* observer = nullptr);

/// Adapts the fault-aware router into the simulator's Rerouter slot.  The
/// router must outlive the returned callable.
Rerouter make_rerouter(const FaultRouter& router);

/// The canonical MCMP link classification for a Cayley network: nucleus
/// generators are on-chip, super generators off-chip.
OffchipTable mcmp_offchip_table(const NetworkSpec& net, const Graph& g);

}  // namespace scg
