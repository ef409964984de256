// Fault-schedule generation — compiles a seeded, deterministic chaos script
// (a std::vector<FaultEvent>) from a small declarative config, covering the
// repo's whole fault taxonomy:
//
//  * kPermanent  — classic link kills that never heal (kLinkFail events
//                  only, staggered over time);
//  * kTransient  — each sampled channel fails and repairs after a fixed
//                  outage window;
//  * kFlapping   — intermittent channels cycling fail/repair with a duty
//                  cycle (down_cycles dead, up_cycles healthy, `flaps`
//                  rounds);
//  * kFailSlow   — channels that keep forwarding but at slow_multiplier x
//                  the nominal per-flit cycles (the fail-slow pathology:
//                  no timeout fires, throughput quietly collapses);
//  * kNodeCrash  — whole-node failures taking out every incident channel;
//  * kRegion     — correlated radius-r ball outages (a switch tray / rack),
//                  via sample_correlated_faults.
//
// Channels are drawn without replacement by the same partial Fisher-Yates
// the random fault sampler uses, so scripts are uniform over physical
// channels and reproducible from (graph, config, seed) alone.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "topology/graph.hpp"

namespace scg {

enum class FaultKind : std::uint8_t {
  kPermanent,
  kTransient,
  kFlapping,
  kFailSlow,
  kNodeCrash,
  kRegion,
};

/// Stable lowercase name ("permanent", "transient", ...), used in bench
/// JSON rows and the CLI.
const char* fault_kind_name(FaultKind kind);

/// Inverse of fault_kind_name; throws std::invalid_argument for unknown
/// names, listing the valid ones.
FaultKind parse_fault_kind(const std::string& name);

/// All six kinds, in declaration order (campaign sweep axis).
std::span<const FaultKind> all_fault_kinds();

struct ChaosScriptConfig {
  FaultKind kind = FaultKind::kTransient;
  /// How many faults to inject: channels for the link kinds, nodes for
  /// kNodeCrash, regions for kRegion.  0 compiles to an empty script.
  int count = 1;
  std::uint64_t onset_start = 0;   ///< first fault lands at this cycle
  std::uint64_t onset_spacing = 8; ///< fault i lands at start + i * spacing
  std::uint64_t down_cycles = 64;  ///< outage length (transient / flapping)
  std::uint64_t up_cycles = 64;    ///< healthy gap between flaps
  int flaps = 3;                   ///< fail/repair rounds per flapping channel
  std::uint32_t slow_multiplier = 8;  ///< kFailSlow latency inflation
  int region_radius = 1;           ///< kRegion ball radius
  std::uint64_t seed = 1;
};

/// Compiles the config into a time-sorted FaultEvent script for `g`.
/// Deterministic: same (g, cfg) -> same script.  Throws
/// std::invalid_argument for negative counts, link counts exceeding the
/// distinct physical channels, node counts that would leave no survivor,
/// flaps < 1, slow_multiplier < 2, or region parameters the correlated
/// sampler rejects.  kRegion scripts fail all of a region's channels at the
/// same onset (that is what makes the failure correlated).
std::vector<FaultEvent> make_fault_schedule(const Graph& g,
                                            const ChaosScriptConfig& cfg);

/// Summary of what a chaos script does, computed by replaying it.
struct ChaosScheduleStats {
  std::size_t channels_failed = 0;  ///< distinct channels hit by kLinkFail
  std::size_t channels_slowed = 0;  ///< distinct channels hit by kLinkSlow
  std::size_t nodes_failed = 0;     ///< distinct nodes hit by kNodeFail
  std::uint64_t last_event_time = 0;
  /// No repair events at all: the accumulated FaultSet only grows, so
  /// end-of-run reachability statements extend to every earlier time.
  bool monotone = true;
  /// Replaying the whole script leaves no live fault and no slow channel:
  /// a run whose traffic outlives the script should degrade only
  /// transiently.
  bool fully_repaired = true;
};

ChaosScheduleStats schedule_stats(std::span<const FaultEvent> schedule);

/// Number of distinct physical channels of `g` — the population link-kind
/// scripts sample from (parallel arcs collapse; a bidirectional pair counts
/// once).
std::size_t num_physical_channels(const Graph& g);

}  // namespace scg
