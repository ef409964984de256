#include "chaos/campaign.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "chaos/adaptive_policy.hpp"
#include "networks/route_policy.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/graph.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

std::uint64_t cell_seed(std::uint64_t root, std::size_t family, std::size_t kind,
                        std::size_t rate) {
  // splitmix-style mix so neighboring cells draw unrelated scripts.
  std::uint64_t x = root + 0x9e3779b97f4a7c15ULL * (family * 1009 + kind * 101 +
                                                    rate + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

}  // namespace

int fault_count_for(FaultKind kind, double rate, std::uint64_t num_nodes,
                    std::size_t num_channels) {
  if (rate < 0.0) {
    throw std::invalid_argument("campaign: fault rate must be >= 0");
  }
  if (rate == 0.0) return 0;
  switch (kind) {
    case FaultKind::kNodeCrash: {
      const auto want = static_cast<std::uint64_t>(
          std::llround(rate * static_cast<double>(num_nodes)));
      const std::uint64_t cap = num_nodes > 0 ? num_nodes - 1 : 0;
      return static_cast<int>(std::min<std::uint64_t>(
          std::max<std::uint64_t>(1, want), cap));
    }
    case FaultKind::kRegion: {
      const auto want = static_cast<std::uint64_t>(
          std::llround(rate * static_cast<double>(num_nodes) / 8.0));
      return static_cast<int>(std::min<std::uint64_t>(
          std::max<std::uint64_t>(1, want), num_nodes));
    }
    default: {
      const auto want = static_cast<std::uint64_t>(
          std::llround(rate * static_cast<double>(num_channels)));
      return static_cast<int>(std::min<std::uint64_t>(
          std::max<std::uint64_t>(1, want), num_channels));
    }
  }
}

CampaignResult run_campaign(const std::vector<NetworkSpec>& families,
                            const CampaignConfig& cfg) {
  if (families.empty()) {
    throw std::invalid_argument("campaign: need at least one family");
  }
  if (cfg.kinds.empty() || cfg.rates.empty()) {
    throw std::invalid_argument("campaign: need at least one kind and rate");
  }
  CampaignResult out;

  EventSimConfig ec;
  ec.offchip_cycles_per_flit = 2;
  ec.max_cycles = std::uint64_t{1} << 20;
  ec.route_chunk = 256;

  const bool adaptive = cfg.policy == "adaptive";
  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    const NetworkSpec& net = families[fi];
    const Graph g = materialize(net);
    const OffchipTable offchip = mcmp_offchip_table(net, g);
    const std::size_t channels = num_physical_channels(g);
    const FaultRouter router(net);  // rerouter for non-adaptive cells
    const std::vector<TrafficPair> pairs = random_traffic_pairs(
        g.num_nodes(), cfg.packets_per_node, cfg.seed + fi);

    const auto run_cell = [&](FaultKind kind, double rate, std::size_t ki,
                              std::size_t ri) {
      CampaignCell cell;
      cell.family = net.name;
      cell.kind = kind;
      cell.rate = rate;
      cell.count = fault_count_for(kind, rate, g.num_nodes(), channels);

      ChaosScriptConfig script;
      script.kind = kind;
      script.count = cell.count;
      script.seed = cell_seed(cfg.seed, fi, ki, ri);
      const std::vector<FaultEvent> schedule = make_fault_schedule(g, script);
      const ChaosScheduleStats stats = schedule_stats(schedule);
      cell.fully_repaired = stats.fully_repaired;
      if (kind == FaultKind::kNodeCrash) {
        cell.fault_fraction = static_cast<double>(stats.nodes_failed) /
                              static_cast<double>(g.num_nodes());
      } else if (channels > 0) {
        cell.fault_fraction =
            static_cast<double>(stats.channels_failed + stats.channels_slowed) /
            static_cast<double>(channels);
      }

      SimTraceRecorder recorder;
      if (adaptive) {
        AdaptiveFaultPolicy policy(net);
        const Rerouter rr = policy.rerouter();
        TeeObserver obs{&recorder, &policy};
        cell.result =
            simulate_chaos(g, offchip, pairs, policy, ec, schedule, &rr, &obs);
        cell.quarantines = policy.quarantine_count();
        cell.readmissions = policy.readmit_count();
      } else {
        const std::unique_ptr<RoutePolicy> policy =
            make_route_policy(cfg.policy, net);
        const Rerouter rr = make_rerouter(router);
        cell.result = simulate_chaos(g, offchip, pairs, *policy, ec, schedule,
                                     &rr, &recorder);
      }
      cell.invariants = check_sim_invariants(g, offchip, pairs, ec, schedule,
                                             cell.result, recorder,
                                             /*complete_rerouter=*/true);
      out.total_violations += cell.invariants.violations;
      out.cells.push_back(std::move(cell));
    };

    // Fault-free reference, once per family.
    run_cell(cfg.kinds.front(), 0.0, 0, 0);
    out.fault_free_delivered.push_back(
        out.cells.back().result.delivered_fraction);
    for (std::size_t ki = 0; ki < cfg.kinds.size(); ++ki) {
      for (std::size_t ri = 0; ri < cfg.rates.size(); ++ri) {
        if (cfg.rates[ri] == 0.0) continue;
        run_cell(cfg.kinds[ki], cfg.rates[ri], ki, ri);
      }
    }
  }
  return out;
}

}  // namespace scg
