// Simulator path: uniform random traffic through the event core, routed
// lazily at injection time by a GamePolicy (a fresh one per block, so every
// block starts with a cold route cache), store-and-forward with off-chip
// hops costing d_I cycles.
#include <cmath>

#include "common.hpp"
#include "networks/route_engine.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"

namespace perfbench {
namespace {

scg::EventSimConfig sim_config(const scg::NetworkSpec& net) {
  scg::EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  return cfg;
}

/// The fields a lazy and a pre-routed run of the same pairs must agree on.
bool same_outcome(const scg::EventSimResult& a, const scg::EventSimResult& b) {
  return a.packets == b.packets && a.delivered == b.delivered &&
         a.completion_cycles == b.completion_cycles &&
         a.total_hops == b.total_hops && a.offchip_hops == b.offchip_hops &&
         a.avg_latency == b.avg_latency && a.max_link_busy == b.max_link_busy;
}

/// Sum of game-route hop counts over the pairs, from an uncached engine —
/// what total_hops must equal when every packet walks its game route.
std::uint64_t expected_hops(const scg::NetworkSpec& net,
                            const std::vector<scg::TrafficPair>& pairs) {
  const scg::RouteEngine engine(net, scg::RouteEngineConfig{0, 1});
  std::uint64_t hops = 0;
  for (const scg::TrafficPair& tp : pairs) {
    hops += static_cast<std::uint64_t>(
        engine.route_length(scg::Permutation::unrank(net.k(), tp.src),
                            scg::Permutation::unrank(net.k(), tp.dst)));
  }
  return hops;
}

class SimPhase final : public Phase {
 public:
  SimPhase(const Workload& w, const Inputs& in, Tracer& tr)
      : net_(w.route_net), in_(in), tr_(tr), cfg_(sim_config(net_)) {}

  void round(Report&) override {
    Scope s(tr_, "sim.lazy");
    scg::GamePolicy policy(net_);
    const std::uint64_t t = now_ns();
    runs_.push_back(scg::simulate_events(in_.graph, in_.offchip, in_.sim_pairs,
                                         policy, cfg_));
    last_s_ = seconds_since(t);
    rates_.push_back(static_cast<double>(runs_.back().packets) / last_s_);
  }

  void finish(Report& rep) override {
    rep.metric("packets_per_s", median(rates_), "1/s");
    const std::uint64_t packets = in_.sim_pairs.size();
    const std::uint64_t hops = expected_hops(net_, in_.sim_pairs);
    const scg::EventSimResult& first = runs_.front();
    for (const scg::EventSimResult& r : runs_) {
      rep.attempt(packets);
      rep.check(r.packets == packets && r.delivered == packets,
                "sim: delivered != packets", packets - r.delivered);
      rep.check(r.total_hops == hops, "sim: total_hops != sum of game routes");
      rep.check(r.completion_cycles == first.completion_cycles &&
                    r.total_hops == first.total_hops &&
                    r.telemetry.events_processed ==
                        first.telemetry.events_processed,
                "sim: repeats of one seed disagree");
    }
  }

  void trace(Report& rep) override {
    // The same pairs split into up-front routing and pre-routed transit;
    // their sum should account for the last lazy block's wall time.
    std::vector<scg::SimPacket> pkts;
    double route_s = 0;
    {
      Scope s(tr_, "sim.route");
      scg::GamePolicy policy(net_);
      const std::uint64_t t = now_ns();
      pkts = scg::packets_for(policy, in_.sim_pairs);
      route_s = seconds_since(t);
    }
    double transit_s = 0;
    scg::EventSimResult pre;
    {
      Scope s(tr_, "sim.transit");
      const std::uint64_t t = now_ns();
      pre = scg::simulate_events(in_.graph, in_.offchip, pkts, cfg_);
      transit_s = seconds_since(t);
    }
    rep.attempt(pre.packets);
    rep.check(same_outcome(pre, runs_.front()), "sim: lazy != pre-routed");

    const scg::SimTelemetry& t = runs_.back().telemetry;
    rep.metric("sim.route_s", route_s, "s");
    rep.metric("sim.transit_s", transit_s, "s");
    rep.metric("sim.events_per_s",
               static_cast<double>(t.events_processed) /
                   (static_cast<double>(t.transit_ns) * 1e-9),
               "1/s");
    rep.metric("sim.events", static_cast<double>(t.events_processed), "count");
    rep.metric("sim.queue_peak", static_cast<double>(t.queue_peak), "count");
    rep.metric("sim.route_chunks", static_cast<double>(t.route_chunks),
               "count");
    rep.metric("sim.cache_hit_rate", 100.0 * t.cache_hit_rate(), "%");
    rep.metric("sim.layer_residual_pct",
               100.0 * std::abs(last_s_ - (route_s + transit_s)) / last_s_,
               "%");
    rep.metric("topology.materialize_s", in_.materialize_s, "s");
    rep.metric("topology.offchip_table_s", in_.offchip_table_s, "s");
  }

 private:
  const scg::NetworkSpec& net_;
  const Inputs& in_;
  Tracer& tr_;
  const scg::EventSimConfig cfg_;
  std::vector<scg::EventSimResult> runs_;
  std::vector<double> rates_;
  double last_s_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_sim_phase(const Workload& w, const Inputs& in,
                                      Tracer& tr) {
  return std::make_unique<SimPhase>(w, in, tr);
}

}  // namespace perfbench
