// Chaos campaign: invariant-checked degradation sweeps over a fault-rate x
// fault-kind grid (permanent, transient, flapping, fail-slow, node-crash,
// correlated-region), a transient-full-repair convergence gate (every outage
// heals before the retransmit budget runs out, so the delivered fraction
// must reproduce the fault-free run *exactly*), and a fail-slow comparison
// between the fault-oblivious reroute baseline and the adaptive
// link-health policy.
//
// Usage: bench_chaos [output.json]
// Prints a human-readable report; with an argument additionally writes the
// same numbers as machine-readable JSON (see bench/baseline_chaos.json).
// Exits non-zero if any cell has invariant violations or the transient
// convergence gate fails — this binary doubles as the chaos CI gate.
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/adaptive_policy.hpp"
#include "chaos/campaign.hpp"
#include "chaos/fault_schedule.hpp"
#include "chaos/invariants.hpp"
#include "networks/fault_router.hpp"
#include "networks/route_policy.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/metrics.hpp"

#include "json_out.hpp"

namespace {

using benchjson::Json;
using benchjson::kv;

using scg::CampaignCell;
using scg::CampaignConfig;
using scg::CampaignResult;
using scg::FaultKind;
using scg::NetworkSpec;

std::vector<NetworkSpec> campaign_families() {
  return {scg::make_macro_star(2, 2), scg::make_complete_rotation_star(2, 2),
          scg::make_star_graph(5)};
}

std::string cell_fields(const CampaignCell& c) {
  // Identity fields first, then integer counters (the cross-compiler-stable
  // gating surface), then floating summaries for human reading.
  return kv("family", c.family) + ", " +
         kv("kind", std::string(scg::fault_kind_name(c.kind))) + ", " +
         kv("rate", c.rate) + ", " +
         kv("count", static_cast<std::uint64_t>(c.count)) + ", " +
         kv("packets", c.result.packets) + ", " +
         kv("delivered", c.result.delivered) + ", " +
         kv("dropped", c.result.dropped) + ", " +
         kv("timeouts", c.result.timeouts) + ", " +
         kv("retransmissions", c.result.retransmissions) + ", " +
         kv("completion_cycles", c.result.completion_cycles) + ", " +
         kv("truncated", static_cast<std::uint64_t>(c.result.truncated)) +
         ", " + kv("violations", c.invariants.violations) + ", " +
         kv("checks", c.invariants.checks) + ", " +
         kv("fully_repaired", static_cast<std::uint64_t>(c.fully_repaired)) +
         ", " + kv("delivered_fraction", c.result.delivered_fraction) + ", " +
         kv("fault_fraction", c.fault_fraction) + ", " +
         kv("avg_latency", c.result.avg_latency) + ", " +
         kv("avg_stretch", c.result.avg_stretch);
}

// Full kind x rate grid with the fault-oblivious reroute baseline.  Every
// cell is audited; the section's return value is the violation total.
std::uint64_t campaign_section(Json& json) {
  std::printf("=== chaos campaign: fault-rate x fault-kind degradation ===\n");
  CampaignConfig cfg;  // all six kinds, rates {0, 0.05, 0.1, 0.2}
  const CampaignResult r = scg::run_campaign(campaign_families(), cfg);
  json.begin_array("campaign");
  std::string family;
  std::size_t fi = 0;
  for (const CampaignCell& c : r.cells) {
    if (c.family != family) {
      family = c.family;
      std::printf("%s (reference delivered=%.4f)\n", family.c_str(),
                  r.fault_free_delivered[fi++]);
    }
    std::printf("  %-9s rate=%.2f count=%-3d delivered=%.4f retx=%-5llu "
                "p99=%-5llu stretch=%.3f violations=%llu\n",
                scg::fault_kind_name(c.kind), c.rate, c.count,
                c.result.delivered_fraction,
                static_cast<unsigned long long>(c.result.retransmissions),
                static_cast<unsigned long long>(c.result.p99_latency),
                c.result.avg_stretch,
                static_cast<unsigned long long>(c.invariants.violations));
    json.row(cell_fields(c));
  }
  json.end_array();
  std::printf("total invariant violations: %llu (want 0)\n",
              static_cast<unsigned long long>(r.total_violations));
  return r.total_violations;
}

// Transient outages spaced wider than their repair time: at most one
// channel is ever down, the networks stay connected (edge connectivity ==
// degree), and with a generous retransmit budget the delivered fraction
// must equal the fault-free run exactly — not approximately.
std::uint64_t transient_convergence_section(Json& json) {
  std::printf("\n=== transient full-repair convergence (exact match gate) ===\n");
  json.begin_array("transient_convergence");
  std::uint64_t failures = 0;
  for (const NetworkSpec& net : campaign_families()) {
    const scg::Graph g = scg::materialize(net);
    const scg::OffchipTable offchip = scg::mcmp_offchip_table(net, g);
    const auto pairs = scg::random_traffic_pairs(g.num_nodes(), 4, 29);
    const scg::FaultRouter router(net);
    const scg::Rerouter rr = scg::make_rerouter(router);
    const auto policy = scg::make_route_policy("fault", net);

    scg::EventSimConfig ec;
    ec.offchip_cycles_per_flit = 2;
    ec.max_retransmits = 32;  // generous: every outage is survivable

    scg::ChaosScriptConfig script;
    script.kind = FaultKind::kTransient;
    script.count = scg::fault_count_for(
        FaultKind::kTransient, 0.2, g.num_nodes(),
        scg::num_physical_channels(g));
    script.down_cycles = 32;
    script.onset_spacing = 40;  // spacing > down: <=1 concurrent outage
    script.seed = 31;
    const auto schedule = scg::make_fault_schedule(g, script);
    const auto stats = scg::schedule_stats(schedule);

    scg::SimTraceRecorder trace;
    const scg::EventSimResult faulty =
        scg::simulate_chaos(g, offchip, pairs, *policy, ec, schedule, &rr,
                            &trace);
    const scg::InvariantReport audit = scg::check_sim_invariants(
        g, offchip, pairs, ec, schedule, faulty, trace);
    const scg::EventSimResult clean =
        scg::simulate_chaos(g, offchip, pairs, *policy, ec, {}, &rr);

    const bool exact =
        faulty.delivered_fraction == clean.delivered_fraction &&
        faulty.delivered == clean.delivered && stats.fully_repaired &&
        audit.ok();
    if (!exact) ++failures;
    std::printf("%-20s outages=%-3d repaired=%d timeouts=%-4llu "
                "delivered=%.6f fault-free=%.6f %s\n",
                net.name.c_str(), script.count, stats.fully_repaired,
                static_cast<unsigned long long>(faulty.timeouts),
                faulty.delivered_fraction, clean.delivered_fraction,
                exact ? "EXACT" : "MISMATCH");
    json.row(kv("family", net.name) + ", " +
             kv("outages", static_cast<std::uint64_t>(script.count)) + ", " +
             kv("delivered", faulty.delivered) + ", " +
             kv("fault_free_delivered", clean.delivered) + ", " +
             kv("timeouts", faulty.timeouts) + ", " +
             kv("retransmissions", faulty.retransmissions) + ", " +
             kv("violations", audit.violations) + ", " +
             kv("exact_match", static_cast<std::uint64_t>(exact)));
  }
  json.end_array();
  return failures;
}

// Fail-slow comparison: the same degrading links routed by the oblivious
// baseline vs the adaptive policy.  Traffic is staggered in waves so later
// routing chunks can act on the health feedback from earlier ones.
std::uint64_t adaptive_section(Json& json) {
  std::printf("\n=== adaptive vs oblivious routing under fail-slow links ===\n");
  json.begin_array("adaptive_failslow");
  std::uint64_t violations = 0;
  const NetworkSpec net = scg::make_macro_star(2, 2);
  const scg::Graph g = scg::materialize(net);
  const scg::OffchipTable offchip = scg::mcmp_offchip_table(net, g);
  const scg::FaultRouter router(net);

  // Staggered injects: 8 waves, 64 cycles apart, so quarantine decisions
  // from wave w shape the routes of wave w+1.
  auto pairs = scg::random_traffic_pairs(g.num_nodes(), 8, 41);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pairs[i].inject_time = (i % 8) * 64;
  }

  scg::ChaosScriptConfig script;
  script.kind = FaultKind::kFailSlow;
  script.count = 12;
  script.slow_multiplier = 16;
  script.seed = 43;
  const auto schedule = scg::make_fault_schedule(g, script);

  scg::EventSimConfig ec;
  ec.offchip_cycles_per_flit = 2;
  ec.route_chunk = 32;  // small chunks: feedback lands between batches

  for (const bool adaptive : {false, true}) {
    scg::SimTraceRecorder trace;
    scg::EventSimResult r;
    std::uint64_t quarantines = 0, readmissions = 0;
    if (adaptive) {
      scg::AdaptiveFaultPolicy policy(net);
      const scg::Rerouter rr = policy.rerouter();
      scg::TeeObserver obs{&trace, &policy};
      r = scg::simulate_chaos(g, offchip, pairs, policy, ec, schedule, &rr,
                              &obs);
      quarantines = policy.quarantine_count();
      readmissions = policy.readmit_count();
    } else {
      const auto policy = scg::make_route_policy("fault", net);
      const scg::Rerouter rr = scg::make_rerouter(router);
      r = scg::simulate_chaos(g, offchip, pairs, *policy, ec, schedule, &rr,
                              &trace);
    }
    const scg::InvariantReport audit =
        scg::check_sim_invariants(g, offchip, pairs, ec, schedule, r, trace);
    violations += audit.violations;
    std::printf("%-9s delivered=%.4f avg-latency=%.1f p99=%-5llu "
                "completion=%-6llu quarantines=%llu readmits=%llu "
                "violations=%llu\n",
                adaptive ? "adaptive" : "oblivious", r.delivered_fraction,
                r.avg_latency,
                static_cast<unsigned long long>(r.p99_latency),
                static_cast<unsigned long long>(r.completion_cycles),
                static_cast<unsigned long long>(quarantines),
                static_cast<unsigned long long>(readmissions),
                static_cast<unsigned long long>(audit.violations));
    json.row(kv("family", net.name) + ", " +
             kv("policy", std::string(adaptive ? "adaptive" : "fault")) +
             ", " + kv("slow_links", static_cast<std::uint64_t>(script.count)) +
             ", " + kv("packets", r.packets) + ", " +
             kv("delivered", r.delivered) + ", " +
             kv("timeouts", r.timeouts) + ", " +
             kv("quarantines", quarantines) + ", " +
             kv("readmissions", readmissions) + ", " +
             kv("violations", audit.violations) + ", " +
             kv("avg_latency", r.avg_latency) + ", " +
             kv("p99_latency", r.p99_latency));
  }
  json.end_array();
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  Json json;
  std::uint64_t bad = 0;
  bad += campaign_section(json);
  bad += transient_convergence_section(json);
  bad += adaptive_section(json);
  std::printf(
      "\nExpectation: every cell of the degradation surface passes its\n"
      "post-hoc audit (conservation, no traversal of dead channels, BFS\n"
      "differential on drops), transient scripts that fully heal reproduce\n"
      "the fault-free delivered fraction exactly, and the adaptive policy\n"
      "quarantines fail-slow links that the oblivious baseline keeps using.\n");
  if (argc > 1) json.finish(argv[1]);
  if (bad != 0) {
    std::printf("CHAOS GATE FAILED: %llu violations/mismatches\n",
                static_cast<unsigned long long>(bad));
    return 1;
  }
  return 0;
}
