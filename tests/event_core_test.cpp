// Event core: golden equality against verbatim copies of the seed
// simulators (the three standalone event loops the core replaced), lazy
// injection-time routing == pre-routed-path equivalence, the RoutePolicy
// registry, off-chip table validation, and telemetry invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <random>

#include "analysis/oracle_audit.hpp"
#include "networks/oracle_policy.hpp"
#include "networks/route_policy.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/baselines.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations: the seed event loops, copied verbatim (modulo
// names and the config/result types).  simulate_events must reproduce these
// bit-for-bit — including the double accumulation orders — on any valid
// workload.
// ---------------------------------------------------------------------------

EventSimResult ref_simulate_mcmp(
    const Graph& g, const std::function<bool(std::int32_t)>& is_offchip,
    std::vector<SimPacket> packets, const EventSimConfig& cfg) {
  struct Event {
    std::uint64_t time;
    std::uint32_t packet;
    std::uint32_t hop;
    bool operator>(const Event& o) const { return time > o.time; }
  };

  EventSimResult res;
  res.packets = packets.size();
  std::vector<std::uint64_t> link_free(g.num_links(), 0);
  std::vector<std::uint64_t> link_busy(g.num_links(), 0);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    pq.push(Event{packets[p].inject_time, p, 0});
  }
  std::uint64_t latency_sum = 0;
  while (!pq.empty()) {
    const Event ev = pq.top();
    pq.pop();
    const SimPacket& pk = packets[ev.packet];
    if (ev.hop + 1 >= pk.path.size()) {
      res.completion_cycles = std::max(res.completion_cycles, ev.time);
      latency_sum += ev.time - pk.inject_time;
      continue;
    }
    const std::uint64_t arc = g.find_arc(pk.path[ev.hop], pk.path[ev.hop + 1]);
    const bool off = is_offchip(g.arc_tag(arc));
    const std::uint64_t occ =
        static_cast<std::uint64_t>(off ? cfg.offchip_cycles_per_flit
                                      : cfg.onchip_cycles_per_flit);
    const std::uint64_t start = std::max(ev.time, link_free[arc]);
    link_free[arc] = start + occ;
    link_busy[arc] += occ;
    ++res.total_hops;
    if (off) ++res.offchip_hops;
    pq.push(Event{start + occ, ev.packet, ev.hop + 1});
  }
  if (res.packets > 0) {
    res.avg_latency =
        static_cast<double>(latency_sum) / static_cast<double>(res.packets);
  }
  for (const std::uint64_t b : link_busy) {
    res.max_link_busy = std::max(res.max_link_busy, static_cast<double>(b));
  }
  return res;
}

EventSimResult ref_simulate_mcmp_faulty(
    const Graph& g, const std::function<bool(std::int32_t)>& is_offchip,
    std::vector<SimPacket> packets, std::vector<FaultEvent> schedule,
    const Rerouter& reroute, const EventSimConfig& cfg) {
  struct Event {
    std::uint64_t time;
    std::uint32_t packet;
    bool operator>(const Event& o) const { return time > o.time; }
  };
  struct PacketState {
    std::vector<std::uint32_t> path;
    std::uint32_t hop = 0;
    int retransmits = 0;
    std::uint64_t hops_walked = 0;
  };

  EventSimResult res;
  res.packets = packets.size();
  std::sort(schedule.begin(), schedule.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  FaultSet faults;
  std::size_t next_fault = 0;
  const auto apply_faults_until = [&](std::uint64_t now) {
    while (next_fault < schedule.size() && schedule[next_fault].time <= now) {
      const FaultEvent& f = schedule[next_fault++];
      faults.fail_link(f.u, f.v);
    }
  };

  std::vector<std::uint64_t> link_free(g.num_links(), 0);
  std::vector<std::uint64_t> link_busy(g.num_links(), 0);
  std::vector<PacketState> state(packets.size());
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    state[p].path = packets[p].path;
    pq.push(Event{packets[p].inject_time, p});
  }

  std::vector<std::uint64_t> latencies;
  std::vector<double> stretches;
  while (!pq.empty()) {
    const Event ev = pq.top();
    pq.pop();
    const SimPacket& pk = packets[ev.packet];
    PacketState& ps = state[ev.packet];
    if (ev.time > cfg.max_cycles) {
      ++res.dropped;
      continue;
    }
    apply_faults_until(ev.time);
    if (ps.hop + 1 >= ps.path.size()) {
      ++res.delivered;
      res.completion_cycles = std::max(res.completion_cycles, ev.time);
      latencies.push_back(ev.time - pk.inject_time);
      const std::uint64_t pristine = pk.path.size() > 1 ? pk.path.size() - 1 : 1;
      stretches.push_back(static_cast<double>(ps.hops_walked) /
                          static_cast<double>(pristine));
      continue;
    }
    const std::uint64_t u = ps.path[ps.hop];
    const std::uint64_t v = ps.path[ps.hop + 1];
    if (faults.blocks(u, v)) {
      ++res.timeouts;
      ++ps.retransmits;
      if (ps.retransmits > cfg.max_retransmits) {
        ++res.dropped;
        continue;
      }
      std::vector<std::uint32_t> repaired = reroute(u, pk.dst, faults);
      if (repaired.empty()) {
        ++res.dropped;
        continue;
      }
      ++res.retransmissions;
      ps.path = std::move(repaired);
      ps.hop = 0;
      const std::uint64_t backoff = std::min<std::uint64_t>(
          1024, std::uint64_t{2} << (ps.retransmits - 1));
      pq.push(Event{ev.time + 4 + backoff, ev.packet});
      continue;
    }
    const std::uint64_t arc = g.find_arc(u, v);
    const bool off = is_offchip(g.arc_tag(arc));
    const std::uint64_t occ =
        static_cast<std::uint64_t>(off ? cfg.offchip_cycles_per_flit
                                      : cfg.onchip_cycles_per_flit);
    const std::uint64_t start = std::max(ev.time, link_free[arc]);
    link_free[arc] = start + occ;
    link_busy[arc] += occ;
    ++res.total_hops;
    ++ps.hops_walked;
    if (off) ++res.offchip_hops;
    ++ps.hop;
    pq.push(Event{start + occ, ev.packet});
  }

  res.delivered_fraction =
      res.packets > 0
          ? static_cast<double>(res.delivered) / static_cast<double>(res.packets)
          : 1.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t l : latencies) sum += l;
    res.avg_latency =
        static_cast<double>(sum) / static_cast<double>(latencies.size());
    res.p50_latency = latencies[latencies.size() / 2];
    res.p99_latency =
        latencies[std::min(latencies.size() - 1, (latencies.size() * 99) / 100)];
    double ssum = 0;
    for (const double s : stretches) {
      ssum += s;
      res.max_stretch = std::max(res.max_stretch, s);
    }
    res.avg_stretch = ssum / static_cast<double>(stretches.size());
  }
  for (const std::uint64_t b : link_busy) {
    res.max_link_busy = std::max(res.max_link_busy, static_cast<double>(b));
  }
  return res;
}

EventSimResult ref_simulate_cut_through(
    const Graph& g, const std::function<bool(std::int32_t)>& is_offchip,
    std::vector<SimPacket> packets, const EventSimConfig& cfg) {
  struct Event {
    std::uint64_t ready;
    std::uint32_t packet;
    std::uint32_t hop;
    bool operator>(const Event& o) const { return ready > o.ready; }
  };

  EventSimResult res;
  res.packets = packets.size();
  const std::uint64_t flits = static_cast<std::uint64_t>(cfg.flits_per_packet);
  std::vector<std::uint64_t> link_free(g.num_links(), 0);
  std::vector<std::uint64_t> link_busy(g.num_links(), 0);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    pq.push(Event{packets[p].inject_time, p, 0});
  }
  auto cycles_of = [&](std::uint64_t arc) -> std::uint64_t {
    return static_cast<std::uint64_t>(is_offchip(g.arc_tag(arc))
                                          ? cfg.offchip_cycles_per_flit
                                          : cfg.onchip_cycles_per_flit);
  };
  std::uint64_t latency_sum = 0;
  while (!pq.empty()) {
    const Event ev = pq.top();
    pq.pop();
    const SimPacket& pk = packets[ev.packet];
    if (ev.hop + 1 >= pk.path.size()) {
      res.completion_cycles = std::max(res.completion_cycles, ev.ready);
      latency_sum += ev.ready - pk.inject_time;
      continue;
    }
    const std::uint64_t arc = g.find_arc(pk.path[ev.hop], pk.path[ev.hop + 1]);
    const std::uint64_t c = cycles_of(arc);
    const std::uint64_t start = std::max(ev.ready, link_free[arc]);
    link_free[arc] = start + flits * c;
    link_busy[arc] += flits * c;
    res.flit_hops += flits;
    std::uint64_t next_ready;
    if (ev.hop + 2 >= pk.path.size()) {
      next_ready = start + flits * c;
    } else {
      const std::uint64_t next_arc =
          g.find_arc(pk.path[ev.hop + 1], pk.path[ev.hop + 2]);
      const std::uint64_t cd = cycles_of(next_arc);
      const std::uint64_t stream_gap =
          flits * c > (flits - 1) * cd ? flits * c - (flits - 1) * cd : 0;
      next_ready = start + std::max(c, stream_gap);
    }
    pq.push(Event{next_ready, ev.packet, ev.hop + 1});
  }
  if (res.packets > 0) {
    res.avg_latency =
        static_cast<double>(latency_sum) / static_cast<double>(res.packets);
  }
  for (const std::uint64_t b : link_busy) {
    res.max_link_busy = std::max(res.max_link_busy, static_cast<double>(b));
  }
  return res;
}

// ---------------------------------------------------------------------------
// Workload helpers
// ---------------------------------------------------------------------------

std::function<bool(std::int32_t)> offchip_of(const NetworkSpec& net) {
  return [&net](std::int32_t tag) {
    return !is_nucleus(net.generators[static_cast<std::size_t>(tag)].kind);
  };
}

/// Random traffic with staggered injection (the generators emit inject 0).
std::vector<SimPacket> staggered(std::vector<SimPacket> pkts) {
  for (std::size_t i = 0; i < pkts.size(); ++i) pkts[i].inject_time = i % 16;
  return pkts;
}

/// A link-kill schedule drawn from hops the workload actually uses, so the
/// fault machinery (timeout / re-route / backoff) genuinely fires.
std::vector<FaultEvent> kills_from(const std::vector<SimPacket>& pkts) {
  std::vector<FaultEvent> schedule;
  for (std::size_t i = 0; i < pkts.size() && schedule.size() < 6; i += 37) {
    const auto& path = pkts[i].path;
    if (path.size() < 3) continue;
    const std::size_t mid = path.size() / 2;
    schedule.push_back(FaultEvent::link_fail(3 + 11 * schedule.size(),
                                             path[mid], path[mid + 1]));
  }
  return schedule;
}

struct Family {
  const char* label;
  NetworkSpec net;
};

std::vector<Family> golden_families() {
  std::vector<Family> fams;
  fams.push_back({"MS(2,2)", make_macro_star(2, 2)});
  fams.push_back({"cRS(2,2)", make_complete_rotation_star(2, 2)});
  fams.push_back({"MR(2,2)", make_macro_rotator(2, 2)});
  fams.push_back({"star(5)", make_star_graph(5)});
  fams.push_back({"MIS(2,2)", make_macro_is(2, 2)});
  return fams;
}

// ---------------------------------------------------------------------------
// Golden equality: the core vs the seed loops
// ---------------------------------------------------------------------------

TEST(GoldenEquality, StoreAndForwardMatchesSeedAcrossFamilies) {
  for (const Family& f : golden_families()) {
    const Graph g = materialize(f.net);
    const auto pkts = staggered(random_traffic_packets(f.net, 4, 7));
    EventSimConfig cfg;
    cfg.offchip_cycles_per_flit = std::max(1, f.net.intercluster_degree());
    const EventSimResult want =
        ref_simulate_mcmp(g, offchip_of(f.net), pkts, cfg);
    const EventSimResult got =
        simulate_events(g, OffchipTable(g, offchip_of(f.net)), pkts, cfg);
    EXPECT_EQ(got.completion_cycles, want.completion_cycles) << f.label;
    EXPECT_EQ(got.avg_latency, want.avg_latency) << f.label;
    EXPECT_EQ(got.packets, want.packets) << f.label;
    EXPECT_EQ(got.total_hops, want.total_hops) << f.label;
    EXPECT_EQ(got.offchip_hops, want.offchip_hops) << f.label;
    EXPECT_EQ(got.max_link_busy, want.max_link_busy) << f.label;
  }
}

TEST(GoldenEquality, StoreAndForwardMatchesSeedOnExplicitGraphs) {
  const Graph graphs[] = {make_hypercube(4), make_torus_2d(4, 5), make_ring(12)};
  for (const Graph& g : graphs) {
    const auto pkts = staggered(random_traffic_packets(g, 5, 23));
    EventSimConfig cfg;
    cfg.offchip_cycles_per_flit = 3;
    const auto all = [](std::int32_t) { return true; };
    const EventSimResult want = ref_simulate_mcmp(g, all, pkts, cfg);
    const EventSimResult got =
        simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
    EXPECT_EQ(got.completion_cycles, want.completion_cycles);
    EXPECT_EQ(got.avg_latency, want.avg_latency);
    EXPECT_EQ(got.total_hops, want.total_hops);
    EXPECT_EQ(got.max_link_busy, want.max_link_busy);
  }
}

TEST(GoldenEquality, FaultyMatchesSeedAcrossFamilies) {
  std::uint64_t exercised = 0;
  for (const Family& f : golden_families()) {
    const Graph g = materialize(f.net);
    const auto pkts = staggered(random_traffic_packets(f.net, 4, 11));
    const std::vector<FaultEvent> schedule = kills_from(pkts);
    const FaultRouter router(f.net);
    const Rerouter reroute = make_rerouter(router);
    EventSimConfig cfg;
    cfg.offchip_cycles_per_flit = std::max(1, f.net.intercluster_degree());
    const EventSimResult want = ref_simulate_mcmp_faulty(
        g, offchip_of(f.net), pkts, schedule, reroute, cfg);
    const EventSimResult got =
        simulate_chaos(g, OffchipTable(g, offchip_of(f.net)), pkts, cfg,
                       schedule, &reroute);
    EXPECT_EQ(got.packets, want.packets) << f.label;
    EXPECT_EQ(got.delivered, want.delivered) << f.label;
    EXPECT_EQ(got.dropped, want.dropped) << f.label;
    EXPECT_EQ(got.delivered_fraction, want.delivered_fraction) << f.label;
    EXPECT_EQ(got.timeouts, want.timeouts) << f.label;
    EXPECT_EQ(got.retransmissions, want.retransmissions) << f.label;
    EXPECT_EQ(got.completion_cycles, want.completion_cycles) << f.label;
    EXPECT_EQ(got.avg_latency, want.avg_latency) << f.label;
    EXPECT_EQ(got.p50_latency, want.p50_latency) << f.label;
    EXPECT_EQ(got.p99_latency, want.p99_latency) << f.label;
    EXPECT_EQ(got.avg_stretch, want.avg_stretch) << f.label;
    EXPECT_EQ(got.max_stretch, want.max_stretch) << f.label;
    EXPECT_EQ(got.total_hops, want.total_hops) << f.label;
    EXPECT_EQ(got.offchip_hops, want.offchip_hops) << f.label;
    EXPECT_EQ(got.max_link_busy, want.max_link_busy) << f.label;
    exercised += want.timeouts;
  }
  // The schedules are drawn from used hops, so the timeout/re-route path
  // must actually have fired somewhere (everything above is deterministic).
  EXPECT_GT(exercised, 0u);
}

TEST(GoldenEquality, CutThroughMatchesSeedAcrossFamilies) {
  for (const Family& f : golden_families()) {
    const Graph g = materialize(f.net);
    const auto pkts = staggered(random_traffic_packets(f.net, 3, 31));
    for (const int flits : {1, 4}) {
      EventSimConfig cfg;
      cfg.flits_per_packet = flits;
      cfg.offchip_cycles_per_flit = std::max(1, f.net.intercluster_degree());
      const EventSimResult want =
          ref_simulate_cut_through(g, offchip_of(f.net), pkts, cfg);
      const EventSimResult got =
          simulate_events(g, OffchipTable(g, offchip_of(f.net)), pkts, cfg);
      EXPECT_EQ(got.completion_cycles, want.completion_cycles)
          << f.label << " flits=" << flits;
      EXPECT_EQ(got.avg_latency, want.avg_latency)
          << f.label << " flits=" << flits;
      EXPECT_EQ(got.flit_hops, want.flit_hops) << f.label << " flits=" << flits;
      EXPECT_EQ(got.max_link_busy, want.max_link_busy)
          << f.label << " flits=" << flits;
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy injection-time routing == pre-routed paths
// ---------------------------------------------------------------------------

std::vector<TrafficPair> staggered_pairs(std::vector<TrafficPair> pairs) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pairs[i].inject_time = i % 32;
  }
  return pairs;
}

TEST(LazyRouting, EqualsPreroutedStoreAndForward) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs =
      staggered_pairs(random_traffic_pairs(net.num_nodes(), 6, 99));
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
    cfg.route_chunk = chunk;
    GamePolicy lazy_policy(net);
    const EventSimResult lazy =
        simulate_events(g, offchip, pairs, lazy_policy, cfg);
    GamePolicy pre_policy(net);
    const std::vector<SimPacket> pkts = packets_for(pre_policy, pairs);
    const EventSimResult pre = simulate_events(g, offchip, pkts, cfg);
    EXPECT_EQ(lazy.completion_cycles, pre.completion_cycles) << chunk;
    EXPECT_EQ(lazy.avg_latency, pre.avg_latency) << chunk;
    EXPECT_EQ(lazy.total_hops, pre.total_hops) << chunk;
    EXPECT_EQ(lazy.offchip_hops, pre.offchip_hops) << chunk;
    EXPECT_EQ(lazy.max_link_busy, pre.max_link_busy) << chunk;
    EXPECT_EQ(lazy.telemetry.events_processed, pre.telemetry.events_processed)
        << chunk;
    // Lazy telemetry: every pair routed in ceil(n / chunk) chunks, through
    // the engine cache.
    EXPECT_EQ(lazy.telemetry.route_chunks,
              (pairs.size() + chunk - 1) / chunk);
    EXPECT_GT(lazy.telemetry.cache_hits + lazy.telemetry.cache_misses, 0u);
  }
}

TEST(LazyRouting, EqualsPreroutedCutThrough) {
  const NetworkSpec net = make_complete_rotation_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs =
      staggered_pairs(random_traffic_pairs(net.num_nodes(), 5, 5));
  EventSimConfig cfg;
  cfg.flits_per_packet = 4;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  cfg.route_chunk = 100;
  GamePolicy lazy_policy(net);
  const EventSimResult lazy =
      simulate_events(g, offchip, pairs, lazy_policy, cfg);
  GamePolicy pre_policy(net);
  const EventSimResult pre =
      simulate_events(g, offchip, packets_for(pre_policy, pairs), cfg);
  EXPECT_EQ(lazy.completion_cycles, pre.completion_cycles);
  EXPECT_EQ(lazy.avg_latency, pre.avg_latency);
  EXPECT_EQ(lazy.flit_hops, pre.flit_hops);
  EXPECT_EQ(lazy.max_link_busy, pre.max_link_busy);
}

TEST(LazyRouting, EqualsPreroutedUnderFaults) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs =
      staggered_pairs(random_traffic_pairs(net.num_nodes(), 4, 17));
  GamePolicy pre_policy(net);
  const std::vector<SimPacket> pkts = packets_for(pre_policy, pairs);
  const std::vector<FaultEvent> schedule = kills_from(pkts);
  const FaultRouter router(net);
  const Rerouter reroute = make_rerouter(router);
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  cfg.route_chunk = 50;
  GamePolicy lazy_policy(net);
  const EventSimResult lazy =
      simulate_chaos(g, offchip, pairs, lazy_policy, cfg, schedule, &reroute);
  const EventSimResult pre =
      simulate_chaos(g, offchip, pkts, cfg, schedule, &reroute);
  EXPECT_EQ(lazy.delivered, pre.delivered);
  EXPECT_EQ(lazy.dropped, pre.dropped);
  EXPECT_EQ(lazy.timeouts, pre.timeouts);
  EXPECT_EQ(lazy.retransmissions, pre.retransmissions);
  EXPECT_EQ(lazy.completion_cycles, pre.completion_cycles);
  EXPECT_EQ(lazy.avg_latency, pre.avg_latency);
  EXPECT_EQ(lazy.avg_stretch, pre.avg_stretch);
  EXPECT_EQ(lazy.max_link_busy, pre.max_link_busy);
}

// ---------------------------------------------------------------------------
// RoutePolicy contract + registry
// ---------------------------------------------------------------------------

void expect_valid_walks(RoutePolicy& policy, const NetworkSpec& net,
                        const Graph& g) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  std::vector<std::uint64_t> srcs, dsts;
  std::vector<std::uint32_t> path;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t s = pick(rng);
    std::uint64_t d = pick(rng);
    if (d == s) d = (d + 1) % net.num_nodes();
    policy.route_path(s, d, path);
    ASSERT_FALSE(path.empty()) << policy.name();
    EXPECT_EQ(path.front(), s) << policy.name();
    EXPECT_EQ(path.back(), d) << policy.name();
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      ASSERT_NE(g.find_arc(path[h], path[h + 1]), g.num_links())
          << policy.name();
    }
    EXPECT_EQ(policy.route_hops(s, d), static_cast<int>(path.size()) - 1)
        << policy.name();
    srcs.push_back(s);
    dsts.push_back(d);
  }
  // Batch must agree with scalar.
  PathArena arena;
  policy.route_paths(srcs, dsts, arena);
  ASSERT_EQ(arena.size(), srcs.size()) << policy.name();
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    policy.route_path(srcs[i], dsts[i], path);
    const std::span<const std::uint32_t> batch_path = arena[i];
    ASSERT_EQ(batch_path.size(), path.size()) << policy.name();
    EXPECT_TRUE(std::equal(path.begin(), path.end(), batch_path.begin()))
        << policy.name();
  }
}

TEST(RoutePolicy, EveryBuiltinEmitsValidWalks) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  for (const char* name : {"game", "bfs", "fault"}) {
    const auto policy = make_route_policy(name, net);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
    expect_valid_walks(*policy, net, g);
  }
}

TEST(RoutePolicy, RegistryRejectsUnknownNames) {
  const NetworkSpec net = make_macro_star(2, 1);
  EXPECT_THROW(make_route_policy("no-such-policy", net), std::invalid_argument);
}

TEST(RoutePolicy, OracleRegistersExplicitly) {
  register_oracle_policy();
  const auto names = route_policy_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "oracle"), names.end());
  const NetworkSpec net = make_macro_star(2, 1);  // k = 3: tiny oracle
  const Graph g = materialize(net);
  const auto policy = make_route_policy("oracle", net);
  expect_valid_walks(*policy, net, g);
}

TEST(RoutePolicy, GamePathsMatchLegacyWorkloadGeneration) {
  // packets_for(GamePolicy) must be byte-identical to the engine-based
  // generation total_exchange_packets always used.
  const NetworkSpec net = make_complete_rotation_star(2, 1);
  GamePolicy policy(net);
  const auto pairs = total_exchange_pairs(net.num_nodes());
  const auto via_policy = packets_for(policy, pairs);
  const auto legacy = total_exchange_packets(net);
  ASSERT_EQ(via_policy.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(via_policy[i].src, legacy[i].src);
    EXPECT_EQ(via_policy[i].dst, legacy[i].dst);
    EXPECT_EQ(via_policy[i].path, legacy[i].path);
  }
}

// ---------------------------------------------------------------------------
// OffchipTable + telemetry
// ---------------------------------------------------------------------------

TEST(OffchipTable, MatchesPredicatePerArc) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const auto pred = offchip_of(net);
  const OffchipTable table(g, pred);
  ASSERT_EQ(table.num_arcs(), g.num_links());
  for (std::uint64_t arc = 0; arc < g.num_links(); ++arc) {
    EXPECT_EQ(table.offchip(arc), pred(g.arc_tag(arc))) << arc;
  }
  const OffchipTable all = OffchipTable::uniform(g, true);
  for (std::uint64_t arc = 0; arc < g.num_links(); ++arc) {
    EXPECT_TRUE(all.offchip(arc));
  }
}

TEST(OffchipTable, CoreRejectsTableNotBuiltForTheGraph) {
  // One packet per node on star(4).  An empty table or one built for a
  // smaller graph must be refused up front, never indexed past its end.
  const NetworkSpec net = make_star_graph(4);
  const Graph g = materialize(net);
  const auto pairs = random_traffic_pairs(net.num_nodes(), 1, 3);
  GamePolicy pre_policy(net);
  const std::vector<SimPacket> pkts = packets_for(pre_policy, pairs);
  const Graph smaller = materialize(make_star_graph(3));
  const std::vector<FaultEvent> chaos = {FaultEvent::link_fail(2, 0, 1)};
  for (const OffchipTable& bad :
       {OffchipTable{}, OffchipTable::uniform(smaller, true)}) {
    GamePolicy policy(net);
    EXPECT_THROW(simulate_events(g, bad, pkts, {}), std::invalid_argument);
    EXPECT_THROW(simulate_events(g, bad, pairs, policy, {}),
                 std::invalid_argument);
    EXPECT_THROW(simulate_chaos(g, bad, pkts, {}, chaos),
                 std::invalid_argument);
    EXPECT_THROW(simulate_chaos(g, bad, pairs, policy, {}, chaos),
                 std::invalid_argument);
  }
  const EventSimResult ok =
      simulate_events(g, OffchipTable::uniform(g, true), pkts, {});
  EXPECT_EQ(ok.packets, net.num_nodes());
}

TEST(Telemetry, CountsEventsAndQueuePeak) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const auto pkts = total_exchange_packets(net);
  const EventSimResult r =
      simulate_events(g, mcmp_offchip_table(net, g), pkts, {});
  // Without faults every packet pops one event per path node: hops transit
  // events plus the arrival event.
  EXPECT_EQ(r.telemetry.events_processed, r.total_hops + r.packets);
  EXPECT_GE(r.telemetry.queue_peak, pkts.size());
  EXPECT_EQ(r.telemetry.route_chunks, 0u);  // pre-routed run
}

// ---------------------------------------------------------------------------
// Policy-generic optimality audit
// ---------------------------------------------------------------------------

TEST(PolicyAudit, GamePolicyAuditMatchesEngineAudit) {
  const NetworkSpec net = make_macro_star(2, 1);  // k = 3, 6 nodes
  const DistanceOracle oracle = DistanceOracle::build(net);
  const OptimalityAudit direct = audit_route_optimality(net, oracle);
  GamePolicy policy(net, RouteEngineConfig{.cache_capacity = 0});
  const OptimalityAudit via_policy =
      audit_policy_optimality(net, oracle, policy);
  EXPECT_EQ(via_policy.sources, direct.sources);
  EXPECT_EQ(via_policy.optimal, direct.optimal);
  EXPECT_EQ(via_policy.avg_stretch, direct.avg_stretch);
  EXPECT_EQ(via_policy.max_stretch, direct.max_stretch);
  EXPECT_EQ(via_policy.max_gap, direct.max_gap);
}

TEST(PolicyAudit, OraclePolicyIsExactlyOptimal) {
  const NetworkSpec net = make_macro_star(2, 1);
  const DistanceOracle oracle = DistanceOracle::build(net);
  OraclePolicy policy(net);
  const OptimalityAudit audit = audit_policy_optimality(net, oracle, policy);
  EXPECT_GT(audit.sources, 0u);
  EXPECT_EQ(audit.optimal_fraction(), 1.0);
  EXPECT_EQ(audit.max_gap, 0);
}

}  // namespace
}  // namespace scg
