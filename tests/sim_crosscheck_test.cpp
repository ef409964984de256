// Cross-model property tests on the event core: multi-flit cut-through
// against store-and-forward with the same per-hop packet occupancy, plus
// determinism and conservation.  Randomised over topologies and packet
// sets.
#include <gtest/gtest.h>

#include <random>

#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/baselines.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

std::vector<SimPacket> random_packets(const Graph& g, int count,
                                      std::uint64_t seed) {
  GraphRoutes routes(g);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, g.num_nodes() - 1);
  std::vector<SimPacket> pkts;
  for (int i = 0; i < count; ++i) {
    std::uint64_t s = pick(rng);
    std::uint64_t d = pick(rng);
    if (s == d) d = (d + 1) % g.num_nodes();
    SimPacket p;
    p.src = s;
    p.dst = d;
    p.path = routes.path(s, d);
    p.inject_time = rng() % 16;
    pkts.push_back(std::move(p));
  }
  return pkts;
}

/// `flits`-flit cut-through, all links off-chip at one cycle per flit.
EventSimResult cut_through(const Graph& g, const std::vector<SimPacket>& pkts,
                           int flits) {
  EventSimConfig cfg;
  cfg.flits_per_packet = flits;
  return simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
}

/// Store-and-forward where every hop occupies its link for `cycles`.
EventSimResult store_and_forward(const Graph& g,
                                 const std::vector<SimPacket>& pkts,
                                 int cycles) {
  EventSimConfig cfg;
  cfg.onchip_cycles_per_flit = cycles;
  cfg.offchip_cycles_per_flit = cycles;
  return simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
}

TEST(CutThroughVsSaf, PipeliningHelpsUpToSchedulingAnomalies) {
  // With F flits, cut-through pipelines hops.  Under contention, FIFO
  // arbitration anomalies can cost a few cycles (earlier-ready packets can
  // reorder link grants), but completion never exceeds store-and-forward
  // by more than one packet's serialisation, and is typically well below.
  const Graph graphs[] = {make_ring(12), make_hypercube(5), make_torus_2d(5, 5)};
  for (const Graph& g : graphs) {
    const auto pkts = random_packets(g, 80, 99);
    for (int flits : {2, 4, 8}) {
      const EventSimResult a = store_and_forward(g, pkts, flits);
      const EventSimResult b = cut_through(g, pkts, flits);
      EXPECT_LE(b.completion_cycles,
                a.completion_cycles + static_cast<std::uint64_t>(flits))
          << "flits=" << flits;
      // Average latency does benefit from pipelining.
      EXPECT_LE(b.avg_latency, a.avg_latency + flits) << "flits=" << flits;
    }
  }
}

TEST(CutThroughVsSaf, LonePacketStrictlyFasterOnMultiHopPaths) {
  // Without contention there is no anomaly: (h-1+F)c < h*F*c for h,F >= 2.
  const Graph g = make_ring(12);
  GraphRoutes routes(g);
  SimPacket p;
  p.src = 0;
  p.dst = 6;
  p.path = routes.path(0, 6);
  for (int flits : {2, 4, 8}) {
    const EventSimResult a = store_and_forward(g, {p}, flits);
    const EventSimResult b = cut_through(g, {p}, flits);
    EXPECT_LT(b.completion_cycles, a.completion_cycles) << "flits=" << flits;
  }
}

TEST(SimulatorDeterminism, RepeatRunsAgree) {
  const Graph g = make_torus_2d(4, 4);
  const auto pkts = random_packets(g, 100, 7);
  const EventSimResult a = store_and_forward(g, pkts, 3);
  const EventSimResult b = store_and_forward(g, pkts, 3);
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_NEAR(a.avg_latency, b.avg_latency, 1e-12);
}

TEST(SimulatorConservation, EveryPacketArrivesOnce) {
  const Graph g = make_hypercube(5);
  const auto pkts = random_packets(g, 200, 23);
  const EventSimResult r = store_and_forward(g, pkts, 1);
  EXPECT_EQ(r.packets, 200u);
  std::uint64_t expected_hops = 0;
  for (const SimPacket& p : pkts) expected_hops += p.path.size() - 1;
  EXPECT_EQ(r.total_hops, expected_hops);
}

}  // namespace
}  // namespace scg
