#include "topology/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "topology/bfs.hpp"
#include "topology/metrics.hpp"
#include "topology/unit_flow.hpp"

namespace scg {
namespace {

/// A distinct physical channel of `g`.  When the reverse arc exists (always
/// for undirected graphs, and for materialize()d undirected networks stored
/// as symmetric directed arcs) both directions belong to one bidirectional
/// channel and fail together; otherwise the channel is the lone arc.
/// Parallel arcs between the same endpoints collapse to one channel — a
/// fault addresses the physical link, matching FaultSet semantics.
struct Channel {
  std::uint64_t u, v;
  bool bidirectional;
  auto operator<=>(const Channel&) const = default;
};

std::vector<Channel> physical_links(const Graph& g) {
  std::vector<Channel> links;
  links.reserve(g.num_links());
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    g.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
      bool both = !g.directed();
      if (g.directed()) both = g.find_arc(v, u) != g.num_links();
      if (both && v < u) return;  // count the pair from its smaller endpoint
      links.push_back(Channel{u, v, both});
    });
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

/// A max-flow needs two distinct nodes of `g`: s == t would count one unit
/// forever, and out-of-range ids index past the adjacency.
void check_flow_pair(const Graph& g, std::uint64_t s, std::uint64_t t,
                     const char* who) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    throw std::invalid_argument(std::string(who) + ": node out of range");
  }
  if (s == t) throw std::invalid_argument(std::string(who) + ": s == t");
}

}  // namespace

Graph with_faults(const Graph& g, const FaultSet& faults) {
  std::vector<Graph::Edge> edges;
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    if (faults.node_failed(u)) continue;
    g.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t tag) {
      if (faults.blocks(u, v)) return;
      // Keep each undirected edge once (the CSR stores both directions).
      if (!g.directed() && v < u) return;
      edges.push_back(Graph::Edge{u, v, tag});
    });
  }
  return Graph::build(g.num_nodes(), g.directed(), edges);
}

bool connected_after_faults(const Graph& g, const FaultSet& faults) {
  const Graph h = with_faults(g, faults);
  std::uint64_t src = g.num_nodes();
  std::uint64_t alive = 0;
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    if (!faults.node_failed(u)) {
      ++alive;
      if (src == g.num_nodes()) src = u;
    }
  }
  if (alive <= 1) return true;
  const auto check = [&](const Graph& graph) {
    const auto dist = bfs_distances(graph, src);
    for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
      if (!faults.node_failed(u) && dist[u] == kUnreached) return false;
    }
    return true;
  };
  if (!check(h)) return false;
  if (h.directed() && !check(h.reversed())) return false;
  return true;
}

std::uint64_t edge_connectivity_pair(const Graph& g, std::uint64_t s,
                                     std::uint64_t t) {
  check_flow_pair(g, s, t, "edge_connectivity_pair");
  // Every arc capacity 1.  For undirected graphs the opposite direction
  // appears as its own arc, so this builds the standard undirected network.
  UnitFlow f(g.num_nodes());
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    g.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
      f.add_arc(u, v);
    });
  }
  return f.run(s, t);
}

std::uint64_t edge_connectivity(const Graph& g) {
  std::uint64_t best = UINT64_MAX;
  for (std::uint64_t t = 1; t < g.num_nodes(); ++t) {
    best = std::min(best, edge_connectivity_pair(g, 0, t));
    if (best == 0) break;
  }
  return best == UINT64_MAX ? 0 : best;
}

std::uint64_t vertex_connectivity_pair(const Graph& g, std::uint64_t s,
                                       std::uint64_t t) {
  check_flow_pair(g, s, t, "vertex_connectivity_pair");
  return node_split_flow(g, s, t).run(2 * s + 1, 2 * t);
}

std::uint64_t vertex_connectivity(const Graph& g) {
  const std::uint64_t n = g.num_nodes();
  std::uint64_t best = n - 1;  // complete-graph fallback
  for (std::uint64_t s = 0; s < n; ++s) {
    for (std::uint64_t t = s + 1; t < n; ++t) {
      if (g.find_arc(s, t) != g.num_links()) continue;  // adjacent: skip
      best = std::min(best, vertex_connectivity_pair(g, s, t));
      if (best == 0) return 0;
    }
  }
  return best;
}

FaultSet sample_random_faults(const Graph& g, int node_failures,
                              int link_failures, std::mt19937_64& rng) {
  if (node_failures < 0 || link_failures < 0) {
    throw std::invalid_argument("sample_random_faults: negative count");
  }
  const std::uint64_t n = g.num_nodes();
  if (static_cast<std::uint64_t>(node_failures) >= n && n > 0) {
    throw std::invalid_argument(
        "sample_random_faults: node_failures (" +
        std::to_string(node_failures) + ") must leave at least one of " +
        std::to_string(n) + " nodes alive");
  }
  FaultSet faults;
  // Nodes: rejection sampling against the set built so far stays cheap while
  // the request is far below the population; switch to a partial
  // Fisher-Yates when it is not.
  const std::uint64_t want_nodes = static_cast<std::uint64_t>(node_failures);
  if (want_nodes * 2 >= n) {
    std::vector<std::uint64_t> ids(n);
    for (std::uint64_t u = 0; u < n; ++u) ids[u] = u;
    for (std::uint64_t i = 0; i < want_nodes; ++i) {
      std::uniform_int_distribution<std::uint64_t> pick(i, n - 1);
      std::swap(ids[i], ids[pick(rng)]);
      faults.fail_node(ids[i]);
    }
  } else if (want_nodes > 0) {
    std::uniform_int_distribution<std::uint64_t> pick(0, n - 1);
    while (faults.num_failed_nodes() < want_nodes) {
      faults.fail_node(pick(rng));
    }
  }
  if (link_failures > 0) {
    // Links: enumerate the distinct physical channels once, then draw a
    // uniform sample without replacement by partial Fisher-Yates.
    std::vector<Channel> links = physical_links(g);
    if (static_cast<std::size_t>(link_failures) > links.size()) {
      throw std::invalid_argument(
          "sample_random_faults: link_failures (" +
          std::to_string(link_failures) + ") exceeds the " +
          std::to_string(links.size()) + " distinct physical channels");
    }
    const std::size_t want_links = static_cast<std::size_t>(link_failures);
    for (std::size_t i = 0; i < want_links; ++i) {
      std::uniform_int_distribution<std::size_t> pick(i, links.size() - 1);
      std::swap(links[i], links[pick(rng)]);
      if (links[i].bidirectional) {
        faults.fail_link(links[i].u, links[i].v);
      } else {
        faults.fail_arc(links[i].u, links[i].v);
      }
    }
  }
  return faults;
}

FaultSet sample_correlated_faults(const Graph& g, int regions, int radius,
                                  std::mt19937_64& rng) {
  const std::uint64_t n = g.num_nodes();
  if (regions < 1 || static_cast<std::uint64_t>(regions) > n) {
    throw std::invalid_argument("sample_correlated_faults: regions must be in [1, num_nodes]");
  }
  if (radius < 1) {
    throw std::invalid_argument("sample_correlated_faults: radius must be >= 1");
  }
  // Distinct centers without replacement (rejection sampling: region counts
  // are tiny next to the node population in every campaign).
  std::unordered_set<std::uint64_t> centers;
  std::uniform_int_distribution<std::uint64_t> pick(0, n - 1);
  while (centers.size() < static_cast<std::size_t>(regions)) {
    centers.insert(pick(rng));
  }
  FaultSet faults;
  for (const std::uint64_t center : centers) {
    const std::vector<std::uint16_t> dist = bfs_distances(g, center);
    const auto in_ball = [&](std::uint64_t u) {
      return dist[u] != kUnreached && dist[u] <= static_cast<std::uint32_t>(radius);
    };
    for (std::uint64_t u = 0; u < n; ++u) {
      if (!in_ball(u)) continue;
      g.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
        if (in_ball(v)) faults.fail_link(u, v);
      });
    }
  }
  return faults;
}

double random_fault_survival_rate(const Graph& g, int node_failures,
                                  int link_failures, int trials,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  int survived = 0;
  for (int t = 0; t < trials; ++t) {
    const FaultSet faults =
        sample_random_faults(g, node_failures, link_failures, rng);
    if (connected_after_faults(g, faults)) ++survived;
  }
  return trials > 0 ? static_cast<double>(survived) / trials : 1.0;
}

}  // namespace scg
