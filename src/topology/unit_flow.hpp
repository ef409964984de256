// Unit-capacity max-flow by BFS augmenting paths — the one max-flow behind
// edge connectivity, vertex connectivity and the fault router's
// node-disjoint backup paths.  Header-only: scg_topology links
// scg_networks, so the router (in scg_networks) cannot link against code
// compiled into scg_topology.
//
// Arcs keep their insertion order per node, and BFS scans them in that
// order, so the augmenting paths (and the flow decomposition callers read
// back) depend only on the order arcs were added.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

namespace scg {

class UnitFlow {
 public:
  struct Arc {
    std::uint32_t to;
    std::uint32_t rev;  ///< index of the paired arc in arcs(to)
    std::uint8_t cap;   ///< residual capacity
    bool fwd;           ///< added by add_arc (false: its residual reverse)
  };

  explicit UnitFlow(std::uint64_t nodes) : adj_(nodes) {}

  /// Adds a -> b with capacity `cap` and its zero-capacity residual b -> a.
  void add_arc(std::uint64_t a, std::uint64_t b, std::uint8_t cap = 1) {
    adj_[a].push_back(Arc{static_cast<std::uint32_t>(b),
                          static_cast<std::uint32_t>(adj_[b].size()), cap,
                          true});
    adj_[b].push_back(Arc{static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(adj_[a].size() - 1), 0,
                          false});
  }

  /// Augments src -> dst one unit at a time until no augmenting path is
  /// left; returns the flow value.  src must differ from dst.
  std::uint64_t run(std::uint64_t src, std::uint64_t dst) {
    std::uint64_t flow = 0;
    for (;;) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> parent(
          adj_.size(), {UINT32_MAX, UINT32_MAX});  // (node, arc index)
      std::queue<std::uint64_t> q;
      q.push(src);
      parent[src] = {static_cast<std::uint32_t>(src), UINT32_MAX};
      while (!q.empty() && parent[dst].first == UINT32_MAX) {
        const std::uint64_t u = q.front();
        q.pop();
        for (std::uint32_t i = 0; i < adj_[u].size(); ++i) {
          const Arc& a = adj_[u][i];
          if (a.cap == 0 || parent[a.to].first != UINT32_MAX) continue;
          parent[a.to] = {static_cast<std::uint32_t>(u), i};
          q.push(a.to);
        }
      }
      if (parent[dst].first == UINT32_MAX) return flow;
      for (std::uint64_t v = dst; v != src;) {
        const auto [u, ai] = parent[v];
        Arc& a = adj_[u][ai];
        --a.cap;
        ++adj_[v][a.rev].cap;
        v = u;
      }
      ++flow;
    }
  }

  std::vector<Arc>& arcs(std::uint64_t u) { return adj_[u]; }

 private:
  std::vector<std::vector<Arc>> adj_;
};

/// Node-splitting flow network of `g` (a Graph or a NetworkView): node u
/// becomes u_in = 2u -> u_out = 2u+1 with capacity 1 (unbounded for s and
/// t), every arc u -> v becomes u_out -> v_in with capacity 1, added in
/// for_each_neighbor order.  run(2s+1, 2t) then counts internally
/// node-disjoint s-t paths.
template <typename G>
UnitFlow node_split_flow(const G& g, std::uint64_t s, std::uint64_t t) {
  UnitFlow f(2 * g.num_nodes());
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    f.add_arc(2 * u, 2 * u + 1, (u == s || u == t) ? 255 : 1);
    g.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
      f.add_arc(2 * u + 1, 2 * v);
    });
  }
  return f;
}

}  // namespace scg
