#include "networks/route_policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/thread_annotations.hpp"
#include "parallel/parallel_for.hpp"
#include "topology/bfs.hpp"

namespace scg {

// ---------------------------------------------------------------------------
// RoutePolicy defaults
// ---------------------------------------------------------------------------

void RoutePolicy::route_paths(std::span<const std::uint64_t> src,
                              std::span<const std::uint64_t> dst,
                              PathArena& out) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("route_paths: src/dst size mismatch");
  }
  out.clear();
  std::vector<std::uint32_t> path;
  for (std::size_t i = 0; i < src.size(); ++i) {
    route_path(src[i], dst[i], path);
    out.append(path);
  }
}

int RoutePolicy::route_hops(std::uint64_t src, std::uint64_t dst) {
  std::vector<std::uint32_t> path;
  route_path(src, dst, path);
  return static_cast<int>(path.size()) - 1;
}

// ---------------------------------------------------------------------------
// GraphRoutes (moved from sim/workloads.cpp)
// ---------------------------------------------------------------------------

GraphRoutes::GraphRoutes(const Graph& g)
    : view_(NetworkView::of(g)),
      toward_(view_),
      dist_to_(g.num_nodes()),
      have_(g.num_nodes(), false) {
  if (g.directed()) throw std::invalid_argument("GraphRoutes: undirected only");
}

GraphRoutes::GraphRoutes(const NetworkView& view)
    : view_(view),
      toward_(view),
      dist_to_(view.num_nodes()),
      have_(view.num_nodes(), false) {
  if (view_.directed()) {
    if (view_.spec() == nullptr) {
      throw std::invalid_argument(
          "GraphRoutes: directed routing needs a NetworkSpec-backed view");
    }
    toward_ = NetworkView::reverse_of(*view_.spec());
  }
}

std::vector<std::uint32_t> GraphRoutes::path(std::uint64_t src,
                                             std::uint64_t dst) {
  std::vector<std::uint32_t> nodes;
  path_into(src, dst, nodes);
  return nodes;
}

void GraphRoutes::path_into(std::uint64_t src, std::uint64_t dst,
                            std::vector<std::uint32_t>& out) {
  if (!have_[dst]) {
    // BFS from dst over `toward_` (the reverse view for directed networks)
    // gives distances towards dst.
    dist_to_[dst] = bfs_distances(toward_, dst);
    have_[dst] = true;
  }
  const std::vector<std::uint16_t>& dist = dist_to_[dst];
  if (dist[src] == kUnreached) throw std::invalid_argument("GraphRoutes: unreachable");
  out.clear();
  out.push_back(static_cast<std::uint32_t>(src));
  std::uint64_t cur = src;
  while (cur != dst) {
    std::uint64_t next = cur;
    view_.for_each_neighbor(cur, [&](std::uint64_t v, std::int32_t) {
      if (dist[v] + 1 == dist[cur] && (next == cur || v < next)) next = v;
    });
    if (next == cur) throw std::logic_error("GraphRoutes: no descent step");
    out.push_back(static_cast<std::uint32_t>(next));
    cur = next;
  }
}

// ---------------------------------------------------------------------------
// GamePolicy
// ---------------------------------------------------------------------------

GamePolicy::GamePolicy(const NetworkSpec& net, RouteEngineConfig cfg,
                       ThreadPool* pool)
    : engine_(net, cfg), pool_(pool) {}

void GamePolicy::route_path(std::uint64_t src, std::uint64_t dst,
                            std::vector<std::uint32_t>& out) {
  const int k = engine_.spec().k();
  const std::span<const Generator> word =
      engine_.route_into(Permutation::unrank(k, src),
                         Permutation::unrank(k, dst), engine_.scratch());
  engine_.expand_path(src, word, out);
}

void GamePolicy::route_paths(std::span<const std::uint64_t> src,
                             std::span<const std::uint64_t> dst,
                             PathArena& out) {
  engine_.route_batch(src, dst, batch_, pool_);
  const std::size_t n = src.size();
  std::vector<std::uint64_t>& off = out.offsets();
  std::vector<std::uint32_t>& nodes = out.nodes();
  off.resize(n + 1);
  off[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    off[i + 1] = off[i] + static_cast<std::uint64_t>(batch_.length(i)) + 1;
  }
  nodes.resize(off[n]);
  parallel_for_chunks(
      n,
      [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          engine_.expand_path_into(src[i], batch_.word(i),
                                   nodes.data() + off[i]);
        }
      },
      /*grain=*/1 << 12, pool_);
}

int GamePolicy::route_hops(std::uint64_t src, std::uint64_t dst) {
  const int k = engine_.spec().k();
  return engine_.route_length(Permutation::unrank(k, src),
                              Permutation::unrank(k, dst));
}

// ---------------------------------------------------------------------------
// FaultPolicy
// ---------------------------------------------------------------------------

// With no faults the router's first stage always delivers: no hop blocks.
void FaultPolicy::route_path(std::uint64_t src, std::uint64_t dst,
                             std::vector<std::uint32_t>& out) {
  const RouteOutcome outcome = router_.route(src, dst, none_);
  out.clear();
  out.reserve(outcome.path.size());
  for (const std::uint64_t u : outcome.path) {
    out.push_back(static_cast<std::uint32_t>(u));
  }
}

int FaultPolicy::route_hops(std::uint64_t src, std::uint64_t dst) {
  return router_.route(src, dst, none_).hops();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

struct PolicyRegistry {
  Mutex mu;
  std::unordered_map<std::string, RoutePolicyFactory> factories
      SCG_GUARDED_BY(mu);
};

PolicyRegistry& registry() {
  static PolicyRegistry r;
  return r;
}

/// Built-ins are registered lazily on first registry use: static-library
/// self-registration objects get dropped by the linker, an explicit init
/// call would burden every entry point.
void ensure_builtins(PolicyRegistry& r) SCG_REQUIRES(r.mu) {
  if (!r.factories.empty()) return;
  r.factories.emplace("game", [](const NetworkSpec& net) {
    return std::unique_ptr<RoutePolicy>(new GamePolicy(net));
  });
  r.factories.emplace("bfs", [](const NetworkSpec& net) {
    return std::unique_ptr<RoutePolicy>(
        new BfsPolicy(NetworkView::of(net)));
  });
  r.factories.emplace("fault", [](const NetworkSpec& net) {
    return std::unique_ptr<RoutePolicy>(new FaultPolicy(net));
  });
}

std::vector<std::string> names_locked(const PolicyRegistry& r)
    SCG_REQUIRES(r.mu) {
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [n, f] : r.factories) names.push_back(n);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

void register_route_policy(const std::string& name,
                           RoutePolicyFactory factory) {
  PolicyRegistry& r = registry();
  MutexLock lk(r.mu);
  ensure_builtins(r);
  r.factories[name] = std::move(factory);
}

std::unique_ptr<RoutePolicy> make_route_policy(const std::string& name,
                                               const NetworkSpec& net) {
  RoutePolicyFactory factory;
  {
    PolicyRegistry& r = registry();
    MutexLock lk(r.mu);
    ensure_builtins(r);
    const auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      std::string known;
      for (const std::string& n : names_locked(r)) {
        known += known.empty() ? n : ", " + n;
      }
      throw std::invalid_argument("unknown route policy '" + name +
                                  "' (have: " + known + ")");
    }
    factory = it->second;
  }
  return factory(net);
}

std::vector<std::string> route_policy_names() {
  PolicyRegistry& r = registry();
  MutexLock lk(r.mu);
  ensure_builtins(r);
  return names_locked(r);
}

}  // namespace scg
