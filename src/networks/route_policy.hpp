// RoutePolicy — one pluggable interface over every routing path the repo
// has: the game solver behind RouteEngine (scalar route() plays the same
// kernels), the fault-aware FaultRouter, the provably-shortest OracleRouter,
// and per-destination BFS over any NetworkView (GraphRoutes).  The
// discrete-event simulation core (sim/event_core.hpp) routes traffic through
// this interface — lazily, in batches, at injection time — and benches,
// examples and the CLI select implementations by name through the registry
// at the bottom of this header.
//
// Contract: route_path(src, dst, out) fills `out` with a node-rank walk
// src..dst (inclusive) whose consecutive hops are arcs of the network.
// route_paths is the batch form, writing into a PathArena (flat storage, no
// per-path allocation); the default loops route_path, engine-backed policies
// override it with RouteBatch fan-out so batch paths are byte-identical to
// scalar ones.
//
// Thread-safety: route_paths mutates internal batch state — call it from
// one thread at a time (it parallelises internally).  route_path/route_hops
// are safe to call concurrently on Game/Fault/Oracle policies; BfsPolicy
// lazily fills its per-destination distance cache and is single-threaded.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "networks/fault_router.hpp"
#include "networks/route_engine.hpp"
#include "networks/super_cayley.hpp"
#include "networks/view.hpp"
#include "topology/fault_set.hpp"

namespace scg {

// ---------------------------------------------------------------------------
// PathArena — flat batch-of-paths storage.
// ---------------------------------------------------------------------------

/// Concatenated node paths plus an offset array: path i is
/// nodes[off[i], off[i+1]).  Reuse across batches to keep capacity.
class PathArena {
 public:
  std::size_t size() const { return off_.size() - 1; }

  std::span<const std::uint32_t> operator[](std::size_t i) const {
    return {nodes_.data() + off_[i],
            static_cast<std::size_t>(off_[i + 1] - off_[i])};
  }

  /// Hop count of path i (nodes - 1).
  std::uint32_t hops(std::size_t i) const {
    return static_cast<std::uint32_t>(off_[i + 1] - off_[i] - 1);
  }

  std::uint64_t total_nodes() const { return nodes_.size(); }

  void clear() {
    nodes_.clear();
    off_.assign(1, 0);
  }

  void append(std::span<const std::uint32_t> path) {
    nodes_.insert(nodes_.end(), path.begin(), path.end());
    off_.push_back(nodes_.size());
  }

  /// Bulk-building access for policies that compute offsets up front and
  /// fill node slices in parallel.
  std::vector<std::uint32_t>& nodes() { return nodes_; }
  std::vector<std::uint64_t>& offsets() { return off_; }

 private:
  std::vector<std::uint32_t> nodes_;
  std::vector<std::uint64_t> off_{0};
};

// ---------------------------------------------------------------------------
// RoutePolicy
// ---------------------------------------------------------------------------

class RoutePolicy {
 public:
  virtual ~RoutePolicy() = default;

  /// Registry name of this policy ("game", "bfs", "fault", "oracle").
  virtual std::string name() const = 0;

  /// Clears `out` and fills it with a node walk src..dst (inclusive).
  /// Throws std::invalid_argument / std::runtime_error when no route exists.
  virtual void route_path(std::uint64_t src, std::uint64_t dst,
                          std::vector<std::uint32_t>& out) = 0;

  /// Routes every (src[i], dst[i]) pair, overwriting `out`.  The default
  /// loops route_path; batch-capable policies override it.
  virtual void route_paths(std::span<const std::uint64_t> src,
                           std::span<const std::uint64_t> dst, PathArena& out);

  /// Hop count of the path route_path would produce (default materialises).
  virtual int route_hops(std::uint64_t src, std::uint64_t dst);

  /// Route-cache statistics for engine-backed policies (zeros otherwise).
  virtual RouteCacheStats cache_stats() const { return {}; }
};

// ---------------------------------------------------------------------------
// GraphRoutes — per-destination BFS path oracle (moved from sim/workloads).
// ---------------------------------------------------------------------------

/// A routing oracle over any NetworkView: shortest paths via one BFS per
/// destination, cached.  Deterministic tie-breaking (lowest neighbor id).
/// Undirected views BFS from the destination directly; directed views need
/// a NetworkSpec-backed view so the reverse view can provide distances
/// *towards* each destination.
class GraphRoutes {
 public:
  explicit GraphRoutes(const Graph& g);
  explicit GraphRoutes(const NetworkView& view);

  /// Node sequence src..dst along a shortest path.
  std::vector<std::uint32_t> path(std::uint64_t src, std::uint64_t dst);

  /// Same, appending into a caller-owned vector after clearing it.
  void path_into(std::uint64_t src, std::uint64_t dst,
                 std::vector<std::uint32_t>& out);

 private:
  NetworkView view_;    // forward adjacency (descent steps)
  NetworkView toward_;  // BFS from dst on this yields distances towards dst
  // dist_to_[dst] lazily holds BFS distances *towards* dst.
  std::vector<std::vector<std::uint16_t>> dist_to_;
  std::vector<bool> have_;
};

// ---------------------------------------------------------------------------
// Policy implementations
// ---------------------------------------------------------------------------

/// Game-solver routing through the zero-allocation RouteEngine: scalar
/// queries hit the relative-permutation cache, batches fan out through
/// route_batch and expand into the arena with the compiled generator
/// tables.  Borrows the spec; it must outlive the policy.
class GamePolicy : public RoutePolicy {
 public:
  explicit GamePolicy(const NetworkSpec& net, RouteEngineConfig cfg = {},
                      ThreadPool* pool = nullptr);

  std::string name() const override { return "game"; }
  void route_path(std::uint64_t src, std::uint64_t dst,
                  std::vector<std::uint32_t>& out) override;
  void route_paths(std::span<const std::uint64_t> src,
                   std::span<const std::uint64_t> dst, PathArena& out) override;
  int route_hops(std::uint64_t src, std::uint64_t dst) override;
  RouteCacheStats cache_stats() const override { return engine_.cache_stats(); }

  const RouteEngine& engine() const { return engine_; }

 private:
  RouteEngine engine_;
  RouteBatch batch_;  // reused across route_paths calls
  ThreadPool* pool_;
};

/// Shortest-path routing by per-destination BFS over the materialized
/// network (works for any graph, not just Cayley specs).
class BfsPolicy : public RoutePolicy {
 public:
  explicit BfsPolicy(const Graph& g) : routes_(g) {}
  explicit BfsPolicy(const NetworkView& view) : routes_(view) {}

  std::string name() const override { return "bfs"; }
  void route_path(std::uint64_t src, std::uint64_t dst,
                  std::vector<std::uint32_t>& out) override {
    routes_.path_into(src, dst, out);
  }

 private:
  GraphRoutes routes_;
};

/// Routing through the FaultRouter with no faults: exactly the primary game
/// routes, the pristine path source for degradation experiments.
class FaultPolicy : public RoutePolicy {
 public:
  explicit FaultPolicy(const NetworkSpec& net) : router_(net) {}

  std::string name() const override { return "fault"; }
  void route_path(std::uint64_t src, std::uint64_t dst,
                  std::vector<std::uint32_t>& out) override;
  int route_hops(std::uint64_t src, std::uint64_t dst) override;
  RouteCacheStats cache_stats() const override {
    return router_.engine().cache_stats();
  }

 private:
  FaultRouter router_;
  FaultSet none_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

using RoutePolicyFactory =
    std::function<std::unique_ptr<RoutePolicy>(const NetworkSpec&)>;

/// Registers (or replaces) a named policy factory.  "game", "bfs" and
/// "fault" are built in; scg_oracle adds "oracle" via
/// register_oracle_policy() (networks/oracle_policy.hpp) — an explicit call
/// because static-library registrars get dropped by the linker.
void register_route_policy(const std::string& name, RoutePolicyFactory factory);

/// Instantiates the named policy for `net` (which must outlive it).
/// Throws std::invalid_argument for unknown names, listing what exists.
std::unique_ptr<RoutePolicy> make_route_policy(const std::string& name,
                                               const NetworkSpec& net);

/// Registered names, sorted.
std::vector<std::string> route_policy_names();

}  // namespace scg
