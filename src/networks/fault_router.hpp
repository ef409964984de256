// Fault-aware routing — turns the paper's fault-tolerance *analysis* (degree
// edge/vertex connectivity, Section 1) into an operational router.
//
// Strategy, in escalation order:
//  1. play the game: take the game-theoretic route (networks/router.hpp) and
//     verify it hop by hop against the FaultSet;
//  2. on a blocked hop, bounded local repair: deroute through the surviving
//     generator whose re-routed remainder is shortest (never re-entering a
//     node already on the path), re-solve the game from there, and retry —
//     up to 8 blocked hops, walking at most 4*(primary+k)+16 hops;
//  3. precomputed backup routes: the degree-many internally node-disjoint
//     s-t paths the paper's maximal fault tolerance promises (constructed by
//     node-splitting max-flow, cached per pair) — with <= degree-1 link
//     faults at least one always survives; networks above 40000 nodes skip
//     this stage;
//  4. complete fallback: parent-tracking BFS over the fault-filtered view
//     (networks up to 2^24 nodes).
//
// Every delivered outcome carries a generator word that replays from `from`
// to `to` through surviving links only (check_route-clean).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/generator.hpp"
#include "core/thread_annotations.hpp"
#include "core/permutation.hpp"
#include "networks/route_engine.hpp"
#include "networks/super_cayley.hpp"
#include "networks/view.hpp"
#include "topology/fault_set.hpp"

namespace scg {

/// Structured result of a fault-aware routing attempt.  `word`/`path` are
/// meaningful only when delivered; `reason` only when unreachable.
struct RouteOutcome {
  enum class Status : std::uint8_t { kDelivered, kUnreachable };

  Status status = Status::kUnreachable;
  std::vector<Generator> word;       ///< hop moves, all generators of the net
  std::vector<std::uint64_t> path;   ///< node ranks from..to (inclusive)
  std::string reason;                ///< why undeliverable
  int repairs = 0;                   ///< blocked hops repaired locally
  bool used_backup = false;          ///< a precomputed disjoint path won
  bool used_bfs_fallback = false;    ///< the BFS net caught it

  bool delivered() const { return status == Status::kDelivered; }
  int hops() const { return static_cast<int>(word.size()); }
};

/// Degree-many internally node-disjoint s-t paths, via node-splitting
/// unit-capacity max-flow over the compiled view (the operational face of
/// vertex connectivity == degree).  Each path is a node-rank sequence
/// s..t; none when s == t.  Throws std::invalid_argument when s or t is not
/// a node of `net` or the network exceeds 40000 nodes (the flow network is
/// explicit).
std::vector<std::vector<std::uint64_t>> node_disjoint_paths(
    const NetworkSpec& net, std::uint64_t s, std::uint64_t t);

/// Converts a node-rank path into the generator word realizing it.  Throws
/// if consecutive ranks are not joined by a generator of `net`.
std::vector<Generator> word_from_path(const NetworkSpec& net,
                                      const std::vector<std::uint64_t>& path);

/// The fault-aware router.  Borrows `net`; it must outlive the router.
/// Thread-safe for concurrent route() calls: the backup cache is locked, and
/// the engine's solve buffers are per thread.
class FaultRouter {
 public:
  explicit FaultRouter(const NetworkSpec& net);

  RouteOutcome route(const Permutation& from, const Permutation& to,
                     const FaultSet& faults) const;
  RouteOutcome route(std::uint64_t from, std::uint64_t to,
                     const FaultSet& faults) const;

  /// The cached node-disjoint backup paths for (s,t), computing them on
  /// first use.  Empty when the network exceeds the backup size limit.
  const std::vector<std::vector<std::uint64_t>>& backups(std::uint64_t s,
                                                         std::uint64_t t) const;

  const NetworkSpec& spec() const { return *net_; }

  /// The shared zero-allocation engine behind primary routes and repair
  /// probes (its relative-permutation cache persists across route() calls).
  const RouteEngine& engine() const { return engine_; }

 private:
  RouteOutcome bfs_fallback(std::uint64_t cur, std::uint64_t t,
                            const FaultSet& faults,
                            RouteOutcome walked) const;

  const NetworkSpec* net_;
  NetworkView view_;
  RouteEngine engine_;

  struct PairHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::uint64_t>& p) const {
      std::uint64_t h = p.first * 0x9e3779b97f4a7c15ULL;
      h ^= (p.second + 0xc2b2ae3d27d4eb4fULL) + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  mutable Mutex backup_mu_;
  /// Entry *references* handed out by backups() stay valid outside the lock
  /// (unordered_map never invalidates them); only map mutation is guarded.
  mutable std::unordered_map<std::pair<std::uint64_t, std::uint64_t>,
                             std::vector<std::vector<std::uint64_t>>, PairHash>
      backup_cache_ SCG_GUARDED_BY(backup_mu_);
};

}  // namespace scg
