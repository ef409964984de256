// DistanceOracle — exact shortest-path distances for a whole Cayley network,
// built once by a parallel retrograde BFS and stored in 2 bits per state.
//
// The paper's central claim is that a game-solving algorithm IS a routing
// algorithm whose quality is its distance from optimal play.  This subsystem
// makes "optimal play" queryable: a retrograde (goal-backwards) BFS from the
// identity over the *reverse* network view labels every one of the k! states
// with its exact distance TO the identity, and vertex-transitivity reduces
// every pair query to that single table:
//
//     d(U, V) = d(V^{-1}∘U, e)        (left relabelings are automorphisms)
//
// Storage is the classic mod-3 pattern database (cf. Korf's two-bit BFS):
// entry(u) = d(u) mod 3, with 3 as the unvisited sentinel.  Because every
// state at distance d > 0 has an out-neighbor at distance d-1, and a
// neighbor's distance is congruent to d-1 (mod 3) only if it lies on a
// greedy descent candidate, the exact distance is recovered by walking
// toward the identity:
//  * undirected networks: every candidate neighbor is exactly one step
//    closer (neighbor distances differ by at most 1, and mod 3 separates
//    d-1 / d / d+1), so the descent is greedy and never backtracks;
//  * directed networks (MR/RR/complete-RR/rotator): a candidate may be
//    d+2 away, so the descent is an iterative-deepening DFS over candidate
//    moves with depth limits d0, d0+3, ... — the first depth that reaches
//    the identity is the exact distance, and the path found is a shortest
//    path (simple-path pruning keeps it complete: a minimal candidate walk
//    never repeats a state).
//
// The same descent yields `optimal_next_hop` / `optimal_route`: provably
// shortest game play between any two nodes, the benchmark every router in
// this library is audited against (see analysis/oracle_audit.hpp).
//
// Construction is a direction-optimizing BFS (Beamer et al., SC'12).  A
// level *pushes* — expands the frontier over the reverse view and claims
// unvisited neighbors by CAS — while the frontier is no larger than the set
// of unvisited states, and *pulls* once it is larger: every unvisited state
// is expanded over the forward view and labelled as soon as one neighbor
// holds residue (level-1) mod 3, which on directed networks too is exactly
// a neighbor at distance level-1.  Either direction yields the same table.
//
// k = 12 (479M states) fits the table in ~120 MB; construction additionally
// uses two frontier bitmaps of N/8 bytes each.  Tables persist to disk in a
// versioned format whose header pins family, parameters and a hash of the
// compiled generator set, so a stale or mismatched table is rejected on
// load, as is a payload whose per-residue entry counts disagree with its
// histogram (see save()/load()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/permutation.hpp"
#include "networks/super_cayley.hpp"
#include "networks/view.hpp"
#include "parallel/thread_pool.hpp"

namespace scg {

/// Largest k whose full table we allow in memory (12! states = ~120 MB).
inline constexpr int kMaxOracleSymbols = 12;

/// Exact distance oracle over the full state space of one network.
/// Borrows the NetworkSpec; it must outlive the oracle.  All const methods
/// are thread-safe.
class DistanceOracle {
 public:
  /// Builds the table by parallel retrograde BFS from the identity (toward-
  /// identity distances): push levels over the reverse view, pull levels
  /// over the forward view once fewer states are unvisited than sit in the
  /// frontier.  Throws for k > kMaxOracleSymbols.
  static DistanceOracle build(const NetworkSpec& net, ThreadPool* pool = nullptr);

  /// Loads a table previously written by save().  Verifies the header magic,
  /// version, family, parameters and generator hash against `net`, and that
  /// the table holds, per residue class r, as many entries as the histogram
  /// has states at distances d ≡ r (mod 3), num_states - reachable
  /// sentinels, and sentinels in its padding; throws std::runtime_error on
  /// any mismatch, corruption or truncation.
  static DistanceOracle load(const std::string& path, const NetworkSpec& net);

  /// Writes the versioned on-disk format (header + histogram + 2-bit table).
  void save(const std::string& path) const;

  /// Exact d(u -> identity) by mod-3 descent; -1 if the identity is
  /// unreachable from u.  Throws std::out_of_range for rank >= num_states().
  int distance_to_identity(std::uint64_t rank) const;

  /// Exact d(u -> v) via vertex-transitivity; -1 if unreachable.  The rank
  /// overload throws std::out_of_range for a rank >= num_states().
  int exact_distance(const Permutation& u, const Permutation& v) const;
  int exact_distance(std::uint64_t u, std::uint64_t v) const;

  /// Generator index (tag into spec().generators) of a provably optimal
  /// first hop from u toward v; -1 when u == v.  Throws when v is
  /// unreachable from u.
  int optimal_next_hop(const Permutation& u, const Permutation& v) const;

  /// A provably shortest generator word from u to v (length ==
  /// exact_distance).  Throws when v is unreachable from u.
  std::vector<Generator> optimal_route(const Permutation& u,
                                       const Permutation& v) const;

  /// Raw 2-bit entry: d(u -> identity) mod 3, or 3 if unreached.
  int residue(std::uint64_t rank) const {
    return static_cast<int>((table_[rank >> 5] >> ((rank & 31) * 2)) & 3);
  }

  // ---- whole-graph exact statistics, free by-products of construction ----

  /// Exact diameter (eccentricity of the identity in the reverse graph ==
  /// graph diameter by vertex symmetry).
  int diameter() const { return static_cast<int>(histogram_.size()) - 1; }

  /// Exact average distance over reachable non-identity states.
  double average_distance() const { return average_; }

  /// histogram[d] = number of states at exact distance d.
  const std::vector<std::uint64_t>& histogram() const { return histogram_; }

  std::uint64_t num_states() const { return num_states_; }
  std::uint64_t reachable_states() const { return reachable_; }
  const NetworkSpec& spec() const { return *net_; }

  /// FNV-1a hash over k, directedness and every generator's compiled
  /// position permutation — the on-disk format's compatibility key.
  static std::uint64_t generator_hash(const NetworkSpec& net);

 private:
  DistanceOracle() = default;

  /// IDDFS descent core: appends generator tags of a shortest path from
  /// `rank` to the identity into `word` (if non-null) and returns its exact
  /// length, or -1 when the identity is unreachable.
  int descend(std::uint64_t rank, std::vector<int>* word) const;
  bool descend_dfs(std::uint64_t rank, int budget, std::vector<int>* word,
                   std::vector<std::uint64_t>& path) const;
  void finish_stats();

  const NetworkSpec* net_ = nullptr;
  NetworkView fwd_;                       ///< forward view for descent
  std::uint64_t num_states_ = 0;
  std::uint64_t reachable_ = 0;
  std::uint64_t identity_rank_ = 0;
  double average_ = 0.0;
  std::vector<std::uint64_t> histogram_;  ///< level sizes of the retro BFS
  std::vector<std::uint64_t> table_;      ///< packed 2-bit entries, 32/word
};

}  // namespace scg
