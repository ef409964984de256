// Oracle path: DistanceOracle::build over the workload's oracle network on
// the default ThreadPool, then seeded exact_distance point queries, each
// timed on its own, and a sample of optimal_route words replayed hop by hop.
#include <optional>
#include <random>

#include "common.hpp"
#include "networks/router.hpp"
#include "oracle/oracle.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

/// Shares of the run spent building and querying.  A block builds until the
/// run's total build time catches up with its share, so a multi-second
/// build (cold) lands in a few blocks spread over the run and a short one
/// (hot) repeats within every block.
constexpr double kBuildShare = 0.2;
constexpr double kQueryShare = 0.05;
/// optimal_route words replayed and compared with the game route per run.
constexpr std::size_t kRouteSamples = 256;

class OraclePhase final : public Phase {
 public:
  OraclePhase(const Workload& w, const RunParams& p, Tracer& tr)
      : net_(w.oracle_net),
        diameter_(w.oracle_diameter),
        p_(p),
        tr_(tr),
        rng_(p.seed ^ 0x6f7261636c65ULL),
        pick_(0, net_.num_nodes() - 1) {}

  void round(Report& rep) override {
    ++rounds_;
    while (builds_.empty() ||
           build_total_s_ < rounds_ * p_.block_s(kBuildShare)) {
      oracle_.reset();
      Scope s(tr_, "oracle.build");
      const std::uint64_t t = now_ns();
      oracle_.emplace(scg::DistanceOracle::build(net_));
      builds_.push_back(seconds_since(t));
      build_total_s_ += builds_.back();
      check_tables(rep);
    }

    std::vector<std::uint64_t> query_ns;
    std::uint64_t bad = 0;
    const auto q_end =
        now_ns() + static_cast<std::uint64_t>(p_.block_s(kQueryShare) * 1e9);
    {
      Scope s(tr_, "oracle.queries");
      do {
        const std::uint64_t u = pick_(rng_), v = pick_(rng_);
        const std::uint64_t t = now_ns();
        const int d = oracle_->exact_distance(u, v);
        query_ns.push_back(now_ns() - t);
        bad += (d >= 0 && d <= diameter_) ? 0 : 1;
      } while (now_ns() < q_end);
    }
    rep.attempt(query_ns.size());
    rep.check(bad == 0, "oracle: exact_distance out of range", bad);
    query_p50_.push_back(percentile(query_ns, 0.50));
    query_p99_.push_back(percentile(query_ns, 0.99));
  }

  void finish(Report& rep) override {
    rep.metric("build_s", median(builds_), "s");
    rep.metric("query_p50_us", median(query_p50_) * 1e-3, "us");
    rep.metric("query_p99_us", median(query_p99_) * 1e-3, "us");

    // Optimal routes: replay from u to v, length == exact_distance, and no
    // longer than the game route.
    const int k = net_.k();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < kRouteSamples; ++i) {
      const scg::Permutation u = scg::Permutation::unrank(k, pick_(rng_));
      const scg::Permutation v = scg::Permutation::unrank(k, pick_(rng_));
      const std::uint64_t t = now_ns();
      const std::vector<scg::Generator> word = oracle_->optimal_route(u, v);
      route_ns_.push_back(now_ns() - t);
      const int len = static_cast<int>(word.size());
      const bool ok = scg::check_route(net_, u, v, word).empty() &&
                      len == oracle_->exact_distance(u, v) &&
                      len <= scg::route_length(net_, u, v);
      bad += ok ? 0 : 1;
    }
    rep.attempt(kRouteSamples);
    rep.check(bad == 0, "oracle: optimal_route replay failed", bad);
  }

  void trace(Report& rep) override {
    const double build_s = median(builds_);
    rep.metric("oracle.states_per_s",
               static_cast<double>(oracle_->num_states()) / build_s, "1/s");
    rep.metric("oracle.route_us", percentile(route_ns_, 0.50) * 1e-3, "us");
    rep.metric("oracle.diameter", oracle_->diameter(), "hops");
    rep.metric("oracle.reachable_states",
               static_cast<double>(oracle_->reachable_states()), "count");

    // Parallel speedup of the build: one worker against the default pool.
    const std::vector<std::uint64_t> hist = oracle_->histogram();
    oracle_.reset();
    scg::ThreadPool one(1);
    Scope s(tr_, "oracle.build_1thread");
    const std::uint64_t t = now_ns();
    const scg::DistanceOracle single = scg::DistanceOracle::build(net_, &one);
    const double single_s = seconds_since(t);
    rep.attempt(1);
    rep.check(single.histogram() == hist,
              "oracle: 1-thread build histogram differs");
    rep.metric("parallel.build_speedup", single_s / build_s, "x");
    rep.metric("parallel.pool_threads",
               static_cast<double>(scg::ThreadPool::global().size()), "count");
  }

 private:
  /// Whole-table invariants of the latest build.
  void check_tables(Report& rep) const {
    std::uint64_t sum = 0;
    for (const std::uint64_t h : oracle_->histogram()) sum += h;
    rep.attempt(1);
    rep.check(sum == oracle_->reachable_states(),
              "oracle: histogram does not sum to reachable_states");
    rep.check(oracle_->reachable_states() == net_.num_nodes(),
              "oracle: not every state reachable");
    rep.check(oracle_->diameter() == diameter_,
              "oracle: diameter " + std::to_string(oracle_->diameter()) +
                  " != " + std::to_string(diameter_));
  }

  const scg::NetworkSpec& net_;
  const int diameter_;
  const RunParams& p_;
  Tracer& tr_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<std::uint64_t> pick_;
  std::optional<scg::DistanceOracle> oracle_;
  int rounds_ = 0;
  std::vector<double> builds_;
  double build_total_s_ = 0;
  std::vector<double> query_p50_, query_p99_;
  std::vector<std::uint64_t> route_ns_;
};

}  // namespace

std::unique_ptr<Phase> make_oracle_phase(const Workload& w, const RunParams& p,
                                         Tracer& tr) {
  return std::make_unique<OraclePhase>(w, p, tr);
}

}  // namespace perfbench
