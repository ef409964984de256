// Traced-only probes of the layers under the serve path, on the workload's
// own pairs: RouteEngine::route_batch with its default route cache (warm
// second pass) and with the cache off, and the perm_kernels primitives at
// the workload's k on the workload's own source ranks.
#include <span>

#include "common.hpp"
#include "core/perm_kernels.hpp"
#include "networks/route_engine.hpp"

namespace perfbench {
namespace {

/// Pairs per engine probe (a prefix of the serve pairs).
constexpr std::size_t kEnginePairs = std::size_t{1} << 18;
/// Permutations per kernel call and calls per timed repetition.
constexpr std::size_t kKernelBlock = 4096;
constexpr int kKernelCalls = 64;
constexpr int kKernelReps = 5;

struct EngineProbe {
  double rps = 0;
  scg::RouteCacheStats second_pass;  ///< cache counters of the timed pass
  std::uint64_t total_hops = 0;
};

/// Two route_batch passes over the same pairs; the second (warm) is timed.
EngineProbe engine_probe(const scg::NetworkSpec& net,
                         std::span<const std::uint64_t> src,
                         std::span<const std::uint64_t> dst,
                         scg::RouteEngineConfig cfg, Tracer& tr,
                         const char* span) {
  const scg::RouteEngine engine(net, cfg);
  scg::RouteBatch batch;
  engine.route_batch(src, dst, batch);
  const scg::RouteCacheStats before = engine.cache_stats();
  const std::uint64_t t = now_ns();
  engine.route_batch(src, dst, batch);
  const std::uint64_t t_end = now_ns();
  tr.span(span, t, t_end);
  const scg::RouteCacheStats after = engine.cache_stats();
  EngineProbe p;
  p.rps = static_cast<double>(src.size()) /
          (static_cast<double>(t_end - t) * 1e-9);
  p.second_pass.hits = after.hits - before.hits;
  p.second_pass.misses = after.misses - before.misses;
  p.second_pass.evictions = after.evictions - before.evictions;
  p.total_hops = batch.total_length();
  return p;
}

/// Median over repetitions of ns per permutation for a kernel call over
/// `perms` permutations.
template <typename Fn>
double kernel_ns(Tracer& tr, const char* span, std::size_t perms, Fn&& call) {
  std::vector<double> per_perm;
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const std::uint64_t t = now_ns();
    for (int c = 0; c < kKernelCalls; ++c) call();
    const std::uint64_t t_end = now_ns();
    tr.span(span, t, t_end);
    per_perm.push_back(static_cast<double>(t_end - t) /
                       static_cast<double>(kKernelCalls * perms));
  }
  return median(per_perm);
}

}  // namespace

void run_layers(const Workload& w, const Inputs& in, Tracer& tr,
                Report& rep) {
  const scg::NetworkSpec& net = w.route_net;
  const std::size_t n = std::min(kEnginePairs, in.serve_src.size());
  const std::span<const std::uint64_t> src(in.serve_src.data(), n);
  const std::span<const std::uint64_t> dst(in.serve_dst.data(), n);

  const EngineProbe cached =
      engine_probe(net, src, dst, {}, tr, "engine.batch");
  const EngineProbe uncached = engine_probe(
      net, src, dst, scg::RouteEngineConfig{0, 1}, tr, "engine.batch_nocache");
  rep.attempt(2 * n);
  rep.check(cached.total_hops == uncached.total_hops,
            "engine: cached and uncached batches differ in length");
  const std::uint64_t lookups =
      cached.second_pass.hits + cached.second_pass.misses;
  rep.metric("engine.batch_rps", cached.rps, "1/s");
  rep.metric("engine.batch_rps_nocache", uncached.rps, "1/s");
  const double hits = static_cast<double>(cached.second_pass.hits);
  rep.metric("engine.cache_hit_rate",
             lookups == 0 ? 0.0 : 100.0 * hits / static_cast<double>(lookups),
             "%");
  rep.metric("engine.cache_evictions",
             static_cast<double>(cached.second_pass.evictions), "count");
  rep.metric("engine.avg_hops",
             static_cast<double>(cached.total_hops) / static_cast<double>(n),
             "hops");
  rep.metric("engine.serve_gap_x", cached.rps / rep.value("replies_per_s"),
             "x");

  // Kernels on the first kKernelBlock pairs of the workload.
  const int k = net.k();
  const std::size_t m = std::min(kKernelBlock, n);
  const std::span<const std::uint64_t> ranks(in.serve_src.data(), m);
  scg::PermBlock a, b, inv, out;
  std::vector<std::uint64_t> back(m);
  namespace pk = scg::perm_kernels;
  pk::unrank(k, ranks, a);
  pk::unrank(k, std::span<const std::uint64_t>(in.serve_dst.data(), m), b);
  pk::inverse(b, inv);
  rep.metric("kernels.unrank_ns", kernel_ns(tr, "kernels.unrank", m, [&] {
               pk::unrank(k, ranks, out);
             }), "ns");
  rep.metric("kernels.rank_ns", kernel_ns(tr, "kernels.rank", m, [&] {
               pk::rank(a, back);
             }), "ns");
  rep.metric("kernels.relabel_ns", kernel_ns(tr, "kernels.relabel", m, [&] {
               pk::relabel(a, inv, out);
             }), "ns");
  rep.metric("kernels.inverse_ns", kernel_ns(tr, "kernels.inverse", m, [&] {
               pk::inverse(a, out);
             }), "ns");
  rep.metric("kernels.tier",
             static_cast<double>(scg::active_kernel_tier()), "tier");
  rep.attempt(m);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < m; ++i) bad += back[i] == ranks[i] ? 0 : 1;
  rep.check(bad == 0, "kernels: rank(unrank(r)) != r", bad);
}

}  // namespace perfbench
