#include "serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/check.hpp"

namespace scg {

RouteServiceConfig RouteService::sanitize(RouteServiceConfig cfg) {
  cfg.workers = std::max(1, cfg.workers);
  cfg.max_batch = std::max<std::size_t>(1, cfg.max_batch);
  cfg.queue_capacity = std::max<std::size_t>(1, cfg.queue_capacity);
  // Make shard -> worker a partition: with at least as many shards as
  // workers, shard s is owned by exactly worker s % workers and no cache
  // lock is ever contended between workers.
  cfg.engine.cache_shards = std::max(cfg.engine.cache_shards, cfg.workers);
  return cfg;
}

RouteService::RouteService(const NetworkSpec& net, RouteServiceConfig cfg)
    : cfg_(sanitize(cfg)),
      net_(net),
      engine_(net_, cfg_.engine),
      admission_(cfg_.admission),
      identity_rank_(Permutation::identity(net_.k()).rank()) {
  queues_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    queues_.push_back(std::make_unique<RequestQueue>(cfg_.queue_capacity));
  }
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back(
        [this, w] { worker_loop(static_cast<std::size_t>(w)); });
  }
}

RouteService::~RouteService() { shutdown(); }

std::size_t RouteService::worker_of(std::uint64_t rel) const {
  if (engine_.cache_shard_count() > 0) {
    return engine_.cache_shard_of(rel) % queues_.size();
  }
  // Cache disabled: fall back to the same multiplicative hash the engine
  // shards with, so equal keys still coalesce on one worker.
  return static_cast<std::size_t>((rel * 0x9e3779b97f4a7c15ULL) >> 32) %
         queues_.size();
}

void RouteService::complete_shed(ServeRequest& r, ServeStatus status) {
  RouteReply reply;
  reply.status = status;
  reply.t = r.t;
  reply.t.complete_ns = serve_now_ns();
  r.reply.set_value(std::move(reply));
}

std::future<RouteReply> RouteService::submit(std::uint64_t src,
                                             std::uint64_t dst) {
  return submit_impl(src, dst, /*blocking=*/true);
}

std::future<RouteReply> RouteService::try_submit(std::uint64_t src,
                                                 std::uint64_t dst) {
  return submit_impl(src, dst, /*blocking=*/false);
}

std::future<RouteReply> RouteService::submit_impl(std::uint64_t src,
                                                  std::uint64_t dst,
                                                  bool blocking) {
  if (src >= net_.num_nodes() || dst >= net_.num_nodes()) {
    throw std::out_of_range("RouteService::submit: rank past num_nodes");
  }
  ServeRequest r;
  r.src = src;
  r.dst = dst;
  r.t.submit_ns = serve_now_ns();
  std::future<RouteReply> fut = r.reply.get_future();
  stats_.on_offered();

  if (closed_.load(std::memory_order_acquire)) {
    stats_.on_rejected_closed();
    complete_shed(r, ServeStatus::kClosed);
    return fut;
  }

  const Admission verdict = admission_.admit(
      static_cast<std::size_t>(queued_depth_.load(std::memory_order_relaxed)),
      r.t.submit_ns);
  if (verdict != Admission::kAdmit) {
    stats_.on_shed(verdict == Admission::kShedRate);
    complete_shed(r, verdict == Admission::kShedRate ? ServeStatus::kShedRate
                                                     : ServeStatus::kShedLoad);
    return fut;
  }

  // The cache key: solving U -> V is solving W = V^{-1}∘U to the identity.
  const Permutation u = Permutation::unrank(net_.k(), src);
  const Permutation v = Permutation::unrank(net_.k(), dst);
  r.rel = u.relabel_symbols(v.inverse()).rank();
  const std::size_t w = worker_of(r.rel);
  r.t.enqueue_ns = serve_now_ns();

  // Pre-count the admitted request so a burst of concurrent submitters is
  // visible to admission before any of them lands in a queue.
  queued_depth_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  const bool accepted = blocking ? queues_[w]->push(std::move(r))
                                 : queues_[w]->try_push(std::move(r));
  if (!accepted) {
    queued_depth_.fetch_sub(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    // push/try_push refused, so `r` was NOT consumed — the move above never
    // happened and the promise is still ours to complete.
    if (queues_[w]->closed()) {
      stats_.on_rejected_closed();
      complete_shed(r, ServeStatus::kClosed);  // NOLINT(bugprone-use-after-move)
    } else {
      stats_.on_shed(/*rate_limited=*/false);
      complete_shed(r, ServeStatus::kShedLoad);  // NOLINT(bugprone-use-after-move)
    }
    return fut;
  }
  stats_.on_admitted();
  return fut;
}

RouteReply RouteService::route(std::uint64_t src, std::uint64_t dst) {
  return submit(src, dst).get();
}

void RouteService::worker_loop(std::size_t w) {
  RequestQueue& queue = *queues_[w];
  std::vector<ServeRequest> batch;
  batch.reserve(cfg_.max_batch);
  // Coalescing scratch: unique relative keys of the batch (SoA input to
  // route_batch) and each request's slot in that unique list.
  std::vector<std::uint64_t> uniq_rel;
  std::vector<std::uint64_t> uniq_dst;
  std::vector<std::uint32_t> slot;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of;
  RouteBatch solved;

  while (queue.pop_batch(batch, cfg_.max_batch) > 0) {
    const std::uint64_t t_batch = serve_now_ns();
    queued_depth_.fetch_sub(batch.size(), std::memory_order_relaxed);

    uniq_rel.clear();
    slot_of.clear();
    slot.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto [it, fresh] = slot_of.try_emplace(
          batch[i].rel, static_cast<std::uint32_t>(uniq_rel.size()));
      if (fresh) uniq_rel.push_back(batch[i].rel);
      slot[i] = it->second;
    }
    // Solving W -> identity yields exactly the U -> V word; one SoA batch
    // call over the unique keys serves every coalesced duplicate.  With
    // max_batch <= 256 this runs inline on this thread.
    uniq_dst.assign(uniq_rel.size(), identity_rank_);
    engine_.route_batch(uniq_rel, uniq_dst, solved);
    const std::uint64_t t_solved = serve_now_ns();
    // Coalescing can only shrink a batch, and pop_batch caps it.
    SCG_CHECK_LE(uniq_rel.size(), batch.size());
    SCG_CHECK_LE(batch.size(), cfg_.max_batch);
    stats_.on_batch(batch.size(), uniq_rel.size());

    for (std::size_t i = 0; i < batch.size(); ++i) {
      RouteReply reply;
      reply.status = ServeStatus::kOk;
      const std::span<const Generator> word = solved.word(slot[i]);
      reply.word.assign(word.begin(), word.end());
      reply.t = batch[i].t;
      reply.t.batch_ns = t_batch;
      reply.t.solved_ns = t_solved;
      reply.t.complete_ns = serve_now_ns();
      stats_.on_complete(reply.t);
      // Retire from in_flight *before* resolving the future so a client that
      // snapshots right after get() observes exact conservation.
      const bool last =
          in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1;
      batch[i].reply.set_value(std::move(reply));
      if (last) {
        MutexLock lk(drain_mu_);
        drain_cv_.notify_all();
      }
    }
  }
}

void RouteService::drain() {
  MutexLock lk(drain_mu_);
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    drain_cv_.wait(lk, drain_mu_);
  }
}

void RouteService::shutdown() {
  MutexLock lifecycle(lifecycle_mu_);
  closed_.store(true, std::memory_order_release);
  for (auto& q : queues_) q->close();
  if (!joined_) {
    for (auto& t : workers_) t.join();
    joined_ = true;
  }
}

ServiceStatsSnapshot RouteService::snapshot() const {
  std::uint64_t high_water = 0;
  std::uint64_t blocked_ns = 0;
  for (const auto& q : queues_) {
    const RequestQueueStats qs = q->stats();
    high_water = std::max(high_water, qs.high_water);
    blocked_ns += qs.blocked_ns;
  }
  return stats_.snapshot(in_flight_.load(std::memory_order_acquire),
                         high_water, blocked_ns, engine_.cache_stats());
}

}  // namespace scg
