// Serve path: RouteService at its default configuration, driven open loop
// (Poisson arrivals, latency timed from each request's due time) and then
// closed loop (one client keeping a fixed number of requests outstanding).
//
// The open-loop generator is the benchmark's own rather than run_loadgen's:
// run_loadgen sleeps to each arrival and times from submit_ns, so a stalled
// dispatcher vanishes from its numbers.  Here the dispatcher spins to each
// due time, a separate harvester times every reply from that due time, and
// the dispatcher's own lateness is reported as serve.late_us.
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <thread>

#include "common.hpp"
#include "networks/router.hpp"
#include "serve/batcher.hpp"

namespace perfbench {
namespace {

/// Load threads of each phase.  With RouteServiceConfig's default two
/// workers the open loop uses four threads, the closed loop three.
constexpr int kOpenLoadThreads = 2;
constexpr int kClosedLoadThreads = 1;
constexpr std::size_t kClosedOutstanding = 256;
/// Every n-th reply's word is kept and compared with scalar route().
constexpr std::size_t kWordSampleEvery = 61;
constexpr std::uint64_t kMiss = std::numeric_limits<std::uint64_t>::max();

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

struct WordSample {
  std::uint64_t src, dst;
  std::vector<scg::Generator> word;
};

/// Reply accounting shared by both loops.
struct Tally {
  std::uint64_t ok = 0, shed = 0, closed = 0;
  std::vector<WordSample> samples;

  bool count(const scg::RouteReply& r, std::uint64_t src, std::uint64_t dst,
             std::uint64_t seq) {
    switch (r.status) {
      case scg::ServeStatus::kOk:
        ++ok;
        if (seq % kWordSampleEvery == 0) samples.push_back({src, dst, r.word});
        return true;
      case scg::ServeStatus::kShedLoad:
      case scg::ServeStatus::kShedRate:
        ++shed;
        return false;
      case scg::ServeStatus::kClosed:
        ++closed;
        return false;
    }
    return false;
  }
};

struct OpenResult {
  std::vector<std::uint64_t> reply_ns;  ///< due -> client holds reply
  std::uint64_t offered = 0;
  std::uint64_t non_monotone = 0;  ///< replies whose stage stamps disorder
  Tally tally;
};

/// One open-loop pass.  When `tr` is non-null every reply becomes a
/// serve.request span (from its due time) with one child per stage.
OpenResult open_loop(const scg::NetworkSpec& net, const Inputs& in,
                     std::size_t first_pair, Tracer* tr) {
  scg::RouteService svc(net);
  const std::size_t n = in.due_ns.size();
  struct Slot {
    std::uint64_t due = 0;
    std::future<scg::RouteReply> fut;
  };
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> published{0};
  OpenResult res;
  res.offered = n;
  res.reply_ns.reserve(n);

  const std::uint64_t t0 = now_ns() + 1'000'000;  // 1 ms to start both threads
  std::thread harvester([&] {
    const std::uint32_t phase =
        tr ? tr->span("serve.open", t0, t0 + in.due_ns.back()) : 0;
    for (std::size_t j = 0; j < n; ++j) {
      while (published.load(std::memory_order_acquire) <= j) cpu_relax();
      const std::size_t i = (first_pair + j) % in.serve_src.size();
      const scg::RouteReply r = slots[j].fut.get();
      const std::uint64_t hold = now_ns();
      const std::uint64_t due = slots[j].due;
      if (!res.tally.count(r, in.serve_src[i], in.serve_dst[i], j)) {
        res.reply_ns.push_back(kMiss);
        continue;
      }
      res.reply_ns.push_back(hold - due);
      const scg::ServeTimestamps& t = r.t;
      const bool monotone =
          due <= t.submit_ns && t.submit_ns <= t.enqueue_ns &&
          t.enqueue_ns <= t.batch_ns && t.batch_ns <= t.solved_ns &&
          t.solved_ns <= t.complete_ns && t.complete_ns <= hold;
      res.non_monotone += monotone ? 0 : 1;
      if (tr != nullptr) {
        const std::uint32_t req = tr->span("serve.request", due, hold, phase);
        tr->span("serve.late", due, t.submit_ns, req);
        tr->span("serve.admit", t.submit_ns, t.enqueue_ns, req);
        tr->span("serve.queue", t.enqueue_ns, t.batch_ns, req);
        tr->span("serve.solve", t.batch_ns, t.solved_ns, req);
        tr->span("serve.complete", t.solved_ns, t.complete_ns, req);
        tr->span("serve.wake", t.complete_ns, hold, req);
      }
    }
  });

  // Dispatcher (this thread): spin to each due time, never sleep.
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t due = t0 + in.due_ns[j];
    while (now_ns() < due) cpu_relax();
    const std::size_t i = (first_pair + j) % in.serve_src.size();
    slots[j].due = due;
    // Non-blocking: an open-loop client does not slow down for a full
    // queue; a refusal comes back as a shed reply and counts as a miss.
    slots[j].fut = svc.try_submit(in.serve_src[i], in.serve_dst[i]);
    published.store(j + 1, std::memory_order_release);
  }
  harvester.join();
  svc.shutdown();
  return res;
}

struct ClosedResult {
  double replies_per_s = 0;
  std::uint64_t offered = 0;
  Tally tally;
  scg::ServiceStatsSnapshot snap;
};

/// One client thread (this one) keeps kClosedOutstanding requests in
/// flight: submit, then get() the oldest, for `seconds`.
ClosedResult closed_loop(const scg::NetworkSpec& net, const Inputs& in,
                         std::size_t first_pair, double seconds) {
  scg::RouteService svc(net);
  const std::size_t npairs = in.serve_src.size();
  struct Slot {
    std::size_t seq = 0;
    std::future<scg::RouteReply> fut;
  };
  std::vector<Slot> ring(kClosedOutstanding);
  ClosedResult res;
  std::size_t next = first_pair;
  auto submit = [&](Slot& s) {
    s.seq = next++;
    const std::size_t i = s.seq % npairs;
    s.fut = svc.submit(in.serve_src[i], in.serve_dst[i]);
  };
  auto harvest = [&](Slot& s) {
    const std::size_t i = s.seq % npairs;
    res.tally.count(s.fut.get(), in.serve_src[i], in.serve_dst[i], s.seq);
  };

  for (Slot& s : ring) submit(s);
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t replies = 0;
  std::uint64_t t_end = t0;
  std::size_t head = 0;
  for (;; head = (head + 1) % kClosedOutstanding) {
    harvest(ring[head]);
    ++replies;
    t_end = now_ns();
    if (t_end >= deadline) break;
    submit(ring[head]);
  }
  // The rest of the ring is drained for accounting, outside the window.
  for (std::size_t k = 1; k < kClosedOutstanding; ++k) {
    harvest(ring[(head + k) % kClosedOutstanding]);
  }
  res.offered = next - first_pair;
  res.replies_per_s =
      static_cast<double>(replies) / (static_cast<double>(t_end - t0) * 1e-9);
  svc.drain();
  res.snap = svc.snapshot();
  svc.shutdown();
  return res;
}

std::uint64_t count_word_mismatches(const scg::NetworkSpec& net,
                                    const std::vector<WordSample>& samples) {
  std::uint64_t bad = 0;
  for (const WordSample& s : samples) {
    const std::vector<scg::Generator> ref =
        scg::route(net, scg::Permutation::unrank(net.k(), s.src),
                   scg::Permutation::unrank(net.k(), s.dst));
    bad += ref == s.word ? 0 : 1;
  }
  return bad;
}

double us(double ns) { return ns * 1e-3; }

class ServePhase final : public Phase {
 public:
  ServePhase(const Workload& w, const Inputs& in, const RunParams& p,
             Tracer& tr)
      : net_(w.route_net), in_(in), p_(p), tr_(tr) {}

  void round(Report& rep) override {
    if (rounds_ == 0) check_thread_budget(rep);
    const std::size_t first = next_pair_;
    next_pair_ += in_.due_ns.size();
    OpenResult open = open_loop(net_, in_, first, nullptr);
    check_open(open, "open loop", rep);
    reply_p50_.push_back(percentile(open.reply_ns, 0.50));
    reply_p90_.push_back(percentile(open.reply_ns, 0.90));
    reply_p99_.push_back(percentile(open.reply_ns, 0.99));

    ClosedResult closed = [&] {
      Scope s(tr_, "serve.closed");
      return closed_loop(net_, in_, next_pair_, p_.block_s(kClosedShare));
    }();
    next_pair_ += closed.offered;
    check_tally(closed.offered, closed.tally, "closed loop", rep);
    rep.check(closed.snap.offered == closed.offered,
              "closed loop: service offered != client offered");
    replies_per_s_.push_back(closed.replies_per_s);
    last_closed_ = closed.snap;
    ++rounds_;
  }

  void finish(Report& rep) override {
    rep.metric("reply_p50_us", us(median(reply_p50_)), "us");
    rep.metric("reply_p90_us", us(median(reply_p90_)), "us");
    // The p99 moves with millisecond host stalls (a few per run on a
    // shared VM), so it is reported per layer, ungated.
    rep.metric("serve.reply_p99_us", us(median(reply_p99_)), "us");
    rep.metric("replies_per_s", median(replies_per_s_), "1/s");
  }

  void trace(Report& rep) override {
    // One more open-loop block with a span per request (parent: its due
    // time) and one child per ServeTimestamps stage.
    tr_.reserve(7 * in_.due_ns.size());
    OpenResult traced = open_loop(net_, in_, next_pair_, &tr_);
    check_open(traced, "traced open loop", rep);
    const double traced_p50 = percentile(traced.reply_ns, 0.50);
    double stage_sum = 0;
    for (const char* stage : {"serve.late", "serve.admit", "serve.queue",
                              "serve.solve", "serve.complete", "serve.wake"}) {
      std::vector<std::uint64_t> d = tr_.durations(stage);
      const double v = percentile(d, 0.50);
      stage_sum += v;
      rep.metric(std::string(stage) + "_us", us(v), "us");
    }
    std::vector<std::uint64_t> queue = tr_.durations("serve.queue");
    rep.metric("serve.queue_p99_us", us(percentile(queue, 0.99)), "us");
    // Stage medians against the request median: how much of the median
    // reply the per-stage medians account for.
    rep.metric("serve.layer_residual_pct",
               100.0 * std::abs(traced_p50 - stage_sum) / traced_p50, "%");
    const double untraced_p50 = median(reply_p50_);
    rep.metric("trace.serve_overhead_pct",
               100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%");

    // Service counters of the last closed-loop block.
    const scg::ServiceStatsSnapshot& s = last_closed_;
    rep.metric("serve.occupancy_mean", s.occupancy_mean, "count");
    rep.metric("serve.batches", static_cast<double>(s.batches), "count");
    rep.metric("serve.coalesced", static_cast<double>(s.coalesced), "count");
    rep.metric("serve.queue_high_water",
               static_cast<double>(s.queue_high_water), "count");
    rep.metric("serve.enqueue_blocked_ms",
               static_cast<double>(s.enqueue_blocked_ns) * 1e-6, "ms");
    rep.metric("serve.cache_hit_rate", 100.0 * s.cache_hit_rate(), "%");
  }

 private:
  /// Share of the run spent in closed-loop blocks (the open-loop share is
  /// fixed by Inputs::due_ns).
  static constexpr double kClosedShare = 0.1;

  void check_thread_budget(Report& rep) const {
    const int workers = scg::RouteServiceConfig{}.workers;
    const int load = std::max(kOpenLoadThreads, kClosedLoadThreads);
    std::printf("thread budget: %d load + %d workers <= nproc %d\n", load,
                workers, host_cpus());
    rep.check(load + workers <= host_cpus(), "thread budget exceeds nproc");
  }

  /// Conservation, no refusals, and sampled words equal to scalar route().
  void check_tally(std::uint64_t offered, const Tally& t,
                   const std::string& label, Report& rep) const {
    rep.attempt(offered);
    rep.check(offered == t.ok + t.shed + t.closed,
              label + ": offered != ok + shed + closed");
    rep.check(t.shed + t.closed == 0, label + ": shed or closed replies",
              t.shed + t.closed);
    const std::uint64_t bad = count_word_mismatches(net_, t.samples);
    rep.check(bad == 0, label + ": reply word != scalar route()", bad);
  }

  void check_open(const OpenResult& r, const std::string& label,
                  Report& rep) const {
    check_tally(r.offered, r.tally, label, rep);
    rep.check(r.non_monotone == 0, label + ": stage stamps out of order",
              r.non_monotone);
  }

  const scg::NetworkSpec& net_;
  const Inputs& in_;
  const RunParams& p_;
  Tracer& tr_;
  int rounds_ = 0;
  std::size_t next_pair_ = 0;  ///< blocks walk through the pair list
  std::vector<double> reply_p50_, reply_p90_, reply_p99_, replies_per_s_;
  scg::ServiceStatsSnapshot last_closed_;
};

}  // namespace

std::unique_ptr<Phase> make_serve_phase(const Workload& w, const Inputs& in,
                                        const RunParams& p, Tracer& tr) {
  return std::make_unique<ServePhase>(w, in, p, tr);
}

}  // namespace perfbench

