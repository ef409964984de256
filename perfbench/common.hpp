// Shared plumbing of the benchmark program: clocks, exact percentiles, the
// in-memory span tracer, and the result record every phase writes into.
//
// The benchmark measures the library from outside: every number comes from
// timing a call into a public function or from a counter a layer already
// exposes.  Nothing here reaches into src/ internals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "networks/super_cayley.hpp"
#include "serve/service_stats.hpp"
#include "sim/packet.hpp"

namespace perfbench {

/// The one timebase: the serving layer's steady-clock nanoseconds, so spans
/// built from ServeTimestamps and spans timed here share an origin.
inline std::uint64_t now_ns() { return scg::serve_now_ns(); }

inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// CPUs this process may run on (what `nproc` prints).
int host_cpus();

/// Exact percentile (nearest rank) of an unsorted sample; sorts in place.
/// `q` in [0, 1].  0 for an empty sample.
template <typename T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto last = static_cast<double>(v.size() - 1);
  return static_cast<double>(v[static_cast<std::size_t>(q * last + 0.5)]);
}

template <typename T>
double median(std::vector<T> v) {
  return percentile(v, 0.5);
}

/// Spans held in memory for the whole run and written at exit.  A span's
/// name must be a string literal (stored by pointer).  Ids start at 1; 0
/// means "no parent".  With tracing off every call is a no-op returning 0.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }

  /// Makes room for `more` spans, so recording them never reallocates.
  void reserve(std::size_t more) {
    if (on_) spans_.reserve(spans_.size() + more);
  }

  std::uint32_t span(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint32_t parent = 0) {
    if (!on_) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, id, parent, start_ns, end_ns});
    return id;
  }

  /// Durations (ns) of every span with this name.
  std::vector<std::uint64_t> durations(const char* name) const;

  std::size_t size() const { return spans_.size(); }

  /// Writes the spans as CSV (id,parent,name,start_ns,end_ns) after a
  /// leading comment line holding `header`.  Returns false on I/O error.
  bool write(const std::string& path, const std::string& header) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& tr, const char* name, std::uint32_t parent = 0)
      : tr_(tr), name_(name), parent_(parent), start_(now_ns()) {}
  ~Scope() { tr_.span(name_, start_, now_ns(), parent_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tr_;
  const char* name_;
  std::uint32_t parent_;
  std::uint64_t start_;
};

/// Everything one run reports: named metrics with units, and the
/// attempted/failed operation count.  A check that fails adds its failed
/// operations and a message.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  /// Value of a metric recorded earlier in this run (0 if absent).
  double value(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? 0 : it->second.value;
  }
  void attempt(std::uint64_t ops) { attempted_ += ops; }
  /// Records `failed_ops` failed operations (at least one) when !ok.
  bool check(bool ok, const std::string& what, std::uint64_t failed_ops = 1);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Human-readable metric table (one line per metric).
  void print_table(std::FILE* out) const;
  /// The one-line result object: correct, attempted, failed, metrics.
  std::string json() const;

 private:
  struct Value {
    double value;
    const char* unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One workload: the network the routing paths (serve, engine, kernels,
/// simulator) run on, the simulator's packet count, and the network the
/// oracle is built over with its known exact diameter.
struct Workload {
  const char* name;
  scg::NetworkSpec route_net;
  std::size_t sim_packets;
  scg::NetworkSpec oracle_net;
  int oracle_diameter;
};

/// Run parameters shared by every phase.  A run is `rounds` rounds; each
/// round gives every phase one measurement block, so every metric is a
/// median over blocks spread across the whole run rather than one stretch
/// of it (the host's speed drifts on a scale of seconds).
struct RunParams {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int rounds = 2;

  /// Length of one block that takes `share` of the run.
  double block_s(double share) const { return share * seconds / rounds; }
};

/// Set-up products reused by the phases: the seeded inputs and the
/// materialised topology.
struct Inputs {
  std::vector<std::uint64_t> serve_src, serve_dst;  ///< uniform random pairs
  std::vector<std::uint64_t> due_ns;  ///< one open-loop block's due offsets
  std::vector<scg::TrafficPair> sim_pairs;
  scg::Graph graph;
  scg::OffchipTable offchip;
  double materialize_s = 0;
  double offchip_table_s = 0;
};

/// One user path under measurement.
class Phase {
 public:
  virtual ~Phase() = default;
  /// One measurement block; called once per round.
  virtual void round(Report& rep) = 0;
  /// End-to-end metrics (medians over the blocks) and output checks.
  virtual void finish(Report& rep) = 0;
  /// Per-layer probes and spans; traced runs only, after every finish().
  virtual void trace(Report& rep) = 0;
};

/// RouteService open loop (Poisson arrivals timed from their due time) and
/// closed loop: reply_p50_us, reply_p99_us, replies_per_s; serve.*.
std::unique_ptr<Phase> make_serve_phase(const Workload& w, const Inputs& in,
                                        const RunParams& p, Tracer& tr);

/// Lazy event-core simulation of uniform random traffic: packets_per_s;
/// sim.* and topology.*.
std::unique_ptr<Phase> make_sim_phase(const Workload& w, const Inputs& in,
                                      Tracer& tr);

/// DistanceOracle builds plus seeded point queries: build_s, query_p50_us,
/// query_p99_us; oracle.* and parallel.*.
std::unique_ptr<Phase> make_oracle_phase(const Workload& w, const RunParams& p,
                                         Tracer& tr);

/// Traced-only probes of the layers under the serve path: RouteEngine batch
/// routing with and without its cache, and the perm_kernels primitives, on
/// the workload's own pairs.  Reads replies_per_s from `rep`.
void run_layers(const Workload& w, const Inputs& in, Tracer& tr,
                Report& rep);

}  // namespace perfbench
