// scg_perfbench — the repository benchmark program.
//
//   scg_perfbench --workload cold|hot --seed N --seconds S --trace 0|1
//                 [--trace-dir DIR]
//
// Every run exercises the three paths a user reaches the router by: a query
// through RouteService (open loop, then closed loop), packets through the
// event-core simulator, and a DistanceOracle build plus point queries.  The
// workload picks the networks, and with them whether each path's working
// set fits its cache:
//
//   cold  MS(2,4), k=9: 362,879 relative permutations against the 32,768-
//         entry route cache, so serve and simulator routing miss ~90% of
//         the time; oracle over complete-RS(2,5), k=11, whose 10 MB table
//         and frontier bitmaps overflow L2.
//   hot   MS(3,2), k=7: all 5,039 relative permutations fit the route cache
//         (~95-99% hits); 20 packets per node through the event core;
//         oracle over MS(2,4), whose 90 KB table fits in L2.
//
// A run is RunParams::rounds rounds, each giving every path one block, and
// each metric is the median over blocks.  Inputs come only from --seed.
// Untraced runs report the end-to-end metrics; --trace 1 adds the
// per-layer probes and spans (written to --trace-dir at exit).  The last
// stdout line is the result object; the exit code is non-zero when any
// correctness check failed.
#include <sys/resource.h>

#include <fstream>
#include <random>
#include <string>

#include "common.hpp"
#include "core/perm_kernels.hpp"
#include "serve/batcher.hpp"
#include "sim/event_core.hpp"
#include "topology/metrics.hpp"

#ifndef SCG_PERFBENCH_FLAGS
#define SCG_PERFBENCH_FLAGS ""
#endif
#ifndef SCG_PERFBENCH_BUILD_TYPE
#define SCG_PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

/// Open-loop arrival rate and the share of the run spent in open-loop
/// blocks.
constexpr double kOpenRate = 20'000;  // requests/s
constexpr double kOpenShare = 0.2;
/// Uniform random serve pairs per run (cycled if the blocks need more).
constexpr std::size_t kServePairs = std::size_t{1} << 20;
/// Rounds per run: one per this many seconds of --seconds (at least two).
constexpr double kRoundSeconds = 3;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;

Workload make_workload(const std::string& name) {
  if (name == "cold") {
    return {"cold", scg::make_macro_star(2, 4), 120'960,
            scg::make_complete_rotation_star(2, 5), 19};
  }
  if (name == "hot") {
    return {"hot", scg::make_macro_star(3, 2), 100'800,
            scg::make_macro_star(2, 4), 16};
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected cold or hot)");
}

/// Seeded inputs plus the materialised topology.  Everything a phase needs
/// that is not itself measured.
Inputs setup(const Workload& w, const RunParams& p) {
  Inputs in;
  const scg::NetworkSpec& net = w.route_net;
  std::mt19937_64 rng(p.seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  in.serve_src.resize(kServePairs);
  in.serve_dst.resize(kServePairs);
  for (std::size_t i = 0; i < kServePairs; ++i) {
    in.serve_src[i] = pick(rng);
    do {
      in.serve_dst[i] = pick(rng);
    } while (in.serve_dst[i] == in.serve_src[i]);
  }
  std::exponential_distribution<double> gap_s(kOpenRate);
  const auto n_open = static_cast<std::size_t>(
      std::max(1.0, kOpenRate * p.block_s(kOpenShare)));
  in.due_ns.resize(n_open);
  double due_s = 0;
  for (std::uint64_t& d : in.due_ns) {
    due_s += gap_s(rng);
    d = static_cast<std::uint64_t>(due_s * 1e9);
  }
  in.sim_pairs.resize(w.sim_packets);
  for (scg::TrafficPair& tp : in.sim_pairs) {
    tp.src = pick(rng);
    do {
      tp.dst = pick(rng);
    } while (tp.dst == tp.src);
  }

  std::uint64_t t = now_ns();
  in.graph = scg::materialize(net);
  in.materialize_s = seconds_since(t);
  t = now_ns();
  in.offchip = scg::mcmp_offchip_table(net, in.graph);
  in.offchip_table_s = seconds_since(t);

  // Service start-up: engine construction and worker spawn.
  scg::RouteService svc(net);
  svc.shutdown();
  return in;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

/// Host and build stamp, as one JSON object.
std::string host_stamp(const Workload& w) {
  const int workers = scg::RouteServiceConfig{}.workers;
  std::string s = "{\"workload\": \"" + std::string(w.name) + "\"";
  s += ", \"nproc\": " + std::to_string(host_cpus());
  s += ", \"cpu_model\": \"" + cpu_model() + "\"";
  s += ", \"kernel_tier\": \"" +
       std::string(scg::kernel_tier_name(scg::active_kernel_tier())) + "\"";
  s += ", \"compiler\": \"" + std::string(__VERSION__) + "\"";
  s += ", \"flags\": \"" + std::string(SCG_PERFBENCH_FLAGS) + "\"";
  s += ", \"build_type\": \"" + std::string(SCG_PERFBENCH_BUILD_TYPE) + "\"";
  s += ", \"serve_workers\": " + std::to_string(workers);
  s += ", \"pool_threads\": " +
       std::to_string(scg::ThreadPool::global().size()) + "}";
  return s;
}

/// Refuses builds whose numbers would not be comparable: unoptimised or
/// with assert() enabled.  Empty when the build is fit to measure.
std::string unfit_build() {
#ifndef __OPTIMIZE__
  return "unoptimised build (no -O flag)";
#endif
#ifndef NDEBUG
  return "assert-enabled build (NDEBUG not defined)";
#endif
  return "";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "scg_perfbench: %s\nusage: scg_perfbench --workload cold|hot "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name, trace_dir = ".";
  RunParams p;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") {
        workload_name = val;
      } else if (key == "--seed") {
        p.seed = std::stoull(val);
      } else if (key == "--seconds") {
        p.seconds = std::stod(val);
      } else if (key == "--trace") {
        p.trace = val == "1";
      } else if (key == "--trace-dir") {
        trace_dir = val;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (p.seconds <= 0) return usage("--seconds must be positive");
  p.rounds = std::max(2, static_cast<int>(p.seconds / kRoundSeconds));
  if (const std::string why = unfit_build(); !why.empty()) {
    return usage(why.c_str());
  }
  Workload w;
  try {
    w = make_workload(workload_name);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  const std::string stamp = host_stamp(w);
  std::printf("host: %s\n", stamp.c_str());
  std::fflush(stdout);

  Tracer tr(p.trace);
  Report rep;
  std::vector<double> setups;
  Inputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    in = Inputs{};  // never hold two set-ups at once
    Scope s(tr, "setup");
    const std::uint64_t t = now_ns();
    in = setup(w, p);
    setups.push_back(seconds_since(t));
  }
  rep.metric("setup_s", median(setups), "s");

  std::unique_ptr<Phase> phases[] = {make_serve_phase(w, in, p, tr),
                                      make_sim_phase(w, in, tr),
                                      make_oracle_phase(w, p, tr)};
  for (int r = 0; r < p.rounds; ++r) {
    for (auto& phase : phases) phase->round(rep);
  }
  for (auto& phase : phases) phase->finish(rep);
  if (tr.on()) {
    for (auto& phase : phases) phase->trace(rep);
    run_layers(w, in, tr, rep);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");

  if (tr.on()) {
    rep.metric("trace.spans", static_cast<double>(tr.size()), "count");
    const std::string path = trace_dir + "/" + w.name + "-seed" +
                             std::to_string(p.seed) + ".spans.csv";
    rep.check(tr.write(path, stamp), "cannot write " + path);
    std::printf("spans: %s\n", path.c_str());
  }

  rep.print_table(stdout);
  for (const std::string& f : rep.failures()) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", rep.json().c_str());
  return rep.failed() == 0 ? 0 : 1;
}
