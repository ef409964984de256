// Tiny append-only JSON document builder shared by the bench binaries that
// emit machine-readable baselines (objects in arrays in one object).  Not a
// general JSON library — just enough structure for bench/baseline_*.json.
//
// finish() stamps a "meta" object (compiler, flags, detected kernel
// dispatch tier, usable CPUs and CPU model) into every document, so
// cross-machine baseline diffs are diagnosable instead of silently noisy.
// compare_bench.py skips non-array sections in row matching, and prints a
// note when the two documents' host stamps differ.
#pragma once

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/perm_kernels.hpp"

namespace benchjson {

inline std::string meta_fields();

struct Json {
  std::string out = "{\n";
  bool first_section = true;
  bool first_row = true;

  void begin_array(const char* name) {
    out += first_section ? "" : ",\n";
    first_section = false;
    out += "  \"" + std::string(name) + "\": [\n";
    first_row = true;
  }
  void end_array() { out += "\n  ]"; }
  void row(const std::string& fields) {
    out += first_row ? "" : ",\n";
    first_row = false;
    out += "    {" + fields + "}";
  }
  void finish(const char* path) {
    out += first_section ? "" : ",\n";
    first_section = false;
    out += "  \"meta\": {" + meta_fields() + "}";
    out += "\n}\n";
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::printf("\nwrote %s\n", path);
    } else {
      std::printf("\ncannot write %s\n", path);
    }
  }
};

inline std::string kv(const char* k, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": %.6g", k, v);
  return buf;
}
inline std::string kv(const char* k, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": %llu", k,
                static_cast<unsigned long long>(v));
  return buf;
}
inline std::string kv(const char* k, const std::string& v) {
  return "\"" + std::string(k) + "\": \"" + v + "\"";
}

/// CPUs this process may run on (its affinity mask), at least 1.
inline std::uint64_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::uint64_t>(CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1);
}

/// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string host_cpu_model() {
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

/// The provenance stamp: compiler banner, the flags the bench CMake target
/// was built with (SCG_CXX_FLAGS compile definition, empty if absent), the
/// kernel dispatch tier selected on this CPU at startup, and the host shape
/// (usable CPUs, CPU model) that rate rows depend on.
inline std::string meta_fields() {
#ifdef SCG_CXX_FLAGS
  const char* flags = SCG_CXX_FLAGS;
#else
  const char* flags = "";
#endif
  std::string s = kv("compiler", std::string(__VERSION__));
  s += ", " + kv("flags", std::string(flags));
  s += ", " + kv("kernel_tier",
                 std::string(scg::kernel_tier_name(scg::active_kernel_tier())));
  s += ", " + kv("nproc", host_nproc());
  s += ", " + kv("cpu_model", host_cpu_model());
  return s;
}

}  // namespace benchjson
