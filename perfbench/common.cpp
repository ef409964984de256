#include "common.hpp"

#include <sched.h>

#include <cmath>
#include <cstring>

namespace perfbench {

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::vector<std::uint64_t> Tracer::durations(const char* name) const {
  std::vector<std::uint64_t> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\nid,parent,name,start_ns,end_ns\n", header.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%s,%llu,%llu\n", s.id, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

bool Report::check(bool ok, const std::string& what,
                   std::uint64_t failed_ops) {
  if (!ok) {
    failed_ += std::max<std::uint64_t>(1, failed_ops);
    failures_.push_back(what);
  }
  return ok;
}

void Report::print_table(std::FILE* out) const {
  for (const auto& [name, v] : metrics_) {
    std::fprintf(out, "  %-28s %16.6g %s\n", name.c_str(), v.value, v.unit);
  }
}

std::string Report::json() const {
  std::string s = "{\"correct\": ";
  s += failed_ == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, v] : metrics_) {
    // %.17g keeps every digit of the measurement; JSON has no NaN/inf.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(v.value) ? v.value : -1.0);
    s += first ? "" : ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + v.unit +
         "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
