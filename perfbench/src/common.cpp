#include "common.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double merged_quantile(const std::vector<const Reservoir*>& parts, double q) {
  std::vector<std::pair<std::uint64_t, double>> weighted;
  double total = 0.0;
  for (const Reservoir* r : parts) {
    if (r->values().empty()) continue;
    const double w = static_cast<double>(r->seen()) /
                     static_cast<double>(r->values().size());
    for (std::uint64_t v : r->values()) weighted.emplace_back(v, w);
    total += static_cast<double>(r->seen());
  }
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  const double target = q * total;
  double acc = 0.0;
  for (const auto& [v, w] : weighted) {
    acc += w;
    if (acc >= target) return static_cast<double>(v);
  }
  return static_cast<double>(weighted.back().first);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && (stat >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics.values()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
