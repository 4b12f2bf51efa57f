// Small helpers shared by echbench: the benchmark's own clock, its own
// key generator, fixed-memory latency samples and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's own generator, so the keys the program sees
/// depend only on --seed and never on the program's RNG.
class KeyRng {
 public:
  explicit KeyRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0; the modulo bias is below 2^-40 here).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Uniform sample of at most `capacity` values out of a stream (Algorithm
/// R), so latency memory stays fixed however long the run is.  `seen` keeps
/// the stream length, which weights this reservoir when several are merged.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed = 1, std::size_t capacity = 1u << 15)
      : rng_(seed), capacity_(capacity) {}
  void add(std::uint64_t v) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(v);
      return;
    }
    const std::uint64_t slot = rng_.below(seen_);
    if (slot < capacity_) values_[slot] = v;
  }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] const std::vector<std::uint64_t>& values() const {
    return values_;
  }

 private:
  KeyRng rng_;
  std::size_t capacity_;
  std::vector<std::uint64_t> values_;
  std::uint64_t seen_{0};
};

/// Quantile q of the union of several reservoirs, each sample weighted by
/// the share of its stream it stands for.  0 when nothing was sampled.
double merged_quantile(const std::vector<const Reservoir*>& parts, double q);

/// Nearest-rank quantile of plain samples (probes).  0 when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mb();

/// Machine-wide CPU ticks from /proc/stat: `steal` is time the hypervisor
/// ran something else on this machine's CPUs.  Zero when unreadable.
struct CpuTicks {
  std::uint64_t steal{0};
  std::uint64_t total{0};
};
CpuTicks cpu_ticks();

/// Ordered name -> (value, unit) map printed as the result line.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The one JSON object printed as the last stdout line.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

}  // namespace perfbench
