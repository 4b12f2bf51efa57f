// In-memory spans recorded by the benchmark around its own calls into the
// program's modules (client op -> server call, resize -> maintenance step,
// per-layer probes).  Each thread owns one fixed-size ring, so recording
// takes no lock and memory does not grow with run length; the newest
// kRingCapacity spans of each thread survive.  Spans are written out as CSV
// when the run ends.  Nothing is recorded unless tracing is switched on.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench::trace {

enum class Name : std::uint8_t {
  kRead,         // client op: read
  kWrite,        // client op: write / overwrite
  kRoute,        // client op: placement_of / cached_route
  kServerRead,   // ConcurrentElasticCluster::read behind the RPC server
  kServerWrite,  // ConcurrentElasticCluster::write behind the RPC server
  kServerStat,   // ConcurrentElasticCluster::stat (write ack)
  kResize,       // request_resize
  kMaintenance,  // maintenance_step after a resize
  kProbe,        // a per-layer probe (its op id names which)
};
const char* name_of(Name n);

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  // 0 = root
  std::uint64_t op{0};      // shared by every span of one request
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  Name name{Name::kProbe};
  std::uint8_t thread{0};
};

inline constexpr std::size_t kMaxThreads = 8;
inline constexpr std::size_t kRingCapacity = 1u << 16;

/// Switch recording on or off (off by default); allocates the rings on
/// first use.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Give the calling thread its ring (0 .. kMaxThreads-1).  Each thread that
/// records must bind a distinct slot.
void bind_thread(std::size_t slot);

/// Append a finished span to the calling thread's ring.
void record(const Span& span);

/// RAII span with a fresh id unique across threads: start at
/// construction, recorded at destruction.  Costs one relaxed load when
/// tracing is off.  `op` 0 starts a new request whose op id is the span's
/// own id.
class Scope {
 public:
  Scope(Name name, std::uint64_t op, std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  bool on_;
  Span span_{};
};

/// Every recorded span of every ring, oldest first.
[[nodiscard]] std::vector<Span> collect();

/// Write `spans` as CSV (id,parent,op,name,thread,start_ns,end_ns).
bool write_csv(const std::vector<Span>& spans, const std::string& path);

/// p50 of the durations (ns) of spans named `name` (and, for probes, whose
/// op id equals `op`).  0 when none.
[[nodiscard]] double p50_duration_ns(const std::vector<Span>& spans, Name name,
                                     std::uint64_t op = 0);

/// p50 over client ops of (op duration - time covered by its child spans):
/// the client plus fabric share of a request.  0 when no op has a child.
[[nodiscard]] double p50_self_ns(const std::vector<Span>& spans);

}  // namespace perfbench::trace
