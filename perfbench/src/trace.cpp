#include "trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <unordered_map>

namespace perfbench::trace {
namespace {

struct Ring {
  std::vector<Span> spans;
  std::uint64_t written{0};  // total appended; spans[written % cap] is next
  std::uint64_t next_seq{0};
};

std::atomic<bool> g_enabled{false};
std::array<std::unique_ptr<Ring>, kMaxThreads> g_rings;
thread_local std::size_t t_slot = 0;

std::uint64_t next_id() {
  Ring& r = *g_rings[t_slot];
  return (static_cast<std::uint64_t>(t_slot + 1) << 48) | ++r.next_seq;
}

}  // namespace

const char* name_of(Name n) {
  switch (n) {
    case Name::kRead: return "read";
    case Name::kWrite: return "write";
    case Name::kRoute: return "route";
    case Name::kServerRead: return "server.read";
    case Name::kServerWrite: return "server.write";
    case Name::kServerStat: return "server.stat";
    case Name::kResize: return "resize";
    case Name::kMaintenance: return "maintenance";
    case Name::kProbe: return "probe";
  }
  return "?";
}

void set_enabled(bool on) {
  if (on) {
    for (auto& r : g_rings) {
      if (r == nullptr) {
        r = std::make_unique<Ring>();
        r->spans.resize(kRingCapacity);
      }
    }
  }
  g_enabled.store(on, std::memory_order_release);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void bind_thread(std::size_t slot) { t_slot = slot % kMaxThreads; }

void record(const Span& span) {
  Ring& r = *g_rings[t_slot];
  Span& slot = r.spans[r.written % kRingCapacity];
  slot = span;
  slot.thread = static_cast<std::uint8_t>(t_slot);
  ++r.written;
}

Scope::Scope(Name name, std::uint64_t op, std::uint64_t parent)
    : on_(enabled()) {
  if (!on_) return;
  span_.name = name;
  span_.parent = parent;
  span_.id = next_id();
  span_.op = op != 0 ? op : span_.id;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  span_.end_ns = now_ns();
  record(span_);
}

std::vector<Span> collect() {
  std::vector<Span> out;
  for (const auto& r : g_rings) {
    if (r == nullptr) continue;
    const std::uint64_t n = std::min<std::uint64_t>(r->written, kRingCapacity);
    for (std::uint64_t i = r->written - n; i < r->written; ++i) {
      out.push_back(r->spans[i % kRingCapacity]);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

bool write_csv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id,parent,op,name,thread,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.op << ',' << name_of(s.name)
        << ',' << static_cast<int>(s.thread) << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

double p50_duration_ns(const std::vector<Span>& spans, Name name,
                       std::uint64_t op) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.name != name || (name == Name::kProbe && s.op != op)) continue;
    d.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return quantile(std::move(d), 0.5);
}

double p50_self_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> self;
  for (const Span& s : spans) {
    if (s.parent != 0 || (s.name != Name::kRead && s.name != Name::kWrite)) {
      continue;
    }
    const auto it = child_ns.find(s.id);
    if (it == child_ns.end()) continue;
    const std::uint64_t total = s.end_ns - s.start_ns;
    self.push_back(static_cast<double>(total - std::min(total, it->second)));
  }
  return quantile(std::move(self), 0.5);
}

}  // namespace perfbench::trace
