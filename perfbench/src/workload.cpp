#include "workload.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "checks.h"
#include "client/client.h"
#include "client/storage_rpc.h"
#include "core/concurrent_cluster.h"
#include "io/mem_env.h"
#include "obs/export.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {
namespace {

using ech::ObjectId;
using ech::ServerId;

constexpr std::uint32_t kReplicas = 3;
constexpr ech::Bytes kObjectSize = 4 * 1024 * 1024;
// Fixed working set: every write overwrites one of these preloaded keys, so
// the store's size does not drift with run length.
constexpr std::uint64_t kKeys = 20000;
constexpr std::size_t kCheckKeys = 2000;
constexpr ech::Bytes kMaintenanceBudget = 64 * kObjectSize;
constexpr std::size_t kMainSlot = 7;
const char* const kWalDir = "wal";

/// One workload's input make-up (README.md, "Workloads").
struct Spec {
  const char* name;
  std::uint32_t servers;
  std::uint32_t active;    // active set when the clock starts
  std::uint32_t threads;   // client threads (the operator thread is extra)
  std::uint32_t read_pct;  // share of reads
  std::uint32_t write_pct; // share of overwrites; the rest are route lookups
  bool durability;         // WAL + checkpoints over io::MemEnv
  bool net;                // clients over client::StorageRig, with churn
  std::uint32_t churn_low; // net: active count of the low phase
  std::uint32_t churn_period_ms;
  bool dirty_dedupe;       // one dirty entry per (key, version), not per write
};

const std::array<Spec, 3> kSpecs = {{
    {"read-wide", 4800, 4800, 4, 85, 10, true, false, 0, 0, false},
    {"write-offload", 300, 60, 4, 5, 90, false, false, 0, 0, true},
    {"churn-net", 300, 300, 3, 30, 10, true, true, 180, 100, false},
}};

enum OpKind : std::size_t { kRead = 0, kWrite = 1, kRoute = 2 };

constexpr std::size_t kMaxSubs = 64;
constexpr std::size_t kSubSamples = 4096;

/// One sub-window of one thread.  Run-level figures are medians over the
/// run's ~1 s sub-windows, so a short stall of the machine moves one of them
/// and not the figure.
struct SubStats {
  explicit SubStats(std::uint64_t seed)
      : lat{Reservoir(seed * 3 + 1, kSubSamples),
            Reservoir(seed * 3 + 2, kSubSamples),
            Reservoir(seed * 3 + 3, kSubSamples)} {}
  std::array<Reservoir, 3> lat;  // ns per OpKind
  std::uint64_t completed{0};
};

struct alignas(64) WorkerStats {
  explicit WorkerStats(std::uint64_t seed) {
    subs.reserve(kMaxSubs);
    for (std::size_t i = 0; i < kMaxSubs; ++i) {
      subs.emplace_back(seed * kMaxSubs + i);
    }
  }
  std::vector<SubStats> subs;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t bad_answers{0};  // answers that broke I1
  std::uint64_t reads_ok{0};
  std::uint64_t holders_sum{0};
  std::uint64_t writes_ok{0};
  std::uint64_t writes_low{0};  // acknowledged below full power
  std::uint64_t placement_calls{0};
};

struct OperatorStats {
  Reservoir resize_ns{101};
  Reservoir step_ns{102};
  std::uint64_t resizes{0};
  std::uint64_t step_bytes{0};
  std::uint64_t step_total_ns{0};
};

/// The op a client thread has in flight, so a server call executed on any
/// thread (whichever one pumps the fabric) can name its parent span.
struct alignas(64) InFlight {
  std::atomic<std::uint64_t> oid{~0ULL};
  std::atomic<std::uint64_t> span{0};
};

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};

thread_local std::size_t t_worker = 0;

struct State;

/// The StorageApi the RPC servers call: forwards to the cluster, counts
/// placement_of calls, and (traced run) records a server span per call.
class TimedApi final : public ech::client::StorageApi {
 public:
  TimedApi(ech::ConcurrentElasticCluster& cluster, State& state)
      : cluster_(&cluster), state_(&state) {}
  ech::Status write(ObjectId oid, ech::Bytes size) override;
  ech::Expected<std::vector<ServerId>> read(ObjectId oid) override;
  std::uint64_t remove_object(ObjectId oid) override {
    return cluster_->remove_object(oid);
  }
  ech::Expected<ech::ObjectStat> stat(ObjectId oid) override;
  ech::Expected<ech::Placement> placement_of(ObjectId oid) override;
  ech::Version version() const override { return cluster_->current_version(); }
  bool is_primary_role(ServerId id) const override {
    return cluster_->pinned_index()->is_primary(id);
  }
  [[nodiscard]] std::uint64_t placement_calls() const {
    std::uint64_t n = 0;
    for (const auto& c : calls_) n += c.v.load(std::memory_order_relaxed);
    return n;
  }

 private:
  [[nodiscard]] std::uint64_t parent_of(ObjectId oid) const;

  ech::ConcurrentElasticCluster* cluster_;
  State* state_;
  std::array<PaddedCount, trace::kMaxThreads> calls_{};
};

struct State {
  explicit State(const Spec& s)
      : spec(s), acked_version(kKeys), low_keys(kKeys) {}
  const Spec& spec;
  ech::obs::MetricsRegistry registry;
  ech::io::MemEnv env;
  std::unique_ptr<ech::ConcurrentElasticCluster> cluster;
  std::vector<std::uint32_t> rank;
  std::uint32_t p{0};
  ech::Version window_version{0};
  std::vector<std::atomic<std::uint32_t>> acked_version;
  std::vector<std::atomic<bool>> low_keys;  // acknowledged below full power
  std::uint32_t active_target{0};
  bool next_low{true};
  std::unique_ptr<TimedApi> api;
  std::unique_ptr<ech::client::StorageRig> rig;
  std::vector<std::unique_ptr<ech::client::Client>> clients;
  std::vector<KeyRng> rngs;
  std::vector<std::unique_ptr<WorkerStats>> workers;
  OperatorStats op;
  std::array<InFlight, trace::kMaxThreads> inflight{};
  std::vector<double> sub_seconds;  // length of each finished sub-window
};

/// One timed window on the benchmark's clock, cut into equal sub-windows
/// (subs [first, first + count) of every WorkerStats).  Each op counts in
/// the sub-window in which it started.
struct Window {
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  std::uint64_t sub_ns{1};
  std::size_t first{0};
  std::size_t count{1};
  [[nodiscard]] std::size_t sub_of(std::uint64_t t) const {
    return first + std::min<std::size_t>(count - 1, (t - start_ns) / sub_ns);
  }
};

std::uint64_t TimedApi::parent_of(ObjectId oid) const {
  for (std::size_t t = 0; t < state_->spec.threads; ++t) {
    const InFlight& f = state_->inflight[t];
    if (f.oid.load(std::memory_order_relaxed) == oid.value) {
      return f.span.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

ech::Status TimedApi::write(ObjectId oid, ech::Bytes size) {
  const std::uint64_t parent = trace::enabled() ? parent_of(oid) : 0;
  const trace::Scope span(trace::Name::kServerWrite, parent, parent);
  return cluster_->write(oid, size);
}

ech::Expected<std::vector<ServerId>> TimedApi::read(ObjectId oid) {
  const std::uint64_t parent = trace::enabled() ? parent_of(oid) : 0;
  const trace::Scope span(trace::Name::kServerRead, parent, parent);
  return cluster_->read(oid);
}

ech::Expected<ech::ObjectStat> TimedApi::stat(ObjectId oid) {
  const std::uint64_t parent = trace::enabled() ? parent_of(oid) : 0;
  const trace::Scope span(trace::Name::kServerStat, parent, parent);
  return cluster_->stat(oid);
}

ech::Expected<ech::Placement> TimedApi::placement_of(ObjectId oid) {
  calls_[t_worker].v.fetch_add(1, std::memory_order_relaxed);
  return cluster_->placement_of(oid);
}

ech::client::ClientConfig client_config(State& st, std::uint32_t t) {
  ech::client::ClientConfig c;
  c.replicas = kReplicas;
  c.metrics = &st.registry;
  // Every client pumps the one fabric clock, so a concurrent pump burns
  // everyone's attempt window: scale the per-attempt budget with the
  // client count, let the op deadline bound the retry ladder, and never
  // trip a breaker (no endpoint in this workload really fails).
  c.retry.max_attempts = 64;
  c.retry.attempt_timeout_ticks = 256ULL * st.spec.threads;
  c.retry.max_backoff_ticks = 16;
  c.retry.deadline_ticks = 0;
  c.breaker.failure_threshold = 1U << 30;
  c.op_deadline_ticks = 1ULL << 20;
  c.max_repairs = 8;
  c.seed = 1 + t;
  return c;
}

/// Build the cluster, attach durability, preload, resize and drain before
/// the clock, and build the rig and clients.
ech::Status setup(State& st, std::uint64_t seed) {
  const Spec& spec = st.spec;
  ech::ElasticClusterConfig cfg;
  cfg.server_count = spec.servers;
  cfg.replicas = kReplicas;
  cfg.object_size = kObjectSize;
  cfg.metrics = &st.registry;
  cfg.dirty_dedupe = spec.dirty_dedupe;
  auto created = ech::ConcurrentElasticCluster::create(cfg);
  if (!created.ok()) return created.status();
  st.cluster = std::move(created).value();
  ech::ConcurrentElasticCluster& c = *st.cluster;
  if (spec.durability) {
    const ech::Status s = c.unsynchronized().attach_durability(st.env, kWalDir);
    if (!s.is_ok()) return s;
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const ech::Status s = c.write(ObjectId{k}, 0);
    if (!s.is_ok()) return s;
  }
  if (spec.active < spec.servers) {
    const ech::Status s = c.request_resize(spec.active);
    if (!s.is_ok()) return s;
    while (c.maintenance_step(kMaintenanceBudget) > 0) {
    }
  }
  st.active_target = spec.active;
  st.window_version = c.current_version();
  st.rank = rank_table(c.unsynchronized());
  st.p = expected_primaries(spec.servers);
  if (spec.net) {
    st.api = std::make_unique<TimedApi>(c, st);
    st.rig = std::make_unique<ech::client::StorageRig>(1, *st.api,
                                                       spec.servers);
    for (std::uint32_t t = 0; t < spec.threads; ++t) {
      st.clients.push_back(std::make_unique<ech::client::Client>(
          st.rig->fabric(), st.rig->client_node(t),
          [&c] { return c.pinned_index(); }, nullptr, client_config(st, t)));
    }
  }
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    st.rngs.emplace_back(seed * 0x100000001B3ULL + t);
    st.workers.push_back(std::make_unique<WorkerStats>(seed * 8 + t));
  }
  return ech::Status::ok();
}

void note_max(std::atomic<std::uint32_t>& slot, std::uint32_t v) {
  std::uint32_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

bool placement_ok(const ech::Placement& pl, const State& st,
                  std::uint32_t active) {
  return pl.servers.size() == kReplicas &&
         read_ok(pl.servers, st.rank, st.p, active);
}

/// Closed loop of one client thread until the window ends.
void worker(State& st, std::size_t t, const Window& win) {
  t_worker = t;
  trace::bind_thread(t);
  const Spec& spec = st.spec;
  ech::ConcurrentElasticCluster& c = *st.cluster;
  ech::client::Client* client = spec.net ? st.clients[t].get() : nullptr;
  // In-process workloads never resize inside the window, so answers must
  // also name only servers of the pre-clock active set.
  const std::uint32_t active = spec.net ? 0 : spec.active;
  const bool low_power = spec.active < spec.servers;
  KeyRng& rng = st.rngs[t];
  WorkerStats& w = *st.workers[t];
  InFlight& inflight = st.inflight[t];
  const bool tracing = trace::enabled();
  for (;;) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= win.end_ns) break;
    const std::uint64_t k = rng.below(kKeys);
    const auto dice = static_cast<std::uint32_t>(rng.below(100));
    const ObjectId oid{k};
    const OpKind kind = dice < spec.read_pct                   ? kRead
                        : dice < spec.read_pct + spec.write_pct ? kWrite
                                                                 : kRoute;
    const trace::Name name = kind == kRead    ? trace::Name::kRead
                             : kind == kWrite ? trace::Name::kWrite
                                              : trace::Name::kRoute;
    const trace::Scope span(name, 0);
    if (tracing && client != nullptr) {
      inflight.span.store(span.id(), std::memory_order_relaxed);
      inflight.oid.store(k, std::memory_order_relaxed);
    }
    SubStats& sub = w.subs[win.sub_of(t0)];
    ++w.attempted;
    bool ok = false;
    if (kind == kRead) {
      const auto got = client != nullptr ? client->read(oid) : c.read(oid);
      sub.lat[kRead].add(now_ns() - t0);
      if ((ok = got.ok())) {
        ++w.reads_ok;
        w.holders_sum += got.value().size();
        if (!read_ok(got.value(), st.rank, st.p, active)) ++w.bad_answers;
      }
    } else if (kind == kWrite) {
      if (client != nullptr) {
        const auto ack = client->write(oid, 0);
        sub.lat[kWrite].add(now_ns() - t0);
        if ((ok = ack.ok() && !ack.value().queued)) {
          note_max(st.acked_version[k], ack.value().version.value);
        }
      } else {
        const ech::Status s = c.write(oid, 0);
        sub.lat[kWrite].add(now_ns() - t0);
        if ((ok = s.is_ok())) {
          note_max(st.acked_version[k], st.window_version.value);
          if (low_power) {
            ++w.writes_low;
            st.low_keys[k].store(true, std::memory_order_relaxed);
          }
        }
      }
      if (ok) ++w.writes_ok;
    } else {
      const auto pl =
          client != nullptr ? client->cached_route(oid) : c.placement_of(oid);
      sub.lat[kRoute].add(now_ns() - t0);
      if (client == nullptr) ++w.placement_calls;
      if ((ok = pl.ok()) && !placement_ok(pl.value(), st, active)) {
        ++w.bad_answers;
      }
    }
    if (ok) {
      ++sub.completed;
    } else {
      ++w.failed;
    }
    if (tracing && client != nullptr) {
      inflight.oid.store(~0ULL, std::memory_order_relaxed);
    }
  }
}

/// churn-net's operator: flip the active set between churn_low and full
/// power, churn_period_ms after the previous flip's maintenance_step ended,
/// one maintenance_step after each resize.  Runs on the calling thread.
void operator_loop(State& st, const Window& win) {
  trace::bind_thread(kMainSlot);
  ech::ConcurrentElasticCluster& c = *st.cluster;
  const std::uint64_t period_ns = st.spec.churn_period_ms * 1000000ULL;
  for (std::uint64_t next = now_ns() + period_ns;;) {
    if (std::min(next, win.end_ns) > now_ns()) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(next, win.end_ns) - now_ns()));
    }
    if (now_ns() >= win.end_ns) return;
    if (now_ns() < next) continue;
    const std::uint32_t target =
        st.next_low ? st.spec.churn_low : st.spec.servers;
    std::uint64_t resize_span = 0;
    {
      const trace::Scope span(trace::Name::kResize, 0);
      resize_span = span.id();
      const std::uint64_t t0 = now_ns();
      const ech::Status s = c.request_resize(target);
      st.op.resize_ns.add(now_ns() - t0);
      if (s.is_ok()) {
        ++st.op.resizes;
        st.active_target = target;
      }
    }
    {
      const trace::Scope span(trace::Name::kMaintenance, resize_span,
                              resize_span);
      const std::uint64_t t0 = now_ns();
      const ech::Bytes moved = c.maintenance_step(kMaintenanceBudget);
      const std::uint64_t dt = now_ns() - t0;
      st.op.step_ns.add(dt);
      st.op.step_total_ns += dt;
      st.op.step_bytes += static_cast<std::uint64_t>(moved);
    }
    st.next_low = !st.next_low;
    next = now_ns() + period_ns;
  }
}

struct WindowTotals {
  double seconds{0.0};
  std::uint64_t completed{0};
};

/// One closed-loop window of `seconds`, cut into ~1 s sub-windows.  The
/// calling thread takes part, so a workload runs exactly its spec's
/// threads: in churn-net it is the operator, elsewhere client 0.
WindowTotals run_window(State& st, double seconds) {
  Window win;
  win.first = st.sub_seconds.size();
  win.count = std::min<std::size_t>(
      kMaxSubs - win.first,
      static_cast<std::size_t>(std::max(1L, std::lround(seconds))));
  win.sub_ns = static_cast<std::uint64_t>(seconds * 1e9) / win.count;
  win.start_ns = now_ns();
  win.end_ns = win.start_ns + win.sub_ns * win.count;
  const bool churn = st.spec.churn_low != 0;
  std::vector<std::thread> threads;
  for (std::size_t t = churn ? 0 : 1; t < st.spec.threads; ++t) {
    threads.emplace_back(worker, std::ref(st), t, std::cref(win));
  }
  if (churn) {
    operator_loop(st, win);
  } else {
    worker(st, 0, win);
  }
  for (auto& th : threads) th.join();
  WindowTotals total;
  for (std::size_t s = win.first; s < win.first + win.count; ++s) {
    st.sub_seconds.push_back(static_cast<double>(win.sub_ns) / 1e9);
    total.seconds += st.sub_seconds.back();
    for (const auto& w : st.workers) total.completed += w->subs[s].completed;
  }
  return total;
}

/// Median over the untraced run's sub-windows of `fn(sub index)`.
template <typename Fn>
double median_over_subs(const State& st, Fn fn) {
  std::vector<double> v;
  for (std::size_t s = 0; s < st.sub_seconds.size(); ++s) v.push_back(fn(s));
  return quantile(std::move(v), 0.5);
}

std::vector<std::uint64_t> sample_keys(std::uint64_t seed, std::size_t n) {
  KeyRng rng(seed ^ 0xC0FFEEULL);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.below(kKeys);
  return keys;
}

std::uint64_t wal_bytes(ech::io::MemEnv& env) {
  std::uint64_t total = 0;
  const auto files = env.list_dir(kWalDir);
  if (!files.ok()) return 0;
  for (const std::string& f : files.value()) {
    if (f.find("WAL-") == std::string::npos) continue;
    const auto data = env.read_file(f.find('/') == std::string::npos
                                        ? std::string(kWalDir) + "/" + f
                                        : f);
    if (data.ok()) total += data.value().size();
  }
  return total;
}

double hist_p50(const ech::obs::MetricsRegistry& reg, const std::string& name) {
  const ech::obs::MetricsSnapshot snap = reg.snapshot();
  const ech::obs::MetricSample* s = ech::obs::find_sample(snap, name);
  if (s == nullptr) return 0.0;
  return static_cast<double>(ech::obs::histogram_quantile(s->histogram, 0.5));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Spec& s : kSpecs) n.emplace_back(s.name);
    return n;
  }();
  return names;
}

RunResult run_workload(const RunConfig& config,
                       Clock::time_point process_start) {
  RunResult result;
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (config.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    result.violations.push_back("unknown workload " + config.workload);
    return result;
  }
  trace::bind_thread(kMainSlot);
  State st(*spec);
  const ech::Status ready = setup(st, config.seed);
  if (!ready.is_ok()) {
    result.violations.push_back("setup failed: " + ready.to_string());
    return result;
  }
  ech::ConcurrentElasticCluster& c = *st.cluster;
  ech::ElasticCluster& inner = c.unsynchronized();
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - process_start).count();
  const ech::Bytes written_before = inner.object_store().total_bytes_written();
  const std::uint64_t wal_before = spec->durability ? wal_bytes(st.env) : 0;

  // The window.  The traced run alternates untraced and traced quarters so
  // both halves see the same warm-up; their ratio is the tracing overhead.
  WindowTotals plain;
  WindowTotals traced;
  const CpuTicks ticks_before = cpu_ticks();
  if (!config.trace) {
    plain = run_window(st, config.seconds);
  } else {
    for (int q = 0; q < 4; ++q) {
      trace::set_enabled(q % 2 == 1);
      const WindowTotals w = run_window(st, config.seconds / 4.0);
      WindowTotals& into = q % 2 == 1 ? traced : plain;
      into.seconds += w.seconds;
      into.completed += w.completed;
    }
    trace::set_enabled(false);
  }
  const double rss_mb = peak_rss_mb();
  // Host steal is the main source of run-to-run spread on a shared VM;
  // steady.py prints it beside every run.
  const CpuTicks ticks_after = cpu_ticks();
  std::fprintf(stderr, "echbench: %s host steal %.1f%% of CPU time\n",
               spec->name,
               100.0 * ratio(static_cast<double>(ticks_after.steal -
                                                 ticks_before.steal),
                             static_cast<double>(ticks_after.total -
                                                 ticks_before.total)));

  WorkerStats total(0);
  for (const auto& w : st.workers) {
    total.attempted += w->attempted;
    total.failed += w->failed;
    total.bad_answers += w->bad_answers;
    total.reads_ok += w->reads_ok;
    total.holders_sum += w->holders_sum;
    total.writes_ok += w->writes_ok;
    total.writes_low += w->writes_low;
    total.placement_calls += w->placement_calls;
  }
  result.attempted = total.attempted;
  result.failed = total.failed;
  const double user_bytes =
      static_cast<double>(kKeys) * static_cast<double>(kObjectSize);
  const double stored_per_user =
      static_cast<double>(inner.object_store().total_bytes()) / user_bytes;
  const double write_amp = ratio(
      static_cast<double>(inner.object_store().total_bytes_written() -
                          written_before),
      static_cast<double>(total.writes_ok) * static_cast<double>(kObjectSize));
  const std::uint64_t wal_after = spec->durability ? wal_bytes(st.env) : 0;
  const std::size_t dirty_entries = c.dirty_entries();

  // -- output checks --------------------------------------------------------
  auto add = [&result](Violations v) {
    for (auto& s : v) result.violations.push_back(std::move(s));
  };
  if (total.bad_answers > 0) {
    result.violations.push_back(std::to_string(total.bad_answers) +
                                " in-window answers broke I1");
  }
  const std::uint64_t placement_calls =
      total.placement_calls + (st.api != nullptr ? st.api->placement_calls() : 0);
  add(check_lookups(st.registry, placement_calls));
  add(check_reads(c, sample_keys(config.seed, kCheckKeys), st.active_target));
  const bool low_power = spec->active < spec->servers;
  if (low_power) {
    std::uint64_t low_keys = 0;
    for (const auto& f : st.low_keys) low_keys += f.load() ? 1 : 0;
    add(check_offload_counts(st.registry, c, total.writes_low,
                             spec->dirty_dedupe ? low_keys : total.writes_low));
  }
  double recover_s = 0.0;
  if (spec->durability) {
    add(check_recovery(st.env, kWalDir, inner, kKeys, st.acked_version,
                       &recover_s));
  }
  double drain_s = 0.0;
  if (spec->net || low_power) {
    add(check_drain(c, kKeys, kReplicas, kObjectSize, &drain_s));
  }

  MetricSet& m = result.metrics;
  if (!config.trace) {
    m.set("setup_s", setup_s, "s");
    const auto rate = [&st](std::size_t s) {
      std::uint64_t done = 0;
      for (const auto& w : st.workers) done += w->subs[s].completed;
      return ratio(static_cast<double>(done), st.sub_seconds[s]);
    };
    const auto lat = [&st](OpKind kind, double q) {
      return [&st, kind, q](std::size_t s) {
        std::vector<const Reservoir*> parts;
        for (const auto& w : st.workers) parts.push_back(&w->subs[s].lat[kind]);
        return merged_quantile(parts, q);
      };
    };
    std::string rates;
    for (std::size_t s = 0; s < st.sub_seconds.size(); ++s) {
      rates.append(" ").append(std::to_string(std::lround(rate(s))));
    }
    std::fprintf(stderr, "echbench: %s ops/s per sub-window:%s\n", spec->name,
                 rates.c_str());
    m.set("ops_per_s", median_over_subs(st, rate), "ops/s");
    m.set("read_p50_us", median_over_subs(st, lat(kRead, 0.50)) / 1e3, "us");
    m.set("read_p99_us", median_over_subs(st, lat(kRead, 0.99)) / 1e3, "us");
    m.set("write_p50_us", median_over_subs(st, lat(kWrite, 0.50)) / 1e3, "us");
    m.set("write_p99_us", median_over_subs(st, lat(kWrite, 0.99)) / 1e3, "us");
    m.set("route_p50_ns", median_over_subs(st, lat(kRoute, 0.50)), "ns");
    m.set("stored_per_user_byte", stored_per_user, "bytes/byte");
    m.set("peak_rss_mb", rss_mb, "MiB");
    return result;
  }

  // -- traced run: per-layer probes and figures ------------------------------
  trace::set_enabled(true);
  trace::bind_thread(kMainSlot);
  const std::vector<std::uint64_t> probe_keys =
      sample_keys(config.seed + 1, 16384);
  probes::place(*c.pinned_index(), probe_keys, kReplicas);
  probes::build(inner, 1.0);
  probes::locate(inner.object_store(),
                 std::vector<std::uint64_t>(probe_keys.begin(),
                                            probe_keys.begin() + 1000));
  probes::dirty_insert(1, config.seed, spec->dirty_dedupe, kKeys);
  probes::dirty_insert(spec->threads, config.seed, spec->dirty_dedupe, kKeys);
  probes::journal_append();
  trace::bind_thread(kMainSlot);
  trace::set_enabled(false);
  const std::vector<trace::Span> spans = trace::collect();
  if (!config.trace_path.empty() && !trace::write_csv(spans, config.trace_path)) {
    result.violations.push_back("cannot write " + config.trace_path);
  }

  using trace::Name;
  const auto probe_p50 = [&spans](probes::Id id, double per) {
    return trace::p50_duration_ns(spans, Name::kProbe, id) / per;
  };
  const ech::PlacementEpochDomain& epochs = c.placement_epochs();
  const double hits = counter_value(st.registry, "ech_client_cache_hits_total");
  const double misses =
      counter_value(st.registry, "ech_client_cache_misses_total");
  const double misroutes =
      counter_value(st.registry, "ech_client_misroutes_total");
  const double repair_ns =
      counter_value(st.registry, "ech_client_repair_ns_total");

  m.set("placement.place_ns", probe_p50(probes::kPlace, probes::kPlaceBatch),
        "ns");
  m.set("placement.build_us", probe_p50(probes::kBuild, 1) / 1e3, "us");
  m.set("placement.slow_pins", static_cast<double>(epochs.slow_pins()),
        "count");
  m.set("placement.fallback_pins", static_cast<double>(epochs.fallback_pins()),
        "count");
  m.set("store.locate_us", probe_p50(probes::kLocate, 1) / 1e3, "us");
  m.set("store.holders_per_read",
        ratio(static_cast<double>(total.holders_sum),
              static_cast<double>(total.reads_ok)),
        "servers");
  m.set("store.write_amp", write_amp, "bytes/byte");
  m.set("server.read_us", trace::p50_duration_ns(spans, Name::kServerRead) / 1e3,
        "us");
  m.set("server.write_us",
        trace::p50_duration_ns(spans, Name::kServerWrite) / 1e3, "us");
  m.set("dirty.insert_ns", probe_p50(probes::kDirtyInsert, probes::kDirtyBatch),
        "ns");
  m.set("dirty.insert_ns_mt",
        probe_p50(spec->threads > 1 ? probes::kDirtyInsertMt
                                    : probes::kDirtyInsert,
                  probes::kDirtyBatch),
        "ns");
  m.set("dirty.entries", static_cast<double>(dirty_entries), "count");
  m.set("journal.bytes_per_write",
        ratio(static_cast<double>(wal_after - wal_before),
              static_cast<double>(total.writes_ok)),
        "bytes/write");
  m.set("journal.append_ns",
        probe_p50(probes::kJournalAppend, probes::kJournalBatch), "ns");
  m.set("journal.recover_s", recover_s, "s");
  m.set("resize.request_us_p50", merged_quantile({&st.op.resize_ns}, 0.5) / 1e3,
        "us");
  m.set("resize.request_us_p99",
        merged_quantile({&st.op.resize_ns}, 0.99) / 1e3, "us");
  m.set("resize.count", static_cast<double>(st.op.resizes), "count");
  m.set("reintegrate.step_ms_p50", merged_quantile({&st.op.step_ns}, 0.5) / 1e6,
        "ms");
  m.set("reintegrate.step_ms_p99",
        merged_quantile({&st.op.step_ns}, 0.99) / 1e6, "ms");
  m.set("reintegrate.mb_per_s",
        ratio(static_cast<double>(st.op.step_bytes) / (1024.0 * 1024.0),
              static_cast<double>(st.op.step_total_ns) / 1e9),
        "MiB/s");
  m.set("reintegrate.drain_s", drain_s, "s");
  m.set("client.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  m.set("client.cache_lookups", hits + misses, "count");
  m.set("client.misroutes", misroutes, "count");
  m.set("client.repair_us", ratio(repair_ns, misroutes) / 1e3, "us");
  m.set("net.rpc_ticks", hist_p50(st.registry, "net_rpc_latency_ticks"),
        "ticks");
  m.set("net.retries", counter_value(st.registry, "net_retries_total"), "count");
  m.set("net.timeouts", counter_value(st.registry, "net_timeouts_total"),
        "count");
  m.set("net.client_self_us", trace::p50_self_ns(spans) / 1e3, "us");
  m.set("trace.overhead",
        ratio(ratio(static_cast<double>(plain.completed), plain.seconds),
              ratio(static_cast<double>(traced.completed), traced.seconds)),
        "ratio");
  m.set("trace.spans", static_cast<double>(spans.size()), "count");
  return result;
}

}  // namespace perfbench
