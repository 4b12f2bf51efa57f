// Self-test of the output checks: each check must pass on a healthy small
// cluster and fail once that cluster's state is corrupted.  A check that
// cannot fail proves nothing, so the benchmark is only as good as this.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "io/mem_env.h"

namespace perfbench {
namespace {

using ech::ObjectId;
using ech::ServerId;

constexpr std::uint32_t kServers = 30;
constexpr std::uint32_t kLow = 12;
constexpr std::uint32_t kReplicas = 3;
constexpr ech::Bytes kObjectSize = 4 * 1024 * 1024;
constexpr std::uint64_t kKeys = 300;
const char* const kDir = "wal";

struct Small {
  ech::obs::MetricsRegistry registry;
  ech::io::MemEnv env;
  std::unique_ptr<ech::ConcurrentElasticCluster> cluster;
  std::vector<std::atomic<std::uint32_t>> acked =
      std::vector<std::atomic<std::uint32_t>>(kKeys);
  std::uint64_t low_writes{0};
};

/// A preloaded 30-server cluster; `low` resizes it to 12 and overwrites a
/// third of the keys there twice (each write acknowledged below full
/// power); `dedupe` turns on dirty_dedupe.
std::unique_ptr<Small> make_small(bool durability, bool low,
                                  bool dedupe = false) {
  auto s = std::make_unique<Small>();
  ech::ElasticClusterConfig cfg;
  cfg.server_count = kServers;
  cfg.replicas = kReplicas;
  cfg.object_size = kObjectSize;
  cfg.metrics = &s->registry;
  cfg.dirty_dedupe = dedupe;
  s->cluster = std::move(ech::ConcurrentElasticCluster::create(cfg)).value();
  if (durability) {
    (void)s->cluster->unsynchronized().attach_durability(s->env, kDir);
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    (void)s->cluster->write(ObjectId{k}, 0);
    s->acked[k] = s->cluster->current_version().value;
  }
  if (low) {
    (void)s->cluster->request_resize(kLow);
    for (std::uint64_t i = 0; i < 2 * kKeys; i += 3) {
      const std::uint64_t k = i % kKeys;
      if (s->cluster->write(ObjectId{k}, 0).is_ok()) {
        s->acked[k] = s->cluster->current_version().value;
        ++s->low_writes;
      }
    }
  }
  return s;
}

std::vector<std::uint64_t> all_keys() {
  std::vector<std::uint64_t> keys(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) keys[k] = k;
  return keys;
}

/// Erase the replica of `oid` held by its lowest-rank holder (a primary)
/// or, with `primary` false, by its highest-rank holder.
void erase_replica(Small& s, std::uint64_t oid, bool primary) {
  ech::ElasticCluster& inner = s.cluster->unsynchronized();
  const std::vector<std::uint32_t> rank = rank_table(inner);
  std::vector<ServerId> holders = inner.object_store().locate(ObjectId{oid});
  if (holders.empty()) return;
  ServerId pick = holders.front();
  for (ServerId h : holders) {
    const bool better = primary ? rank[h.value] < rank[pick.value]
                                : rank[h.value] > rank[pick.value];
    if (better) pick = h;
  }
  (void)inner.mutable_object_store().server(pick).erase(ObjectId{oid});
}

/// Path of the current WAL in `env` (empty when there is none).
std::string wal_path(ech::io::MemEnv& env) {
  const auto files = env.list_dir(kDir);
  if (!files.ok()) return {};
  for (const std::string& f : files.value()) {
    if (f.find("WAL-") == std::string::npos) continue;
    return f.find('/') == std::string::npos ? std::string(kDir) + "/" + f : f;
  }
  return {};
}

/// Replace the current WAL's contents with `bytes`, synced.
void rewrite_wal(ech::io::MemEnv& env, const std::string& path,
                 const std::string& bytes) {
  auto file = env.new_writable_file(path, /*truncate=*/true);
  if (!file.ok()) return;
  (void)file.value()->append(bytes);
  (void)file.value()->sync();
  (void)file.value()->close();
}

/// Flip one byte in the middle of the current WAL.
void flip_wal_byte(ech::io::MemEnv& env) {
  const std::string path = wal_path(env);
  auto data = env.read_file(path);
  if (path.empty() || !data.ok() || data.value().size() < 16) return;
  std::string bytes = data.value();
  bytes[bytes.size() / 2] ^= 0x5A;
  rewrite_wal(env, path, bytes);
}

int g_failures = 0;

void expect(const std::string& what, bool healthy_passes,
            bool corrupted_fails) {
  const bool ok = healthy_passes && corrupted_fails;
  if (!ok) ++g_failures;
  std::fprintf(stderr, "self-test %-44s healthy:%s corrupted:%s %s\n",
               what.c_str(), healthy_passes ? "pass" : "FAIL",
               corrupted_fails ? "fail" : "PASS", ok ? "ok" : "WRONG");
}

void test_read_ok() {
  // Ranks equal ids here; p = ceil(30 / e^2) = 5.
  std::vector<std::uint32_t> rank(kServers + 1);
  for (std::uint32_t i = 0; i <= kServers; ++i) rank[i] = i;
  const std::uint32_t p = expected_primaries(kServers);
  const bool healthy = p == 5 && read_ok({ServerId{2}, ServerId{9}, ServerId{20}},
                                         rank, p, 20);
  expect("read_ok: duplicate server",
         healthy, !read_ok({ServerId{2}, ServerId{9}, ServerId{9}}, rank, p, 0));
  expect("read_ok: no primary", healthy,
         !read_ok({ServerId{6}, ServerId{9}, ServerId{20}}, rank, p, 0));
  expect("read_ok: inactive server", healthy,
         !read_ok({ServerId{2}, ServerId{9}, ServerId{21}}, rank, p, 20));
}

void test_reads() {
  auto s = make_small(false, false);
  const bool healthy = check_reads(*s->cluster, all_keys(), kServers).empty();
  erase_replica(*s, 7, /*primary=*/true);
  expect("check_reads: primary replica erased", healthy,
         !check_reads(*s->cluster, all_keys(), kServers).empty());
}

void test_recovery() {
  double t = 0.0;
  {
    auto s = make_small(true, true);
    const bool healthy = check_recovery(s->env, kDir,
                                        s->cluster->unsynchronized(), kKeys,
                                        s->acked, &t)
                             .empty();
    auto c = make_small(true, true);
    flip_wal_byte(c->env);
    expect("check_recovery: WAL byte flipped", healthy,
           !check_recovery(c->env, kDir, c->cluster->unsynchronized(), kKeys,
                           c->acked, &t)
                .empty());
  }
  {
    auto s = make_small(true, true);
    // Erased on the live cluster but never synced: the crash loses it.  A
    // primary's replica, because stat only reports active holders.
    erase_replica(*s, 11, /*primary=*/true);
    expect("check_recovery: unsynced replica erase", true,
           !check_recovery(s->env, kDir, s->cluster->unsynchronized(), kKeys,
                           s->acked, &t)
                .empty());
  }
  {
    // An overwrite at full power keeps version and holders as they were;
    // only the store's bytes written tell that its records were lost.
    auto s = make_small(true, false);
    const std::string path = wal_path(s->env);
    const auto before = s->env.read_file(path);
    const bool written = s->cluster->write(ObjectId{5}, 0).is_ok();
    const bool healthy =
        written && check_recovery(s->env, kDir, s->cluster->unsynchronized(),
                                  kKeys, s->acked, &t)
                       .empty();
    auto c = make_small(true, false);
    (void)c->cluster->write(ObjectId{5}, 0);
    if (before.ok()) rewrite_wal(c->env, path, before.value());
    expect("check_recovery: overwrite lost in the crash", healthy,
           !check_recovery(c->env, kDir, c->cluster->unsynchronized(), kKeys,
                           c->acked, &t)
                .empty());
  }
  {
    auto s = make_small(true, true);
    s->acked[5] = s->acked[5].load() + 1;
    expect("check_recovery: ack newer than recovered", true,
           !check_recovery(s->env, kDir, s->cluster->unsynchronized(), kKeys,
                           s->acked, &t)
                .empty());
  }
}

void test_offload_counts(bool dedupe) {
  auto s = make_small(false, true, dedupe);
  // Every third key, each written twice below full power.
  const std::uint64_t entries = dedupe ? s->low_writes / 2 : s->low_writes;
  const bool healthy =
      s->low_writes > 0 &&
      check_offload_counts(s->registry, *s->cluster, s->low_writes, entries)
          .empty();
  (void)s->cluster->unsynchronized().dirty_table().insert(
      ObjectId{1}, s->cluster->current_version());
  expect(std::string("check_offload_counts: extra dirty entry") +
             (dedupe ? " (dedupe)" : ""),
         healthy,
         !check_offload_counts(s->registry, *s->cluster, s->low_writes,
                               entries)
              .empty());
}

void test_lookups() {
  auto s = make_small(false, false);
  std::uint64_t calls = 0;
  for (std::uint64_t k = 0; k < 50; ++k) {
    (void)s->cluster->placement_of(ObjectId{k});
    ++calls;
  }
  const bool healthy = check_lookups(s->registry, calls).empty();
  (void)s->cluster->placement_of(ObjectId{1});  // not counted
  expect("check_lookups: uncounted lookup", healthy,
         !check_lookups(s->registry, calls).empty());
}

void test_drain(bool dedupe) {
  double t = 0.0;
  auto s = make_small(false, true, dedupe);
  const bool healthy =
      check_drain(*s->cluster, kKeys, kReplicas, kObjectSize, &t).empty();
  auto c = make_small(false, true, dedupe);
  erase_replica(*c, 10, /*primary=*/false);  // key 10 was never offloaded
  expect(std::string("check_drain: replica erased") +
             (dedupe ? " (dedupe)" : ""),
         healthy,
         !check_drain(*c->cluster, kKeys, kReplicas, kObjectSize, &t).empty());
}

}  // namespace

int run_self_test() {
  test_read_ok();
  test_reads();
  test_recovery();
  test_offload_counts(false);
  test_offload_counts(true);
  test_lookups();
  test_drain(false);
  test_drain(true);
  std::fprintf(stderr, "self-test: %s\n",
               g_failures == 0 ? "every check passes healthy and fails corrupted"
                               : "SOME CHECKS ARE WRONG");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
