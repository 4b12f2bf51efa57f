#include "checks.h"

#include <algorithm>
#include <cmath>

#include "common.h"
#include "obs/export.h"

namespace perfbench {

using ech::ObjectId;
using ech::ServerId;

std::uint32_t expected_primaries(std::uint32_t n) {
  const double e2 = std::exp(2.0);
  return static_cast<std::uint32_t>(std::ceil(static_cast<double>(n) / e2));
}

std::vector<std::uint32_t> rank_table(const ech::ElasticCluster& cluster) {
  const auto& servers = cluster.chain().servers();
  std::vector<std::uint32_t> rank(servers.size() + 1, 0);
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const std::uint32_t id = servers[i].value;
    if (id >= rank.size()) rank.resize(id + 1, 0);
    rank[id] = static_cast<std::uint32_t>(i + 1);
  }
  return rank;
}

bool read_ok(const std::vector<ServerId>& holders,
             const std::vector<std::uint32_t>& rank, std::uint32_t p,
             std::uint32_t active) {
  if (holders.empty()) return false;
  bool has_primary = false;
  for (std::size_t i = 0; i < holders.size(); ++i) {
    const std::uint32_t id = holders[i].value;
    if (id >= rank.size() || rank[id] == 0) return false;
    const std::uint32_t r = rank[id];
    if (active != 0 && r > active) return false;
    if (r <= p) has_primary = true;
    for (std::size_t j = 0; j < i; ++j) {
      if (holders[j] == holders[i]) return false;
    }
  }
  return has_primary;
}

Violations check_reads(ech::ConcurrentElasticCluster& cluster,
                       const std::vector<std::uint64_t>& keys,
                       std::uint32_t active) {
  Violations out;
  const ech::ElasticCluster& inner = cluster.unsynchronized();
  const std::vector<std::uint32_t> rank = rank_table(inner);
  const std::uint32_t p = expected_primaries(inner.server_count());
  for (std::uint64_t k : keys) {
    const auto got = cluster.read(ObjectId{k});
    if (!got.ok()) {
      out.push_back("read " + std::to_string(k) + " failed: " +
                    got.status().to_string());
    } else if (!read_ok(got.value(), rank, p, active)) {
      out.push_back("read " + std::to_string(k) +
                    " broke I1 (distinct active holders, one of rank <= " +
                    std::to_string(p) + ")");
    }
    if (out.size() >= 8) break;
  }
  return out;
}

Violations check_recovery(
    ech::io::MemEnv& env, const std::string& dir,
    const ech::ElasticCluster& live, std::uint64_t keys,
    const std::vector<std::atomic<std::uint32_t>>& acked_version,
    double* recover_s) {
  Violations out;
  env.drop_unsynced();
  ech::obs::MetricsRegistry scratch;
  const auto t0 = Clock::now();
  auto recovered =
      ech::ElasticCluster::recover(env, dir, ech::SnapshotHooks{&scratch});
  *recover_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!recovered.ok()) {
    out.push_back("recover failed: " + recovered.status().to_string());
    return out;
  }
  const ech::ElasticCluster& rec = *recovered.value();
  // Replay re-executes every journaled put, and header updates too (as
  // puts), so the recovered count may exceed the live one but never fall
  // short of it.
  const ech::Bytes written = live.object_store().total_bytes_written();
  if (rec.object_store().total_bytes_written() < written) {
    out.push_back("store wrote " + std::to_string(written) +
                  " bytes live but only " +
                  std::to_string(rec.object_store().total_bytes_written()) +
                  " after recovery");
  }
  for (std::uint64_t k = 0; k < keys && out.size() < 8; ++k) {
    const ObjectId oid{k};
    const auto a = live.stat_object(oid);
    const auto b = rec.stat_object(oid);
    if (a.ok() != b.ok()) {
      out.push_back("object " + std::to_string(k) + " readable " +
                    (a.ok() ? "live only" : "after recovery only"));
      continue;
    }
    if (!a.ok()) continue;
    std::vector<ServerId> ha = a.value().holders;
    std::vector<ServerId> hb = b.value().holders;
    std::sort(ha.begin(), ha.end());
    std::sort(hb.begin(), hb.end());
    if (a.value().version != b.value().version || ha != hb) {
      out.push_back("object " + std::to_string(k) +
                    " differs after recovery (version " +
                    std::to_string(a.value().version.value) + " vs " +
                    std::to_string(b.value().version.value) + ")");
      continue;
    }
    const std::uint32_t acked =
        k < acked_version.size()
            ? acked_version[k].load(std::memory_order_relaxed)
            : 0;
    if (acked > b.value().version.value) {
      out.push_back("object " + std::to_string(k) + " acked at version " +
                    std::to_string(acked) + " recovered at " +
                    std::to_string(b.value().version.value));
    }
  }
  return out;
}

double counter_value(const ech::obs::MetricsRegistry& registry,
                     const std::string& name) {
  const ech::obs::MetricsSnapshot snap = registry.snapshot();
  const ech::obs::MetricSample* s = ech::obs::find_sample(snap, name);
  return s != nullptr ? s->value : 0.0;
}

Violations check_offload_counts(const ech::obs::MetricsRegistry& registry,
                                const ech::ConcurrentElasticCluster& cluster,
                                std::uint64_t acked_low,
                                std::uint64_t want_entries) {
  Violations out;
  const auto offloaded = static_cast<std::uint64_t>(
      counter_value(registry, "ech_offloaded_writes_total"));
  const std::uint64_t dirty = cluster.dirty_entries();
  if (offloaded != acked_low) {
    out.push_back("ech_offloaded_writes_total " + std::to_string(offloaded) +
                  " != acknowledged low-power writes " +
                  std::to_string(acked_low));
  }
  if (dirty != want_entries) {
    out.push_back("dirty table holds " + std::to_string(dirty) +
                  " entries, want " + std::to_string(want_entries));
  }
  return out;
}

Violations check_lookups(const ech::obs::MetricsRegistry& registry,
                         std::uint64_t placement_calls) {
  const auto lookups = static_cast<std::uint64_t>(
      counter_value(registry, "ech_placement_lookups_total"));
  if (lookups == placement_calls) return {};
  return {"ech_placement_lookups_total " + std::to_string(lookups) +
          " != placement_of calls made " + std::to_string(placement_calls)};
}

Violations check_drain(ech::ConcurrentElasticCluster& cluster,
                       std::uint64_t keys, std::uint32_t replicas,
                       ech::Bytes object_size, double* drain_s) {
  Violations out;
  constexpr ech::Bytes kBudget = 64 * ech::kDefaultObjectSize;
  constexpr int kStallSteps = 8;
  const auto t0 = Clock::now();
  const ech::Status resized = cluster.request_resize(cluster.server_count());
  if (!resized.is_ok()) {
    out.push_back("resize to full power failed: " + resized.to_string());
    return out;
  }
  int stalled = 0;
  std::size_t left = cluster.dirty_entries();
  while (left > 0 && stalled < kStallSteps) {
    const ech::Bytes moved = cluster.maintenance_step(kBudget);
    const std::size_t now_left = cluster.dirty_entries();
    stalled = (moved == 0 && now_left >= left) ? stalled + 1 : 0;
    left = now_left;
  }
  *drain_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (left > 0) {
    out.push_back("drain stalled with " + std::to_string(left) +
                  " dirty entries left");
  }
  const ech::ObjectStoreCluster& store = cluster.unsynchronized().object_store();
  for (std::uint64_t k = 0; k < keys && out.size() < 8; ++k) {
    const std::size_t holders = store.locate(ObjectId{k}).size();
    if (holders != replicas) {
      out.push_back("object " + std::to_string(k) + " has " +
                    std::to_string(holders) + " holders after drain, want " +
                    std::to_string(replicas));
    }
  }
  const ech::Bytes want =
      static_cast<ech::Bytes>(replicas) * object_size *
      static_cast<ech::Bytes>(keys);
  if (store.total_bytes() != want) {
    out.push_back("store holds " + std::to_string(store.total_bytes()) +
                  " bytes after drain, want " + std::to_string(want));
  }
  return out;
}

}  // namespace perfbench
