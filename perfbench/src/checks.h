// Output checks run after each workload's window.  They test properties and
// values the benchmark computes itself (p = ceil(n / e^2), its own counts of
// acknowledged writes and lookups), never stored copies of earlier output.
// Each returns the list of violations it found (empty = pass); the
// self-test (selftest.cpp) shows each one failing on a corrupted state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/concurrent_cluster.h"
#include "io/mem_env.h"
#include "obs/metrics.h"

namespace perfbench {

using Violations = std::vector<std::string>;

/// The equal-work primary count, computed here rather than asked of the
/// program: ceil(n / e^2).
[[nodiscard]] std::uint32_t expected_primaries(std::uint32_t n);

/// Rank of every server id in the cluster's expansion chain (index = id).
[[nodiscard]] std::vector<std::uint32_t> rank_table(
    const ech::ElasticCluster& cluster);

/// One read's answer: distinct servers, at least one of rank <= p, and (if
/// `active` > 0) every one of rank <= active.  Invariant I1.
[[nodiscard]] bool read_ok(const std::vector<ech::ServerId>& holders,
                           const std::vector<std::uint32_t>& rank, std::uint32_t p,
                           std::uint32_t active);

/// Read `keys` on the quiescent cluster and apply read_ok to each.
[[nodiscard]] Violations check_reads(ech::ConcurrentElasticCluster& cluster,
                                     const std::vector<std::uint64_t>& keys,
                                     std::uint32_t active);

/// Crash and recover: drop what was never synced, recover from `dir`, and
/// compare every object in [0, keys) with the live cluster (same newest
/// version, same holder set), and require the recovered store's cumulative
/// bytes written to be at least the live store's (every write adds to it,
/// also one that leaves version and holders as they were).
/// `acked_version[k]` is the newest version the benchmark saw acknowledged
/// for key k (0 = none); the recovered version may not be older.
/// `recover_s` receives the time spent in recover().
[[nodiscard]] Violations check_recovery(
    ech::io::MemEnv& env, const std::string& dir,
    const ech::ElasticCluster& live, std::uint64_t keys,
    const std::vector<std::atomic<std::uint32_t>>& acked_version,
    double* recover_s);

/// Offload accounting: ech_offloaded_writes_total equals the benchmark's
/// count of writes acknowledged below full power, and the dirty-table size
/// equals `want_entries`: that same count, or with dirty_dedupe the number
/// of distinct keys among those writes (all in one version).
[[nodiscard]] Violations check_offload_counts(
    const ech::obs::MetricsRegistry& registry,
    const ech::ConcurrentElasticCluster& cluster, std::uint64_t acked_low,
    std::uint64_t want_entries);

/// ech_placement_lookups_total equals the benchmark's count of placement_of
/// calls (its own and those its StorageApi wrapper forwarded).
[[nodiscard]] Violations check_lookups(const ech::obs::MetricsRegistry& registry,
                                       std::uint64_t placement_calls);

/// Resize to full power and pump maintenance until the dirty table is
/// empty (`drain_s` receives the time), then require: empty table, exactly
/// `replicas` holders per object in [0, keys), and stored bytes =
/// replicas * object_size * keys.
[[nodiscard]] Violations check_drain(ech::ConcurrentElasticCluster& cluster,
                                     std::uint64_t keys, std::uint32_t replicas,
                                     ech::Bytes object_size, double* drain_s);

/// Show every check above passing on a healthy small cluster and failing
/// on a corrupted one (selftest.cpp).  0 when all behave.
[[nodiscard]] int run_self_test();

/// Counter value by name (0 when absent).
[[nodiscard]] double counter_value(const ech::obs::MetricsRegistry& registry,
                                   const std::string& name);

}  // namespace perfbench
