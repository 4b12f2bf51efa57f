// Per-layer probes of the traced run.  Each times one layer's public call
// in isolation and records one span per timed batch (span op = probe id),
// so the layer's figure is the p50 span duration over the batch size.
#pragma once

#include <cstdint>
#include <vector>

#include "core/elastic_cluster.h"
#include "placement/backend.h"

namespace perfbench::probes {

enum Id : std::uint64_t {
  kPlace = 1,
  kBuild,
  kLocate,
  kDirtyInsert,
  kDirtyInsertMt,
  kJournalAppend,
};

inline constexpr std::uint64_t kPlaceBatch = 16;
inline constexpr std::uint64_t kDirtyBatch = 64;
inline constexpr std::uint64_t kJournalBatch = 16;

/// PlacementBackend::place on the pinned snapshot, kPlaceBatch per span.
void place(const ech::PlacementBackend& snapshot,
           const std::vector<std::uint64_t>& keys, std::uint32_t replicas);

/// build_placement_backend for the cluster's current membership, one per
/// span, repeated for up to `budget_s` seconds (at least 3 builds).
void build(const ech::ElasticCluster& cluster, double budget_s);

/// ObjectStoreCluster::locate on the quiescent store, one key per span.
void locate(const ech::ObjectStoreCluster& store,
            const std::vector<std::uint64_t>& keys);

/// DirtyTable::insert on a standalone table (in `dedupe` mode or not, as
/// the workload's cluster), keys uniform in [0, keys), kDirtyBatch per
/// span, from `threads` threads at once, the caller among them (thread t
/// records on trace slot t).
void dirty_insert(std::uint32_t threads, std::uint64_t seed, bool dedupe,
                  std::uint64_t keys);

/// WalWriter::append_record + sync on a fresh MemEnv, kJournalBatch pairs
/// per span.
void journal_append();

}  // namespace perfbench::probes
