#include "probes.h"

#include <thread>

#include "common.h"
#include "core/dirty_table.h"
#include "io/mem_env.h"
#include "io/wal.h"
#include "kvstore/sharded_store.h"
#include "trace.h"

namespace perfbench::probes {

void place(const ech::PlacementBackend& snapshot,
           const std::vector<std::uint64_t>& keys, std::uint32_t replicas) {
  std::size_t failures = 0;
  for (std::size_t i = 0; i + kPlaceBatch <= keys.size(); i += kPlaceBatch) {
    const trace::Scope span(trace::Name::kProbe, kPlace);
    for (std::size_t j = i; j < i + kPlaceBatch; ++j) {
      failures += snapshot.place(ech::ObjectId{keys[j]}, replicas).ok() ? 0 : 1;
    }
  }
  (void)failures;
}

void build(const ech::ElasticCluster& cluster, double budget_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(budget_s);
  for (int i = 0; i < 30 && (i < 3 || Clock::now() < deadline); ++i) {
    const trace::Scope span(trace::Name::kProbe, kBuild);
    const auto snapshot = ech::build_placement_backend(
        cluster.config().placement_backend, cluster.current_view(),
        cluster.current_version());
    (void)snapshot;
  }
}

void locate(const ech::ObjectStoreCluster& store,
            const std::vector<std::uint64_t>& keys) {
  std::size_t holders = 0;
  for (std::uint64_t k : keys) {
    const trace::Scope span(trace::Name::kProbe, kLocate);
    holders += store.locate(ech::ObjectId{k}).size();
  }
  (void)holders;
}

void dirty_insert(std::uint32_t threads, std::uint64_t seed, bool dedupe,
                  std::uint64_t keys) {
  constexpr int kBatchesPerThread = 500;
  ech::kv::ShardedStore kv(8);
  ech::DirtyTable table(kv, dedupe);
  const Id id = threads > 1 ? kDirtyInsertMt : kDirtyInsert;
  const auto body = [&](std::uint32_t t) {
    trace::bind_thread(t);
    KeyRng rng(seed * 131 + t);
    for (int b = 0; b < kBatchesPerThread; ++b) {
      const trace::Scope span(trace::Name::kProbe, id);
      for (std::uint64_t i = 0; i < kDirtyBatch; ++i) {
        (void)table.insert(ech::ObjectId{rng.below(keys)},
                           ech::Version{1});
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0);
  for (auto& th : pool) th.join();
}

void journal_append() {
  constexpr int kBatches = 2000;
  ech::io::MemEnv env;
  (void)env.create_dir("probe");
  auto opened = ech::io::WalWriter::open(env, "probe/WAL-1", true);
  if (!opened.ok()) return;
  ech::io::WalWriter& wal = *opened.value();
  // A replica-put record as the durability layer frames it.
  const std::string record = "put 17 123456 3 1 4194304";
  for (int b = 0; b < kBatches; ++b) {
    const trace::Scope span(trace::Name::kProbe, kJournalAppend);
    for (std::uint64_t i = 0; i < kJournalBatch; ++i) {
      (void)wal.append_record(record);
      (void)wal.sync();
    }
  }
}

}  // namespace perfbench::probes
