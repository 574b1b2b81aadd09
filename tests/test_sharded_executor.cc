// Tests of scatter-gather batch execution over a PartitionedStore: the
// bit-for-bit equivalence property (a P-way run's per-query counts,
// top-k, and distances equal the P=1 and plain runs, across partition
// counts x thread counts x seeds), partition I/O conservation, create
// validation for partition-carrying batches, mid-flight join
// equivalence, per-partition stage-1 export, and the per-partition
// warm-start round trip.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/verify.h"
#include "engine/batch_executor.h"
#include "engine/executor.h"
#include "storage/partitioned_store.h"
#include "test_helpers.h"

namespace fastmatch {
namespace {

using testing_util::MakeExactStore;
using testing_util::PlantedDistributions;

struct ShardFixture {
  std::shared_ptr<ColumnStore> store;
  std::shared_ptr<const BitmapIndex> index;
  Distribution target;
};

ShardFixture MakeShardFixture(int64_t rows_per_candidate, uint64_t seed,
                              int rows_per_block = 50) {
  ShardFixture f;
  std::vector<double> offsets = {0.0,  0.01, 0.02, 0.06, 0.09, 0.12,
                                 0.15, 0.17, 0.19, 0.21, 0.23, 0.25};
  auto dists = PlantedDistributions(12, 8, offsets);
  f.store = MakeExactStore(std::vector<int64_t>(12, rows_per_candidate),
                           dists, seed, rows_per_block);
  f.index = BitmapIndex::Build(*f.store, 0).value();
  f.target = UniformDistribution(8);
  return f;
}

HistSimParams ShardParams(uint64_t seed = 42) {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.05;
  p.delta = 0.05;
  p.sigma = 0.0;
  p.stage1_samples = 3000;
  p.seed = seed;
  return p;
}

BoundQuery MakeQuery(const ShardFixture& f, uint64_t seed = 42) {
  BoundQuery q;
  q.store = f.store;
  q.z_index = f.index;
  q.z_attr = 0;
  q.x_attrs = {1};
  q.target = f.target;
  q.params = ShardParams(seed);
  return q;
}

BatchOptions Options(int threads, uint64_t seed = 7, int chunk = 64) {
  BatchOptions o;
  o.num_threads = threads;
  o.chunk_blocks = chunk;
  o.seed = seed;
  return o;
}

std::vector<BoundQuery> WithPartitions(
    std::vector<BoundQuery> queries,
    const std::shared_ptr<const PartitionedStore>& partitions) {
  for (BoundQuery& q : queries) q.partitions = partitions;
  return queries;
}

void ExpectItemsIdentical(const std::vector<BatchItem>& got,
                          const std::vector<BatchItem>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].status.ok(), want[q].status.ok()) << label;
    if (!want[q].status.ok()) continue;
    EXPECT_EQ(got[q].match.topk, want[q].match.topk) << label;
    EXPECT_EQ(got[q].match.distances, want[q].match.distances) << label;
    EXPECT_EQ(got[q].match.topk_distances, want[q].match.topk_distances)
        << label;
    EXPECT_EQ(got[q].match.exact, want[q].match.exact) << label;
    const CountMatrix& a = want[q].match.counts;
    const CountMatrix& b = got[q].match.counts;
    ASSERT_EQ(a.num_candidates(), b.num_candidates()) << label;
    ASSERT_EQ(a.num_groups(), b.num_groups()) << label;
    for (int i = 0; i < a.num_candidates(); ++i) {
      for (int g = 0; g < a.num_groups(); ++g) {
        ASSERT_EQ(a.At(i, g), b.At(i, g))
            << label << " diverged at query " << q << " cell " << i << ","
            << g;
      }
    }
  }
}

TEST(ShardedExecutorTest, CreateValidation) {
  ShardFixture f = MakeShardFixture(2000, 1);
  auto partitions = PartitionedStore::Split(f.store, 2).value();
  auto queries = WithPartitions({MakeQuery(f), MakeQuery(f, 43)}, partitions);

  // A query without the set (or with a different set) is structural,
  // whichever query comes first: a batch is either one scatter-gather
  // or one plain scan, never a silent mix.
  {
    auto mixed = queries;
    mixed[1].partitions = nullptr;
    EXPECT_FALSE(BatchExecutor::Create(mixed, Options(2)).ok());
    std::swap(mixed[0], mixed[1]);
    EXPECT_FALSE(BatchExecutor::Create(mixed, Options(2)).ok());
    mixed[0].partitions = PartitionedStore::Split(f.store, 2).value();
    EXPECT_FALSE(BatchExecutor::Create(mixed, Options(2)).ok());
  }
  // Queries over a store the set was not split from.
  {
    ShardFixture g = MakeShardFixture(2000, 2);
    auto foreign = WithPartitions({MakeQuery(g)}, partitions);
    EXPECT_FALSE(BatchExecutor::Create(foreign, Options(2)).ok());
  }
  // Well-formed: the batch scans the queries' own set.
  auto executor = BatchExecutor::Create(queries, Options(2)).value();
  EXPECT_EQ(executor->stats().num_partitions, 2);
  EXPECT_EQ(executor->pin().store_id, partitions->id());
  const std::vector<PartitionIoStats> parts = executor->partition_stats();
  ASSERT_EQ(parts.size(), 2u);
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(parts[static_cast<size_t>(p)].partition_store_id,
              partitions->partition(p)->id());
  }
  // An unpartitioned batch reports one whole-store slice.
  auto plain = BatchExecutor::Create({MakeQuery(f)}, Options(2)).value();
  EXPECT_EQ(plain->stats().num_partitions, 1);
  ASSERT_EQ(plain->partition_stats().size(), 1u);
  EXPECT_EQ(plain->partition_stats()[0].partition_store_id, f.store->id());
}

TEST(ShardedExecutorTest, BitForBitEquivalentToPlainRun) {
  // The tentpole property: for every partition count, thread count, and
  // seed pair, the sharded run's per-query counts, top-k, and distances
  // are IDENTICAL to the plain (unpartitioned) run's — the logical scan
  // is the same scan, only the block reads scatter.
  for (uint64_t seed : {4u, 9u}) {
    ShardFixture f = MakeShardFixture(2000, seed);
    std::vector<BoundQuery> batch = {MakeQuery(f, 42), MakeQuery(f, 43),
                                     MakeQuery(f, 44)};
    auto plain = BatchExecutor::Create(batch, Options(2, seed)).value();
    const std::vector<BatchItem> reference = plain->Run();
    const int64_t reference_blocks = plain->stats().blocks_read;

    for (int P : {1, 2, 4, 8}) {
      auto partitions = PartitionedStore::Split(f.store, P).value();
      auto sharded_batch = WithPartitions(batch, partitions);
      for (int threads : {1, 2, 4}) {
        const std::string label = "store-seed " + std::to_string(seed) +
                                  " P=" + std::to_string(P) +
                                  " threads=" + std::to_string(threads);
        auto executor =
            BatchExecutor::Create(sharded_batch, Options(threads, seed))
                .value();
        std::vector<BatchItem> items = executor->Run();
        ExpectItemsIdentical(items, reference, label);
        EXPECT_EQ(executor->stats().blocks_read, reference_blocks) << label;

        // I/O conservation: the scatter re-routes reads, never adds or
        // drops any — per-partition reads sum to the logical totals.
        int64_t part_blocks = 0, part_rows = 0;
        std::set<uint64_t> part_ids;
        for (const PartitionIoStats& ps : executor->partition_stats()) {
          part_blocks += ps.blocks_read;
          part_rows += ps.rows_read;
          part_ids.insert(ps.partition_store_id);
        }
        EXPECT_EQ(part_blocks, executor->stats().blocks_read) << label;
        EXPECT_EQ(part_rows, executor->stats().rows_read) << label;
        EXPECT_EQ(part_ids.size(), static_cast<size_t>(P)) << label;
        if (P > 1) {
          // With uniform marking, every partition of a multi-way split
          // sees some of the scan.
          for (const PartitionIoStats& ps : executor->partition_stats()) {
            EXPECT_GT(ps.blocks_read, 0) << label;
          }
        }
      }
    }
  }
}

TEST(ShardedExecutorTest, MidflightJoinMatchesPlainJoin) {
  // Lifecycle equivalence: a query joining a running sharded scan gets
  // the same answer as the same join against the plain scan.
  ShardFixture f = MakeShardFixture(20000, 6);
  auto partitions = PartitionedStore::Split(f.store, 4).value();

  const auto drive = [&](bool sharded) {
    std::vector<BoundQuery> initial = {MakeQuery(f, 42)};
    BoundQuery late = MakeQuery(f, 43);
    std::unique_ptr<BatchExecutor> executor;
    if (sharded) {
      executor = BatchExecutor::Create(WithPartitions(initial, partitions),
                                       Options(2))
                     .value();
      late.partitions = partitions;
    } else {
      executor = BatchExecutor::Create(initial, Options(2)).value();
    }
    executor->Start();
    executor->Step();
    executor->Step();
    EXPECT_TRUE(executor->Join(late).ok());
    while (executor->Step()) {
    }
    return executor->TakeItems();
  };

  const std::vector<BatchItem> plain = drive(false);
  const std::vector<BatchItem> sharded = drive(true);
  ExpectItemsIdentical(sharded, plain, "midflight join");
}

TEST(ShardedExecutorTest, JoinRequiresMatchingPartitionSet) {
  ShardFixture f = MakeShardFixture(20000, 7);
  auto partitions = PartitionedStore::Split(f.store, 2).value();
  auto executor =
      BatchExecutor::Create(WithPartitions({MakeQuery(f)}, partitions),
                            Options(2))
          .value();
  executor->Start();
  executor->Step();
  // No partition set on the joiner, or a different set: structural.
  EXPECT_FALSE(executor->Join(MakeQuery(f, 43)).ok());
  {
    BoundQuery other = MakeQuery(f, 43);
    other.partitions = PartitionedStore::Split(f.store, 2).value();
    EXPECT_FALSE(executor->Join(other).ok());
  }
  // And the same set joins fine.
  BoundQuery late = MakeQuery(f, 43);
  late.partitions = partitions;
  EXPECT_TRUE(executor->Join(late).ok());
  while (executor->Step()) {
  }
  auto items = executor->TakeItems();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_TRUE(items[0].status.ok());
  EXPECT_TRUE(items[1].status.ok());
}

/// Records every publish for inspection.
class RecordingSink : public Stage1Sink {
 public:
  struct Publication {
    uint64_t store_id;
    uint64_t partition_id;
    int z_attr;
    std::vector<int> x_attrs;
    std::shared_ptr<const Stage1Snapshot> snapshot;
  };

  void Publish(uint64_t store_id, uint64_t partition_id, int z_attr,
               const std::vector<int>& x_attrs,
               std::shared_ptr<const Stage1Snapshot> snapshot) override {
    publications.push_back(
        {store_id, partition_id, z_attr, x_attrs, std::move(snapshot)});
  }

  std::vector<Publication> publications;
};

TEST(ShardedExecutorTest, ExportsOneSnapshotPerPartition) {
  ShardFixture f = MakeShardFixture(2000, 8);
  const int P = 3;
  auto partitions = PartitionedStore::Split(f.store, P).value();
  // A stage-1 draw large enough that its contiguous scan windows wrap
  // through every partition — otherwise only the partitions the cursor
  // touched have a share, and those are all the export can cover.
  BoundQuery query = MakeQuery(f);
  query.params.stage1_samples = 20000;

  // Reference: the plain run's whole-store export.
  RecordingSink plain_sink;
  BatchOptions plain_options = Options(2);
  plain_options.stage1_sink = &plain_sink;
  BatchExecutor::Create({query}, plain_options).value()->Run();
  ASSERT_EQ(plain_sink.publications.size(), 1u);
  const Stage1Snapshot& whole = *plain_sink.publications[0].snapshot;
  EXPECT_EQ(plain_sink.publications[0].store_id, f.store->id());
  EXPECT_EQ(plain_sink.publications[0].partition_id, kWholeStorePartition);

  RecordingSink sink;
  BatchOptions options = Options(2);
  options.stage1_sink = &sink;
  auto executor =
      BatchExecutor::Create(WithPartitions({query}, partitions), options)
          .value();
  executor->Run();
  ASSERT_EQ(sink.publications.size(), static_cast<size_t>(P));
  EXPECT_EQ(executor->stats().stage1_exports, P);

  CountMatrix merged(whole.counts.num_candidates(), whole.counts.num_groups());
  int64_t rows = 0;
  std::set<uint64_t> partition_ids;
  for (int p = 0; p < P; ++p) {
    const RecordingSink::Publication& pub = sink.publications[p];
    // Keyed (partition set id, partition store id) — never the source
    // store's id, never kWholeStorePartition.
    EXPECT_EQ(pub.store_id, partitions->id());
    EXPECT_EQ(pub.partition_id, partitions->partition(p)->id());
    partition_ids.insert(pub.partition_id);
    EXPECT_GT(pub.snapshot->rows_drawn, 0);
    // The snapshot's scan state is partition-local: its consumed mask
    // covers the partition's own block range, and partition snapshots
    // never carry exhaustion flags (exhaustion is logical-scan
    // knowledge, not partition-local).
    EXPECT_EQ(pub.snapshot->scan.consumed.size(),
              partitions->partition(p)->num_blocks());
    EXPECT_TRUE(pub.snapshot->scan.exhausted.empty());
    merged.Merge(pub.snapshot->counts);
    rows += pub.snapshot->rows_drawn;
  }
  EXPECT_EQ(partition_ids.size(), static_cast<size_t>(P));
  // Decomposition: the per-partition snapshots sum back to exactly the
  // whole-store export — same logical scan, scattered by partition.
  EXPECT_EQ(rows, whole.rows_drawn);
  for (int i = 0; i < merged.num_candidates(); ++i) {
    for (int g = 0; g < merged.num_groups(); ++g) {
      ASSERT_EQ(merged.At(i, g), whole.counts.At(i, g))
          << "partition decomposition diverged at " << i << "," << g;
    }
  }
}

TEST(ShardedExecutorTest, WarmPartsRoundTripMatchesMergedPrior) {
  // Consume-side round trip: per-partition snapshots exported by one
  // sharded run, attached as stage1_warm_parts to a later run, must
  // behave exactly like a plain query warm-started with the merged
  // overlapping prior (counts and rows summed across partitions).
  ShardFixture f = MakeShardFixture(2000, 10);
  const int P = 3;
  auto partitions = PartitionedStore::Split(f.store, P).value();

  // Large stage-1 draw so every partition contributes a snapshot (a
  // contiguous scan window covers all partitions).
  BoundQuery exporter = MakeQuery(f);
  exporter.params.stage1_samples = 20000;
  RecordingSink sink;
  BatchOptions export_options = Options(2);
  export_options.stage1_sink = &sink;
  BatchExecutor::Create(WithPartitions({exporter}, partitions), export_options)
      .value()
      ->Run();
  ASSERT_EQ(sink.publications.size(), static_cast<size_t>(P));

  // Sharded warm run.
  BoundQuery warm_sharded = MakeQuery(f, 77);
  warm_sharded.partitions = partitions;
  warm_sharded.stage1_warm_parts.resize(P);
  for (int p = 0; p < P; ++p) {
    warm_sharded.stage1_warm_parts[p] = sink.publications[p].snapshot;
  }
  auto sharded_exec = BatchExecutor::Create({warm_sharded}, Options(2)).value();
  std::vector<BatchItem> sharded_items = sharded_exec->Run();
  EXPECT_EQ(sharded_exec->stats().warm_queries, 1);

  // Plain equivalent: one merged snapshot, overlapping prior (empty
  // scan state forces the overlapping path, same as the merged parts).
  auto merged = std::make_shared<Stage1Snapshot>();
  merged->counts = CountMatrix(12, 8);
  for (int p = 0; p < P; ++p) {
    merged->counts.Merge(sink.publications[p].snapshot->counts);
    merged->rows_drawn += sink.publications[p].snapshot->rows_drawn;
  }
  BoundQuery warm_plain = MakeQuery(f, 77);
  warm_plain.stage1_warm = merged;
  auto plain_exec = BatchExecutor::Create({warm_plain}, Options(2)).value();
  std::vector<BatchItem> plain_items = plain_exec->Run();
  EXPECT_EQ(plain_exec->stats().warm_queries, 1);

  ExpectItemsIdentical(sharded_items, plain_items, "warm parts round trip");
}

TEST(ShardedExecutorTest, WarmPartsValidation) {
  ShardFixture f = MakeShardFixture(2000, 12);
  auto partitions = PartitionedStore::Split(f.store, 2).value();

  // stage1_warm_parts on an unpartitioned query: per-item error, not a
  // silent ignore.
  {
    BoundQuery q = MakeQuery(f);
    q.stage1_warm_parts.resize(2);
    auto executor = BatchExecutor::Create({q}, Options(2)).value();
    auto items = executor->Run();
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items[0].status.code(), StatusCode::kInvalidArgument);
  }
  // Wrong slot count on a sharded query.
  {
    BoundQuery q = MakeQuery(f);
    q.partitions = partitions;
    q.stage1_warm_parts.resize(3);
    auto executor = BatchExecutor::Create({q}, Options(2)).value();
    auto items = executor->Run();
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items[0].status.code(), StatusCode::kInvalidArgument);
  }
  // Both warm fields set.
  {
    BoundQuery q = MakeQuery(f);
    q.partitions = partitions;
    q.stage1_warm_parts.resize(2);
    auto snap = std::make_shared<Stage1Snapshot>();
    snap->counts = CountMatrix(12, 8);
    snap->rows_drawn = 100;
    q.stage1_warm_parts[0] = snap;
    q.stage1_warm = snap;
    auto executor = BatchExecutor::Create({q}, Options(2)).value();
    auto items = executor->Run();
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items[0].status.code(), StatusCode::kInvalidArgument);
  }
  // All-null warm parts degrade to a cold query, not an error (a
  // partial cache miss upstream may legitimately attach nothing).
  {
    BoundQuery q = MakeQuery(f);
    q.partitions = partitions;
    q.stage1_warm_parts.resize(2);
    auto executor = BatchExecutor::Create({q}, Options(2)).value();
    auto items = executor->Run();
    ASSERT_EQ(items.size(), 1u);
    EXPECT_TRUE(items[0].status.ok()) << items[0].status.ToString();
    EXPECT_EQ(executor->stats().warm_queries, 0);
  }
}

}  // namespace
}  // namespace fastmatch
