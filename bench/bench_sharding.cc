// Horizontal sharding: scatter-gather batch execution vs the unsharded
// scan.
//
// One flights-like store (FASTMATCH_ROWS rows; the committed
// bench-results/BENCH_sharding.json ran at 2M) is split into
// P in {1, 2, 4, 8} block-aligned partitions, and a fixed batch of B
// concurrent queries runs at a FIXED total thread count for every P:
// sharding changes where bytes are read from, never the parallelism
// budget, so any throughput delta is pure scatter-gather overhead.
//
// Reported per configuration: aggregate queries/sec, p50 per-query
// completion (seconds from batch start), mean blocks read, and the
// guarantee-violation count of every delivered item against exact
// ground truth — which must be 0: the sharded scan is bit-for-bit the
// P = 1 scan (same logical cursor, marking, and merge), so the paper's
// guarantees transfer by identity, not by a new statistical argument
// (docs/PAPER_MAP.md, "Sharding soundness").
//
// Shape to expect: queries/s flat in P (same logical scan, same thread
// budget; the per-block scatter routing costs a few percent at high P),
// and blocks read IDENTICAL across every P at equal batch seed — the
// scatter-gather contract made visible in the I/O counters.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/verify.h"
#include "engine/batch_executor.h"
#include "storage/partitioned_store.h"
#include "util/timer.h"
#include "workload/traffic.h"

using namespace fastmatch;
using namespace fastmatch::bench;

namespace {

constexpr int kBatchQueries = 8;
constexpr int kTotalThreads = 4;

struct ModeResult {
  double qps = 0;
  double p50 = 0;
  double blocks = 0;  // mean blocks read per run
  int violations = 0;
};

}  // namespace

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Horizontal sharding: scatter-gather batch execution", config);

  PaperQuery spec;
  for (const PaperQuery& s : PaperQueries()) {
    if (s.dataset == "flights") {
      spec = s;
      break;
    }
  }
  const PreparedQuery& prepared = GetPrepared(spec, config);
  const SyntheticDataset& ds = GetDataset("flights", config);
  std::printf("%s\n", DatasetSummary(ds).c_str());
  std::printf("template: %s (Z=%s, X=%s)  batch: %d queries  threads: %d\n\n",
              spec.id.c_str(), spec.z_attr.c_str(), spec.x_attr.c_str(),
              kBatchQueries, kTotalThreads);

  HistSimParams params = config.Params();
  params.k = prepared.bound.params.k;

  TrafficOptions topt;
  topt.num_queries = kBatchQueries;
  topt.params = params;
  topt.identical_targets = false;  // distinct per-user targets
  topt.seed = 777;
  auto batch = MakeQueryBatch(prepared.bound.store, prepared.bound.z_index,
                              prepared.bound.z_attr, prepared.bound.x_attrs,
                              topt);
  FASTMATCH_CHECK(batch.ok()) << batch.status().ToString();

  // Per-query exact ground truth (targets differ per user).
  std::vector<GroundTruth> truths;
  for (const BoundQuery& q : *batch) {
    truths.push_back(ComputeGroundTruth(prepared.exact, q.target,
                                        q.params.metric, q.params.sigma,
                                        q.params.k));
  }

  const auto measure = [&](int num_partitions) {
    ModeResult r;
    std::vector<double> latencies;
    double total_secs = 0;
    for (int run = 0; run < config.runs; ++run) {
      BatchOptions bopt;
      bopt.num_threads = kTotalThreads;
      bopt.chunk_blocks = config.lookahead;
      bopt.seed = 1000 + static_cast<uint64_t>(run);

      std::vector<BoundQuery> queries = *batch;
      if (num_partitions > 0) {
        auto partitions =
            PartitionedStore::Split(prepared.bound.store, num_partitions);
        FASTMATCH_CHECK(partitions.ok()) << partitions.status().ToString();
        for (BoundQuery& q : queries) q.partitions = *partitions;
      }
      auto created = BatchExecutor::Create(queries, bopt);
      FASTMATCH_CHECK(created.ok()) << created.status().ToString();
      std::unique_ptr<BatchExecutor> executor = std::move(*created);

      WallTimer timer;
      std::vector<BatchItem> items = executor->Run();
      total_secs += timer.Seconds();
      r.blocks += static_cast<double>(executor->stats().blocks_read) /
                  config.runs;
      for (size_t i = 0; i < items.size(); ++i) {
        FASTMATCH_CHECK(items[i].status.ok()) << items[i].status.ToString();
        latencies.push_back(items[i].wall_seconds);
        const BoundQuery& q = (*batch)[i];
        GuaranteeCheck check = CheckGuarantees(items[i].match, prepared.exact,
                                               truths[i], q.target, q.params);
        r.violations += !check.separation_ok || !check.reconstruction_ok;
      }
    }
    r.qps = static_cast<double>(kBatchQueries) * config.runs / total_secs;
    r.p50 = Percentile(latencies, 0.50);
    return r;
  };

  std::printf("%8s %12s %10s %12s %12s\n", "P", "queries/s", "p50 (s)",
              "blocks/run", "violations");
  const ModeResult plain = measure(0);
  std::printf("%8s %12.2f %10.4f %12.0f %12d\n", "plain", plain.qps, plain.p50,
              plain.blocks, plain.violations);
  std::fflush(stdout);

  int total_violations = plain.violations;
  bool blocks_identical = true;
  for (int num_partitions : {1, 2, 4, 8}) {
    const ModeResult r = measure(num_partitions);
    std::printf("%8d %12.2f %10.4f %12.0f %12d\n", num_partitions, r.qps,
                r.p50, r.blocks, r.violations);
    std::fflush(stdout);
    total_violations += r.violations;
    blocks_identical = blocks_identical && r.blocks == plain.blocks;
  }
  FASTMATCH_CHECK_EQ(total_violations, 0);

  std::printf(
      "\nguarantee violations across all partition counts: %d (must be 0)\n",
      total_violations);
  std::printf(
      "blocks read identical across P at equal seeds: %s (the scatter-"
      "gather contract: one logical scan, routed)\n",
      blocks_identical ? "yes" : "NO");
  std::printf(
      "Shape: flat queries/s in P at fixed threads; sharding buys "
      "placement freedom, not (and at no cost to) throughput.\n");
  return 0;
}
