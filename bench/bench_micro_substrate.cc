// Micro-benchmarks of the substrate, including the ablations DESIGN.md
// calls out:
//   * Algorithm 2 (naive per-block probing) vs Algorithm 3 (lookahead,
//     candidate-outer) block marking across active-set sizes — the cache
//     effect that explains SyncMatch's pathology;
//   * Holm-Bonferroni vs plain Bonferroni procedure cost;
//   * hypergeometric CDF: shared table vs direct per-candidate
//     evaluation (the paper's Section 3.5 sharing argument);
//   * scan kernel and distance computation throughput;
//   * alias sampling (workload generation substrate).

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/distance.h"
#include "engine/block_policy.h"
#include "engine/io_manager.h"
#include "stats/hypergeometric.h"
#include "stats/multiple_testing.h"
#include "util/random.h"
#include "workload/generator.h"

namespace fastmatch {
namespace {

std::shared_ptr<ColumnStore> MicroStore(int64_t rows, int vz) {
  Rng rng(7);
  std::vector<Value> z, x;
  z.reserve(static_cast<size_t>(rows));
  x.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    z.push_back(static_cast<Value>(rng.Uniform(static_cast<uint64_t>(vz))));
    x.push_back(static_cast<Value>(rng.Uniform(24)));
  }
  return ColumnStore::FromColumns(
             Schema({{"Z", static_cast<uint32_t>(vz)}, {"X", 24}}),
             {std::move(z), std::move(x)})
      .value();
}

// ---------------------------------------------------------------------
// Ablation: Algorithm 2 vs Algorithm 3 marking, sweeping active count.

void BM_MarkNaive(benchmark::State& state) {
  static auto store = MicroStore(2000000, 7641);
  static auto index = BitmapIndex::Build(*store, 0).value();
  const int actives = static_cast<int>(state.range(0));
  std::vector<int> active;
  for (int i = 0; i < actives; ++i) active.push_back(i * 7641 / actives);
  std::vector<uint8_t> marks;
  const int count = 1024;
  for (auto _ : state) {
    for (BlockId b = 0; b + count <= index->num_blocks(); b += count) {
      MarkAnyActiveNaive(*index, active, b, count, &marks);
    }
    benchmark::DoNotOptimize(marks);
  }
  state.SetItemsProcessed(state.iterations() * index->num_blocks());
}
BENCHMARK(BM_MarkNaive)->Arg(4)->Arg(64)->Arg(512)->Arg(4096);

void BM_MarkLookahead(benchmark::State& state) {
  static auto store = MicroStore(2000000, 7641);
  static auto index = BitmapIndex::Build(*store, 0).value();
  const int actives = static_cast<int>(state.range(0));
  std::vector<int> active;
  for (int i = 0; i < actives; ++i) active.push_back(i * 7641 / actives);
  std::vector<uint8_t> marks;
  std::vector<uint64_t> scratch;
  const int count = 1024;
  for (auto _ : state) {
    for (BlockId b = 0; b + count <= index->num_blocks(); b += count) {
      MarkAnyActiveLookahead(*index, active, b, count, &scratch, &marks);
    }
    benchmark::DoNotOptimize(marks);
  }
  state.SetItemsProcessed(state.iterations() * index->num_blocks());
}
BENCHMARK(BM_MarkLookahead)->Arg(4)->Arg(64)->Arg(512)->Arg(4096);

// ---------------------------------------------------------------------
// Scan kernel throughput (the I/O manager's inner loop).

void BM_ReadBlock(benchmark::State& state) {
  static auto store = MicroStore(2000000, 347);
  static auto io = IoManager::Create(store, 0, {1}).value();
  CountMatrix out(347, 24);
  for (auto _ : state) {
    for (BlockId b = 0; b < store->num_blocks(); ++b) {
      io->ReadBlock(b, &out);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * store->TotalBytes());
}
BENCHMARK(BM_ReadBlock);

// ---------------------------------------------------------------------
// Statistics substrate.

void BM_HypergeomCdfTable(benchmark::State& state) {
  // Stage-1 shared table: one table, |VZ| lookups.
  const int64_t N = 600000000, K = 480000, m = 500000;
  for (auto _ : state) {
    HypergeomCdfTable table(N, K, m, 2000);
    double acc = 0;
    for (int64_t ni = 0; ni < 7641; ++ni) acc += table.LogCdf(ni % 1500);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HypergeomCdfTable);

void BM_HypergeomDirectPerCandidate(benchmark::State& state) {
  // The unshared alternative: one direct CDF per candidate. Quadratic in
  // the observation; run on a reduced candidate count to stay feasible.
  const int64_t N = 600000000, K = 480000, m = 500000;
  for (auto _ : state) {
    double acc = 0;
    for (int64_t ni = 0; ni < 64; ++ni) {
      acc += LogHypergeomCdf(ni % 1500, N, K, m);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HypergeomDirectPerCandidate);

void BM_HolmBonferroni(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> ps(7641);
  for (auto& p : ps) p = std::log(rng.NextDouble() + 1e-300);
  for (auto _ : state) {
    auto rejected = HolmBonferroniReject(ps, std::log(0.0033));
    benchmark::DoNotOptimize(rejected);
  }
}
BENCHMARK(BM_HolmBonferroni);

void BM_Bonferroni(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> ps(7641);
  for (auto& p : ps) p = std::log(rng.NextDouble() + 1e-300);
  for (auto _ : state) {
    auto rejected = BonferroniReject(ps, std::log(0.0033));
    benchmark::DoNotOptimize(rejected);
  }
}
BENCHMARK(BM_Bonferroni);

void BM_L1Distance(benchmark::State& state) {
  Rng rng(5);
  std::vector<Distribution> dists;
  for (int i = 0; i < 347; ++i) {
    std::vector<double> w(24);
    for (auto& x : w) x = rng.NextDouble() + 0.01;
    dists.push_back(Normalize(w));
  }
  const Distribution target = UniformDistribution(24);
  for (auto _ : state) {
    double acc = 0;
    for (const auto& d : dists) acc += L1Distance(d, target);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 347);
}
BENCHMARK(BM_L1Distance);

void BM_AliasSampler(benchmark::State& state) {
  Rng rng(9);
  AliasSampler sampler(ZipfWeights(7641, 1.05));
  for (auto _ : state) {
    uint64_t acc = 0;
    for (int i = 0; i < 1024; ++i) acc += sampler.Sample(&rng);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AliasSampler);

void BM_BitVectorPopcountRange(benchmark::State& state) {
  BitVector bv(1 << 20);
  Rng rng(11);
  for (int i = 0; i < (1 << 18); ++i) {
    bv.Set(static_cast<int64_t>(rng.Uniform(1 << 20)));
  }
  for (auto _ : state) {
    int64_t acc = 0;
    for (int64_t b = 0; b + 4096 <= bv.size(); b += 4096) {
      acc += bv.PopcountRange(b, b + 4096);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_BitVectorPopcountRange);

}  // namespace
}  // namespace fastmatch
