// `dashboard`: many users on one relation. Waves of kWaveQueries
// distinct-target queries (each target the exact histogram of one
// candidate, from MakeQueryBatch) over flights Origin x DepartureHour go
// through QueryScheduler at once; the next wave waits for every result.
// Batches launch only when full (the queue timer is set far beyond any
// wave), so every batch is exactly one wave. The shared-scan
// BatchExecutor does nearly all the work; SamplingEngine, the stage-1
// cache and appends are bypassed.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "engine/batch_executor.h"
#include "engine/io_manager.h"
#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "util/logging.h"
#include "workload/generator.h"
#include "workload/traffic.h"

namespace perfbench {

using namespace fastmatch;

namespace {

constexpr int kWaveQueries = 16;
constexpr int kWavePool = 16;  // distinct waves, replayed in order

/// The batch quota. On 4 vCPUs one worker gave the highest throughput
/// and the steadiest runs; quotas 3 and 4 were slower and spread far more
/// from run to run (README, "Steadiness").
constexpr int kQuota = 1;

/// The quota batch.thread_speedup compares against: every vCPU.
int AllCores() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

struct Setup {
  SyntheticDataset flights;
  std::vector<std::vector<BoundQuery>> waves;
  int z_attr = -1;
  int x_attr = -1;
  double generate_s = 0;
  double index_s = 0;
  double total_s = 0;
};

TrafficOptions WaveTraffic(uint64_t seed) {
  TrafficOptions traffic;
  traffic.num_queries = 4 * kWaveQueries * kWavePool;
  traffic.params.epsilon = 0.04;
  traffic.params.delta = 0.01;
  traffic.params.sigma = 0.0008;
  traffic.params.stage1_samples = 200000;
  traffic.seed = Mix(seed, 21);
  return traffic;
}

/// The workload's batch options at a given worker quota, on the
/// process-wide pool the scheduler also uses.
BatchOptions BatchAt(int quota) {
  BatchOptions o;
  o.num_threads = quota;
  o.shared_pool = &SharedWorkerPool::Process();
  return o;
}

/// Wall seconds of BatchExecutor::Run on `wave` at `quota`.
double RunSeconds(const std::vector<BoundQuery>& wave, int quota) {
  auto executor = BatchExecutor::Create(wave, BatchAt(quota));
  FASTMATCH_CHECK(executor.ok()) << executor.status().ToString();
  const double t0 = Now();
  (*executor)->Run();
  return Now() - t0;
}

Setup MakeSetup(uint64_t seed) {
  Setup s;
  const double t0 = Now();
  s.flights = MakeFlightsLike(kRows, kDatasetSeed);
  s.generate_s = Now() - t0;
  const Schema& schema = s.flights.store->schema();
  s.z_attr = schema.FindAttribute("Origin").value();
  s.x_attr = schema.FindAttribute("DepartureHour").value();
  const double ti = Now();
  auto index = BitmapIndex::Build(*s.flights.store, s.z_attr);
  FASTMATCH_CHECK(index.ok()) << index.status().ToString();
  s.index_s = Now() - ti;

  auto pool = MakeQueryBatch(s.flights.store, *index, s.z_attr, {s.x_attr},
                             WaveTraffic(seed));
  FASTMATCH_CHECK(pool.ok()) << pool.status().ToString();
  // Deal the drawn queries into waves of distinct targets.
  s.waves.assign(kWavePool, {});
  std::vector<std::set<Distribution>> seen(kWavePool);
  size_t w = 0;
  for (BoundQuery& q : *pool) {
    while (w < s.waves.size() && s.waves[w].size() == kWaveQueries) ++w;
    if (w == s.waves.size()) break;
    if (seen[w].insert(q.target).second) s.waves[w].push_back(std::move(q));
  }
  FASTMATCH_CHECK(s.waves.back().size() == kWaveQueries)
      << "too few distinct targets drawn";
  s.total_s = Now() - t0;
  return s;
}

SchedulerOptions DashboardScheduler() {
  SchedulerOptions o;
  o.batch.num_threads = kQuota;
  o.max_batch_queries = kWaveQueries;
  o.max_queue_wait_seconds = 3600;  // launch on full only
  o.allow_joins = false;            // a wave never joins its predecessor
  o.stage1_cache = false;
  return o;
}

/// Submits one wave and waits for every result, in submission order.
/// Returns the per-query latencies (submit call to result in hand).
std::vector<double> RunWave(QueryScheduler* scheduler,
                            const std::vector<BoundQuery>& wave,
                            std::vector<Recorded>* recorded) {
  std::vector<QueryHandle> handles;
  std::vector<double> issued;
  handles.reserve(wave.size());
  for (const BoundQuery& q : wave) {
    const double t0 = Now();
    auto handle = scheduler->Submit(q);
    FASTMATCH_CHECK(handle.ok()) << handle.status().ToString();
    issued.push_back(t0);
    handles.push_back(std::move(handle).value());
  }
  std::vector<double> latencies;
  for (size_t i = 0; i < handles.size(); ++i) {
    SchedulerItem item = handles[i].Get();
    latencies.push_back(Now() - issued[i]);
    if (recorded != nullptr) {
      recorded->push_back(Record(item.status, item.status.ok() ? &item.match : nullptr));
    }
  }
  return latencies;
}

void CheckAll(const Setup& s, const std::vector<std::pair<size_t, Recorded>>& recorded,
              RunReport* report) {
  const Oracle oracle =
      Oracle::Count(*s.flights.store, s.z_attr, s.x_attr, s.flights.store->num_rows());
  for (const auto& [index, rec] : recorded) {
    const BoundQuery& q = s.waves[index / kWaveQueries][index % kWaveQueries];
    report->Add(Check(rec, oracle, q.target, q.params));
  }
  report->CloseGuarantees(0.01);
}

}  // namespace

RunReport RunDashboard(const Options& opt) {
  RunReport report;
  Setup s;
  std::unique_ptr<QueryScheduler> scheduler;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    scheduler.reset();
    s = Setup{};
    const double t0 = Now();
    s = MakeSetup(opt.seed);
    scheduler = std::make_unique<QueryScheduler>(DashboardScheduler());
    report.setup_seconds.push_back(Now() - t0);
  }

  constexpr int kWarmupWaves = 2;
  for (int w = 0; w < kWarmupWaves; ++w) RunWave(scheduler.get(), s.waves[w], nullptr);

  std::vector<std::pair<size_t, Recorded>> recorded;
  report.phase.Start(opt.seconds);
  int waves = 0;
  while (waves == 0 || report.phase.Running()) {
    const size_t w = static_cast<size_t>(waves++) % s.waves.size();
    std::vector<Recorded> wave_results;
    for (double l : RunWave(scheduler.get(), s.waves[w], &wave_results)) {
      report.phase.Add(l);
    }
    report.phase.EndRound();
    for (size_t i = 0; i < wave_results.size(); ++i) {
      recorded.emplace_back(w * kWaveQueries + i, std::move(wave_results[i]));
    }
  }

  // Eager delivery resolves a batch's futures before the batch retires,
  // so the counters are final only after Shutdown(). They cover the
  // warm-up waves too.
  scheduler->Shutdown();
  const SchedulerStats st = scheduler->stats();
  CheckAll(s, recorded, &report);
  report.work = {
      {"timed_waves", waves},
      {"timed_queries", static_cast<double>(report.phase.queries())},
      {"warmup_waves", kWarmupWaves},
      {"batches", static_cast<double>(st.batches_launched)},
      {"blocks_read", static_cast<double>(st.batch_blocks_read)},
      {"timeout_flushes", static_cast<double>(st.timeout_flushes)},
      {"joined_midflight", static_cast<double>(st.joined_midflight)},
      {"eager_delivered", static_cast<double>(st.eager_delivered)}};
  if (st.timeout_flushes != 0 || st.batches_launched != waves + kWarmupWaves) {
    report.correct = false;
    report.problems.push_back("a batch did not hold exactly one wave");
  }
  return report;
}

void TraceDashboard(const Options& opt, RunReport* report) {
  const Setup s = MakeSetup(opt.seed);
  report->layers.push_back({"storage.generate_s", s.generate_s, "s"});
  report->layers.push_back({"index.build_s", s.index_s, "s"});

  report->layers.push_back({"kernel.mrows_per_s.narrow",
                            KernelMrowsPerSecond(s.flights.store, s.z_attr, s.x_attr),
                            "Mrows/s"});

  // The scheduler path for a third of the time, then the identical
  // batches driven directly: Step by Step at the workload's quota, and
  // Run on every core.
  std::vector<std::pair<size_t, Recorded>> recorded;
  double sched_s = 0, create_s = 0, direct_s = 0, all_s = 0, step_s = 0;
  int64_t steps = 0, chunks = 0, rows = 0, batches = 0;
  {
    QueryScheduler scheduler(DashboardScheduler());
    RunWave(&scheduler, s.waves[0], nullptr);  // warm-up
    const double start = Now();
    while (batches == 0 || Now() - start < opt.seconds / 3) {
      const size_t w = static_cast<size_t>(batches++) % s.waves.size();
      std::vector<Recorded> results;
      RunWave(&scheduler, s.waves[w], &results);
      for (size_t i = 0; i < results.size(); ++i) {
        recorded.emplace_back(w * kWaveQueries + i, std::move(results[i]));
      }
    }
    sched_s = Now() - start;
    scheduler.Shutdown();
  }
  for (int64_t wave = 0; wave < batches; ++wave) {
    const size_t w = static_cast<size_t>(wave) % s.waves.size();
    const double t0 = Now();
    auto executor = BatchExecutor::Create(s.waves[w], BatchAt(kQuota));
    FASTMATCH_CHECK(executor.ok()) << executor.status().ToString();
    const double t1 = Now();
    create_s += t1 - t0;
    (*executor)->Start();
    for (bool more = true; more;) {
      const double ts = Now();
      more = (*executor)->Step();
      step_s += Now() - ts;
      ++steps;
    }
    (*executor)->TakeItems();
    direct_s += Now() - t1;
    chunks += (*executor)->stats().chunks;
    rows += (*executor)->stats().rows_read;
  }
  for (int64_t wave = 0; wave < batches; ++wave) {
    all_s += RunSeconds(s.waves[static_cast<size_t>(wave) % s.waves.size()], AllCores());
  }
  const double b = static_cast<double>(batches);
  report->layers.push_back({"batch.step_ms", step_s / static_cast<double>(steps) * 1e3, "ms"});
  report->layers.push_back({"batch.chunks_per_batch", static_cast<double>(chunks) / b, "chunks"});
  report->layers.push_back({"batch.rows_read_per_batch", static_cast<double>(rows) / b, "rows"});
  report->layers.push_back({"batch.thread_speedup", direct_s / all_s, "ratio"});
  report->layers.push_back({"service.overhead_ms_per_batch", (sched_s - direct_s) / b * 1e3, "ms"});
  char line[256];
  std::snprintf(line, sizeof(line),
                "dashboard: executor steps cover %.1f%% of the scheduler's wave "
                "wall (%.2f ms/wave via scheduler; direct: %.2f Create + %.2f "
                "Start..TakeItems at quota %d; %.2f Run at quota %d)",
                100.0 * step_s / sched_s, sched_s / b * 1e3, create_s / b * 1e3,
                direct_s / b * 1e3, kQuota, all_s / b * 1e3, AllCores());
  report->notes.push_back(line);

  // The wide template for reference: one Origin x Dest wave.
  TrafficOptions traffic = WaveTraffic(opt.seed);
  traffic.num_queries = kWaveQueries;
  auto wide = MakeQueryBatch(s.flights.store, s.waves[0][0].z_index, s.z_attr,
                             {s.flights.store->schema().FindAttribute("Dest").value()},
                             traffic);
  FASTMATCH_CHECK(wide.ok()) << wide.status().ToString();
  for (const auto& [name, wave] :
       {std::pair<const char*, const std::vector<BoundQuery>*>{"Origin x DepartureHour",
                                                               &s.waves[0]},
        {"Origin x Dest", &*wide}}) {
    std::vector<double> one, quota;
    for (int rep = 0; rep < 3; ++rep) {
      one.push_back(RunSeconds(*wave, 1));
      quota.push_back(RunSeconds(*wave, AllCores()));
    }
    std::snprintf(line, sizeof(line),
                  "reference batch of %d, %s: %.2f ms at quota 1, %.2f ms at quota "
                  "%d (speedup %.3f)",
                  kWaveQueries, name, Median(one) * 1e3, Median(quota) * 1e3,
                  AllCores(), Median(one) / Median(quota));
    report->notes.push_back(line);
  }
  CheckAll(s, recorded, report);
}

}  // namespace perfbench
