// `refresh`: a live dashboard over a growing relation. The service-tier
// dashboard shape (|VZ| = 48, |VX| = 8, peaked per-candidate shapes)
// at kRows rows is queried at loose epsilon with the stage-1 cache on.
// Each round appends one batch through ColumnStore::AppendBatch, then
// submits kPanels fixed panels one at a time, each awaited before the
// next. Most batches come from the store's own generative model, so the
// drift test should promote the cached stage-1 prior; every kCycle-th
// batch moves mass onto one candidate, so the test should evict it.
// Rounds run in whole cycles. The time goes to Stage1Cache,
// RevalidateStage1, warm starts and appends rather than long scans.

#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/verify.h"
#include "index/bitmap_index.h"
#include "service/query_scheduler.h"
#include "service/stage1_revalidator.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/generator.h"

namespace perfbench {

using namespace fastmatch;

namespace {

constexpr int kCandidates = 48;
constexpr int kGroups = 8;
constexpr int kPanels = 16;
constexpr int kCycle = 8;          // rounds per cycle; the last one shifts
// Small next to the relation, so that a run's growth (about a tenth)
// barely moves per-query costs.
constexpr int64_t kBatchRows = 600;
constexpr int kShiftBatches = 6;   // distinct shifted candidates

using Batch = std::vector<std::vector<Value>>;  // Z column, X column

/// The relation's generative model. `shifted` >= 0 gives that candidate
/// kCandidates / 2 times its usual weight (a third of the rows) and
/// keeps every candidate's X shape.
std::vector<GenAttr> Attrs(uint64_t seed, int shifted = -1) {
  Rng rng(seed);
  std::vector<double> marginal(kCandidates, 1.0);
  if (shifted >= 0) marginal[shifted] = kCandidates / 2.0;
  return {GenAttr{"Z", kCandidates, -1, std::move(marginal), {}},
          GenAttr{"X", kGroups, 0, {},
                  PeakedPrototypes(kCandidates, kGroups, 0.5, &rng)}};
}

Batch MakeBatch(const std::vector<GenAttr>& attrs, uint64_t seed) {
  Rng rng(seed);
  auto rows = GenerateRows("batch", attrs, kBatchRows, &rng);
  Batch cols(2);
  for (int a = 0; a < 2; ++a) {
    cols[a].reserve(kBatchRows);
    for (int64_t r = 0; r < kBatchRows; ++r) cols[a].push_back(rows->column(a).Get(r));
  }
  return cols;
}

struct Setup {
  std::shared_ptr<ColumnStore> store;
  std::vector<BoundQuery> panels;
  std::vector<Batch> benign;  // kCycle - 1
  std::vector<Batch> shifts;  // kShiftBatches
  std::unique_ptr<QueryScheduler> scheduler;
  double generate_s = 0;
  double index_s = 0;
  double total_s = 0;
};

HistSimParams RefreshParams() {
  HistSimParams p;
  p.k = 3;
  p.epsilon = 0.15;
  p.delta = 0.05;
  p.sigma = 0;
  p.stage1_samples = kRows / 8;
  return p;
}

SchedulerOptions RefreshScheduler() {
  SchedulerOptions o;
  // Quota 1: on 4 vCPUs a 64-block chunk split over 3 workers made
  // panels 1.5-3x slower than one worker did, and runs spread more
  // (README, "Steadiness").
  o.batch.num_threads = 1;
  o.batch.chunk_blocks = 64;
  o.max_queue_wait_seconds = 0;
  // Every batch holds one panel. With joins on, a panel submitted while
  // the previous one-query batch is still winding down joins it, at a
  // rate that depends on thread timing; such joined answers have come
  // back with candidates marked exact whose counts were not exact
  // (CHANGES.md, FOUND).
  o.allow_joins = false;
  o.stage1_cache = true;
  return o;
}

std::unique_ptr<Setup> MakeSetup(uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const double t0 = Now();
  // Like the paper datasets, the relation and its model are fixed; the
  // seed chooses the appended rows and the shifted candidates.
  const uint64_t model_seed = kDatasetSeed + 3;
  {
    Rng rng(kDatasetSeed + 4);
    s->store = GenerateRows("refresh", Attrs(model_seed), kRows, &rng);
  }
  for (int b = 0; b + 1 < kCycle; ++b) {
    s->benign.push_back(MakeBatch(Attrs(model_seed), Mix(seed, 40 + b)));
  }
  Rng pick(Mix(seed, 33));
  for (int b = 0; b < kShiftBatches; ++b) {
    const int c = static_cast<int>(pick.Uniform(kCandidates));
    s->shifts.push_back(MakeBatch(Attrs(model_seed, c), Mix(seed, 60 + b)));
  }
  s->generate_s = Now() - t0;

  const double ti = Now();
  auto index = BitmapIndex::Build(*s->store, 0);
  FASTMATCH_CHECK(index.ok()) << index.status().ToString();
  s->index_s = Now() - ti;

  // Bind the panels: panel p targets candidate p's current histogram.
  auto exact = ComputeExactCounts(*s->store, 0, {1});
  FASTMATCH_CHECK(exact.ok()) << exact.status().ToString();
  for (int p = 0; p < kPanels; ++p) {
    BoundQuery q;
    q.store = s->store;
    q.z_index = *index;
    q.z_attr = 0;
    q.x_attrs = {1};
    q.params = RefreshParams();
    q.params.seed = Mix(seed, 100 + p);
    q.target = exact->NormalizedRow(p);
    s->panels.push_back(std::move(q));
  }
  s->scheduler = std::make_unique<QueryScheduler>(RefreshScheduler());
  s->total_s = Now() - t0;
  return s;
}

const Batch& BatchOfRound(const Setup& s, int round) {
  const int in_cycle = round % kCycle;
  if (in_cycle == kCycle - 1) return s.shifts[(round / kCycle) % kShiftBatches];
  return s.benign[in_cycle];
}

struct Answer {
  int round = 0;
  int panel = 0;
  Recorded recorded;
};

/// Runs the panels of one round; returns their latencies.
/// With `lookup_s`/`submit_s` set (traced run), times a direct
/// Stage1Cache::Lookup for each panel and the Submit call itself.
std::vector<double> RunPanels(Setup* s, int round, std::vector<Answer>* answers,
                              int64_t* warm, double* lookup_s = nullptr,
                              double* submit_s = nullptr) {
  std::vector<double> latencies;
  for (int p = 0; p < kPanels; ++p) {
    const BoundQuery& q = s->panels[p];
    if (lookup_s != nullptr) {
      const double t0 = Now();
      s->scheduler->stage1_cache()->Lookup(q.store->id(), kWholeStorePartition,
                                           q.z_attr, q.x_attrs,
                                           q.params.stage1_samples,
                                           q.store->generation());
      *lookup_s += Now() - t0;
    }
    const double t0 = Now();
    auto handle = s->scheduler->Submit(q);
    if (submit_s != nullptr) *submit_s += Now() - t0;
    FASTMATCH_CHECK(handle.ok()) << handle.status().ToString();
    SchedulerItem item = handle->Get();
    latencies.push_back(Now() - t0);
    if (item.status.ok() && item.match.diag.stage1_warm) ++*warm;
    answers->push_back(
        {round, p, Record(item.status, item.status.ok() ? &item.match : nullptr)});
  }
  return latencies;
}

/// Checks every answer against the oracle at its round's generation:
/// the initial rows plus every batch appended up to that round.
void CheckAll(const Setup& s, int64_t initial_rows,
              const std::vector<Answer>& answers, RunReport* report) {
  Oracle oracle = Oracle::Count(*s.store, 0, 1, initial_rows);
  int at_round = 0;
  for (const Answer& a : answers) {
    while (at_round < a.round) {
      ++at_round;
      const Batch& b = BatchOfRound(s, at_round);
      oracle.Add(b[0], b[1]);
    }
    const BoundQuery& q = s.panels[a.panel];
    report->Add(Check(a.recorded, oracle, q.target, q.params));
  }
  report->CloseGuarantees(RefreshParams().delta);
}

/// Appends round r's batch; false when the append failed.
bool Append(Setup* s, uint64_t seed, int round, double* seconds = nullptr) {
  const double t0 = Now();
  auto generation = s->store->AppendBatch(BatchOfRound(*s, round),
                                          Mix(seed, 5000 + static_cast<uint64_t>(round)));
  if (seconds != nullptr) *seconds += Now() - t0;
  return generation.ok();
}

}  // namespace

RunReport RunRefresh(const Options& opt) {
  RunReport report;
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    s = MakeSetup(opt.seed);
    report.setup_seconds.push_back(s->total_s);
  }
  const int64_t initial_rows = s->store->num_rows();

  // Round 0 (untimed): no append; primes the stage-1 cache.
  std::vector<Answer> answers;
  int64_t warm = 0;
  RunPanels(s.get(), 0, &answers, &warm);
  answers.clear();
  warm = 0;

  int round = 0;
  bool appended = true;
  report.phase.Start(opt.seconds);
  while (appended && (round == 0 || report.phase.Running())) {
    for (int i = 0; i < kCycle && appended; ++i) {
      ++round;
      ++report.attempted;
      appended = Append(s.get(), opt.seed, round);
      if (!appended) break;
      for (double l : RunPanels(s.get(), round, &answers, &warm)) report.phase.Add(l);
      report.phase.EndRound();
    }
  }

  // Eager delivery resolves a batch's futures before the batch retires,
  // so the counters are final only after Shutdown(). They cover the
  // priming round too.
  s->scheduler->Shutdown();
  const SchedulerStats st = s->scheduler->stats();
  if (!appended) {
    // The relation no longer matches the oracle; check nothing after it.
    ++report.failed;
    report.correct = false;
    report.problems.push_back("AppendBatch failed in round " + std::to_string(round));
  }
  CheckAll(*s, initial_rows, answers, &report);
  report.work = {
      {"timed_rounds", round},
      {"timed_queries", static_cast<double>(report.phase.queries())},
      {"rows_appended", static_cast<double>(s->store->num_rows() - initial_rows)},
      {"batches", static_cast<double>(st.batches_launched)},
      {"joined_midflight", static_cast<double>(st.joined_midflight)},
      {"blocks_read", static_cast<double>(st.batch_blocks_read)},
      {"timed_warm_admissions", static_cast<double>(warm)},
      {"revalidations", static_cast<double>(st.stage1_revalidations)},
      {"promotions", static_cast<double>(st.stage1_promotions)},
      {"evictions", static_cast<double>(st.stage1_drift_evictions)}};
  return report;
}

void TraceRefresh(const Options& opt, RunReport* report) {
  std::unique_ptr<Setup> s = MakeSetup(opt.seed);
  report->layers.push_back({"storage.generate_s", s->generate_s, "s"});
  report->layers.push_back({"index.build_s", s->index_s, "s"});
  const int64_t initial_rows = s->store->num_rows();
  std::vector<Answer> answers;
  int64_t warm = 0;
  RunPanels(s.get(), 0, &answers, &warm);
  warm = 0;
  answers.clear();

  double append_s = 0, lookup_s = 0, submit_s = 0, revalidate_s = 0, panels_s = 0;
  int64_t appends = 0, revalidations = 0;
  const double start = Now();
  int round = 0;
  while (round == 0 || Now() - start < opt.seconds / 2) {
    for (int i = 0; i < kCycle; ++i) {
      ++round;
      ++appends;
      FASTMATCH_CHECK(Append(s.get(), opt.seed, round, &append_s));
      // The drift test the first panel's admission will run, called
      // directly on the cached prior.
      const BoundQuery& q = s->panels[0];
      Stage1LookupResult found = s->scheduler->stage1_cache()->Lookup(
          q.store->id(), kWholeStorePartition, q.z_attr, q.x_attrs,
          q.params.stage1_samples, q.store->generation());
      if (found.outcome == Stage1Outcome::kRevalidate) {
        const double t0 = Now();
        auto verdict = RevalidateStage1(q.store, q.z_attr, q.x_attrs, *found.snapshot,
                                        q.store->generation());
        revalidate_s += Now() - t0;
        FASTMATCH_CHECK(verdict.ok()) << verdict.status().ToString();
        ++revalidations;
      }
      const double t0 = Now();
      RunPanels(s.get(), round, &answers, &warm, &lookup_s, &submit_s);
      panels_s += Now() - t0;
    }
  }
  const double wall = Now() - start;
  s->scheduler->Shutdown();
  const double n = static_cast<double>(answers.size());
  report->layers.push_back({"storage.append_ms", append_s / static_cast<double>(appends) * 1e3, "ms"});
  report->layers.push_back({"service.submit_us", submit_s / n * 1e6, "us"});
  report->layers.push_back({"cache.warm_share", static_cast<double>(warm) / n, "ratio"});
  report->layers.push_back({"cache.lookup_us", lookup_s / n * 1e6, "us"});
  report->layers.push_back({"cache.revalidate_ms",
                            revalidations > 0 ? revalidate_s / static_cast<double>(revalidations) * 1e3 : 0,
                            "ms"});
  char line[256];
  std::snprintf(line, sizeof(line),
                "refresh: appends + panel spans cover %.1f%% of the traced wall "
                "(%.3f ms/query traced, %lld queries, %lld appends)",
                100.0 * (append_s + panels_s) / wall, panels_s / n * 1e3,
                static_cast<long long>(n), static_cast<long long>(appends));
  report->notes.push_back(line);
  CheckAll(*s, initial_rows, answers, report);
}

}  // namespace perfbench
