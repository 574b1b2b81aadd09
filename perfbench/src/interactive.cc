// `interactive`: one analyst, as in the paper. The nine Table-3 queries
// over flights/taxi/police (kRows rows each, paper defaults) are answered
// one at a time by RunQuery(FastMatch), round after round; round r gives
// every query the scan seed Mix(seed, r). This is the only workload on
// the single-query engine (SamplingEngine, its lookahead marker thread,
// bitmap-index block skipping); it bypasses the service tier, the batch
// executor and the cache.

#include <cstdio>
#include <map>
#include <memory>

#include "bench.h"
#include "core/sampler.h"
#include "engine/executor.h"
#include "engine/sampling_engine.h"
#include "index/bitmap_index.h"
#include "util/logging.h"
#include "workload/queries.h"

namespace perfbench {

using namespace fastmatch;

namespace {

struct Query {
  std::string id;
  BoundQuery bound;
  int x_attr = -1;
};

struct Setup {
  std::vector<SyntheticDataset> datasets;  // flights, taxi, police
  std::vector<Query> queries;              // Table 3 order
  double generate_s = 0;
  double index_s = 0;
  double total_s = 0;
};

HistSimParams PaperParams() {
  HistSimParams p;
  p.epsilon = 0.04;
  p.delta = 0.01;
  p.sigma = 0.0008;
  p.stage1_samples = 200000;
  return p;
}

/// Generates the three relations, builds one bitmap index per candidate
/// attribute and binds the nine queries (target resolution).
Setup MakeSetup() {
  Setup s;
  const double t0 = Now();
  s.datasets.push_back(MakeFlightsLike(kRows, kDatasetSeed));
  s.datasets.push_back(MakeTaxiLike(kRows, kDatasetSeed + 1));
  s.datasets.push_back(MakePoliceLike(kRows, kDatasetSeed + 2));
  s.generate_s = Now() - t0;

  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<const BitmapIndex>>
      indexes;
  for (const PaperQuery& spec : PaperQueries()) {
    const SyntheticDataset* ds = nullptr;
    for (const auto& d : s.datasets) {
      if (d.name == spec.dataset) ds = &d;
    }
    FASTMATCH_CHECK(ds != nullptr) << spec.dataset;
    auto& index = indexes[{spec.dataset, spec.z_attr}];
    if (index == nullptr) {
      const double ti = Now();
      auto built = BitmapIndex::Build(
          *ds->store, ds->store->schema().FindAttribute(spec.z_attr).value());
      FASTMATCH_CHECK(built.ok()) << built.status().ToString();
      index = std::move(built).value();
      s.index_s += Now() - ti;
    }
    auto prepared = PrepareQuery(*ds, spec, PaperParams(), index);
    FASTMATCH_CHECK(prepared.ok()) << spec.id << ": "
                                   << prepared.status().ToString();
    Query q;
    q.id = spec.id;
    q.bound = prepared->bound;
    q.bound.lookahead = 1024;
    q.x_attr = q.bound.x_attrs[0];
    s.queries.push_back(std::move(q));
  }
  s.total_s = Now() - t0;
  return s;
}

uint64_t ScanSeed(uint64_t seed, int round, size_t query) {
  return Mix(Mix(seed, 1000 + static_cast<uint64_t>(round)), query);
}

/// Checks recorded answers of queries[q] against the oracle.
void CheckAll(const Setup& s, const std::vector<std::pair<size_t, Recorded>>& recorded,
              RunReport* report) {
  std::vector<Oracle> oracles;
  for (const Query& q : s.queries) {
    oracles.push_back(Oracle::Count(*q.bound.store, q.bound.z_attr, q.x_attr,
                                    q.bound.store->num_rows()));
  }
  for (const auto& [q, rec] : recorded) {
    report->Add(Check(rec, oracles[q], s.queries[q].bound.target,
                      s.queries[q].bound.params));
  }
  report->CloseGuarantees(PaperParams().delta);
}

/// Forwards to the engine and times every sampling call.
class TimedSampler : public Sampler {
 public:
  explicit TimedSampler(Sampler* inner) : inner_(inner) {}
  int num_candidates() const override { return inner_->num_candidates(); }
  int num_groups() const override { return inner_->num_groups(); }
  int64_t total_rows() const override { return inner_->total_rows(); }
  int64_t SampleRows(int64_t m, CountMatrix* out) override {
    const double t0 = Now();
    const int64_t n = inner_->SampleRows(m, out);
    seconds_ += Now() - t0;
    return n;
  }
  void SampleUntilTargets(const std::vector<int64_t>& targets, CountMatrix* out,
                          std::vector<bool>* exhausted) override {
    const double t0 = Now();
    inner_->SampleUntilTargets(targets, out, exhausted);
    seconds_ += Now() - t0;
  }
  bool AllConsumed() const override { return inner_->AllConsumed(); }
  int64_t rows_consumed() const override { return inner_->rows_consumed(); }
  double seconds() const { return seconds_; }

 private:
  Sampler* inner_;
  double seconds_ = 0;
};

}  // namespace

RunReport RunInteractive(const Options& opt) {
  RunReport report;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};  // release the previous repetition's relations first
    s = MakeSetup();
    report.setup_seconds.push_back(s.total_s);
  }

  std::vector<std::pair<size_t, Recorded>> recorded;
  std::vector<std::vector<double>> per_query(s.queries.size());
  int64_t rows_read = 0, blocks_read = 0, rounds_stat = 0;
  auto run_round = [&](int round, bool timed) {
    for (size_t q = 0; q < s.queries.size(); ++q) {
      BoundQuery query = s.queries[q].bound;
      query.params.seed = ScanSeed(opt.seed, round, q);
      const double t0 = Now();
      Result<RunOutput> out = RunQuery(query, Approach::kFastMatch);
      const double t1 = Now();
      if (!timed) continue;
      report.phase.Add(t1 - t0);
      per_query[q].push_back(t1 - t0);
      if (out.ok()) {
        rows_read += out->stats.engine.rows_read;
        blocks_read += out->stats.engine.blocks_read;
        rounds_stat += out->stats.histsim.rounds;
      }
      recorded.emplace_back(q, Record(out.status(), out.ok() ? &out->match : nullptr));
    }
  };

  run_round(0, false);  // warm-up: page in the relations, start the pools
  report.phase.Start(opt.seconds);
  int rounds = 0;
  while (rounds == 0 || report.phase.Running()) {
    run_round(++rounds, true);
    report.phase.EndRound();
  }

  CheckAll(s, recorded, &report);
  const double n = static_cast<double>(report.phase.queries());
  report.work = {{"timed_rounds", rounds},
                 {"timed_queries", n},
                 {"rows_read", static_cast<double>(rows_read)},
                 {"blocks_read", static_cast<double>(blocks_read)},
                 {"rows_read_per_query", static_cast<double>(rows_read) / n},
                 {"histsim_rounds_per_query", static_cast<double>(rounds_stat) / n}};
  for (size_t q = 0; q < s.queries.size(); ++q) {
    report.work.emplace_back("p50_ms." + s.queries[q].id,
                             Median(per_query[q]) * 1e3);
  }
  return report;
}

void TraceInteractive(const Options& opt, RunReport* report) {
  const Setup s = MakeSetup();
  report->layers.push_back({"storage.generate_s", s.generate_s, "s"});
  report->layers.push_back({"index.build_s", s.index_s, "s"});

  // FastMatch exactly as RunQuery runs it, with the engine wrapped in a
  // forwarding sampler so HistSim's time splits into sampling and
  // statistics.
  std::vector<std::pair<size_t, Recorded>> recorded;
  double sample_s = 0, stats_s = 0, span_s = 0;
  int64_t rows = 0, blocks = 0, hs_rounds = 0, n = 0;
  std::vector<std::pair<size_t, uint64_t>> pairs;
  const double start = Now();
  for (int round = 1; round == 1 || Now() - start < opt.seconds / 2; ++round) {
    for (size_t q = 0; q < s.queries.size(); ++q) {
      const BoundQuery& bq = s.queries[q].bound;
      const uint64_t scan_seed = ScanSeed(opt.seed, round, q);
      pairs.emplace_back(q, scan_seed);
      const double t0 = Now();
      EngineOptions eo;
      eo.policy = BlockSelection::kAnyActiveLookahead;
      eo.lookahead = bq.lookahead;
      eo.seed = scan_seed;
      auto engine = SamplingEngine::Create(bq.store, bq.z_index, bq.z_attr,
                                           bq.x_attrs, eo);
      FASTMATCH_CHECK(engine.ok()) << engine.status().ToString();
      HistSimParams params = bq.params;
      params.seed = scan_seed;
      TimedSampler sampler(engine->get());
      HistSim histsim(params, bq.target);
      const double t1 = Now();
      Result<MatchResult> match = histsim.Run(&sampler);
      const double t2 = Now();
      span_s += t2 - t0;
      sample_s += sampler.seconds();
      stats_s += (t2 - t1) - sampler.seconds();
      rows += (*engine)->stats().rows_read;
      blocks += (*engine)->stats().blocks_read;
      if (match.ok()) hs_rounds += match->diag.rounds;
      ++n;
      recorded.emplace_back(q, Record(match.status(), match.ok() ? &*match : nullptr));
    }
  }
  const double wall = Now() - start;

  // SyncMatch on the same (query, seed) pairs: the lookahead's over-read.
  int64_t sync_rows = 0;
  for (const auto& [q, scan_seed] : pairs) {
    BoundQuery query = s.queries[q].bound;
    query.params.seed = scan_seed;
    auto out = RunQuery(query, Approach::kSyncMatch);
    if (out.ok()) sync_rows += out->stats.engine.rows_read;
  }

  const double dn = static_cast<double>(n);
  report->layers.push_back({"engine.sample_ms_per_query", sample_s / dn * 1e3, "ms"});
  report->layers.push_back({"core.stats_ms_per_query", stats_s / dn * 1e3, "ms"});
  report->layers.push_back({"core.rounds_per_query", static_cast<double>(hs_rounds) / dn, "rounds"});
  report->layers.push_back({"engine.rows_read_per_query", static_cast<double>(rows) / dn, "rows"});
  report->layers.push_back({"engine.blocks_read_per_query", static_cast<double>(blocks) / dn, "blocks"});
  report->layers.push_back({"engine.lookahead_row_ratio",
                            static_cast<double>(rows) / static_cast<double>(sync_rows), "ratio"});
  // flights-q4 is Origin x Dest (|VX| = 351).
  report->layers.push_back({"kernel.mrows_per_s.wide",
                            KernelMrowsPerSecond(s.queries[3].bound.store,
                                                 s.queries[3].bound.z_attr,
                                                 s.queries[3].x_attr),
                            "Mrows/s"});
  char line[256];
  std::snprintf(line, sizeof(line),
                "interactive: layer spans cover %.1f%% of the traced wall "
                "(%.2f ms/query traced, %lld queries)",
                100.0 * span_s / wall, wall / dn * 1e3, static_cast<long long>(n));
  report->notes.push_back(line);

  // Reference figures: the Table-4 shape, three scan seeds per query.
  report->notes.push_back("reference (median of 3 seeds): query  approach  ms  rows_read");
  for (size_t q = 0; q < s.queries.size(); ++q) {
    for (Approach a : {Approach::kScan, Approach::kScanMatch, Approach::kSyncMatch,
                       Approach::kFastMatch}) {
      std::vector<double> ms, rows_read;
      for (int rep = 0; rep < 3; ++rep) {
        BoundQuery query = s.queries[q].bound;
        query.params.seed = ScanSeed(opt.seed, 100000 + rep, q);
        const double t0 = Now();
        auto out = RunQuery(query, a);
        ms.push_back((Now() - t0) * 1e3);
        rows_read.push_back(out.ok() ? static_cast<double>(out->stats.engine.rows_read) : 0);
      }
      std::snprintf(line, sizeof(line), "reference %-11s %-9s %8.2f %10.0f",
                    s.queries[q].id.c_str(), std::string(ApproachName(a)).c_str(),
                    Median(ms), Median(rows_read));
      report->notes.push_back(line);
    }
  }

  CheckAll(s, recorded, report);
}

}  // namespace perfbench
