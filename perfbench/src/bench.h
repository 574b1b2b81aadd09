// Shared pieces of the FastMatch benchmark driver: clocks and process
// counters, the independent correctness oracle, result recording and
// checking, and the per-run report every workload fills in.
//
// The oracle deliberately re-derives everything from the store's
// columns with a plain loop. It never calls ComputeExactCounts or
// CheckGuarantees, so a fault in those cannot hide a fault in the
// query path.

#ifndef FASTMATCH_PERFBENCH_BENCH_H_
#define FASTMATCH_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/histogram.h"
#include "core/histsim.h"
#include "core/params.h"
#include "storage/column_store.h"
#include "util/status.h"

namespace perfbench {

using fastmatch::ColumnStore;
using fastmatch::Distribution;
using fastmatch::HistSimParams;
using fastmatch::MatchResult;
using fastmatch::Status;
using fastmatch::Value;

// ------------------------------------------------------------- clocks

/// Seconds on the steady clock.
double Now();
/// User + system CPU seconds of this process (getrusage).
double CpuSeconds();
/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double PeakRssMiB();

/// SplitMix64 of (seed, salt): every input the benchmark makes is
/// derived from the workload seed through this.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// ------------------------------------------------------------- oracle

/// Exact per-candidate counts of one (Z, X) template, counted by the
/// benchmark itself.
struct Oracle {
  int vz = 0;
  int vx = 0;
  std::vector<int64_t> cells;   // vz * vx, candidate-major
  std::vector<int64_t> totals;  // vz
  int64_t rows = 0;

  /// Counts rows [0, rows) of `store` with a plain loop over the
  /// columns (Column::Get).
  static Oracle Count(const ColumnStore& store, int z_attr, int x_attr,
                      int64_t rows);
  /// Adds rows the benchmark generated itself (one vector per column).
  void Add(const std::vector<Value>& z, const std::vector<Value>& x);

  /// l1 distance of candidate c's normalized row to `target`; 2 (the
  /// l1 maximum) for an empty candidate.
  double Distance(int c, const Distribution& target) const;
};

/// What the checks need from one answered query, kept small so that
/// hundreds of results can be held until the timed phase ends.
struct Recorded {
  bool ok = false;
  std::string status;
  std::vector<int> topk;
  /// Count rows of the top-k candidates, in topk order (k * vx).
  std::vector<int64_t> topk_rows;
  /// (candidate, FNV-1a of its count row) for every candidate the
  /// result marks exact.
  std::vector<std::pair<int, uint64_t>> exact_digests;
  int num_candidates = 0;
  int num_groups = 0;
};

Recorded Record(const Status& status, const MatchResult* match);

/// One query's verdict against the oracle.
struct Verdict {
  bool failed = false;  // status, ids, or exact counts wrong
  bool miss = false;    // guarantee 1 or 2 missed (allowed w.p. delta)
  std::string why;
};

Verdict Check(const Recorded& r, const Oracle& oracle,
              const Distribution& target, const HistSimParams& params);

/// Smallest x with P[Binomial(n, p) <= x] >= 1 - tail.
int64_t BinomialUpper(int64_t n, double p, double tail);

// -------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// End-to-end timing figures of a stretch of the timed phase.
struct Figures {
  double p50_ms = 0;
  double p95_ms = 0;
  double qps = 0;
  double cpu_ms = 0;  // process CPU per query
  int64_t queries = 0;
};

/// The timed phase of an untraced run, recorded round by round (a
/// round is the workload's unit of repetition). The phase is cut into
/// kSegments stretches of equal length at round ends; every figure is
/// computed per stretch and reported as the median over stretches, so
/// that a few seconds of host slowdown move it less than a whole-run
/// mean would.
class TimedPhase {
 public:
  static constexpr int kSegments = 5;

  /// Starts the clocks; the phase lasts `seconds`.
  void Start(double seconds);
  /// True until `seconds` have passed (checked between rounds).
  bool Running() const;
  void Add(double latency_seconds) { latencies_.push_back(latency_seconds); }
  /// Marks the end of a round: its time and the process CPU time.
  void EndRound();

  int64_t queries() const { return static_cast<int64_t>(latencies_.size()); }
  std::vector<Figures> Segments() const;
  /// Per-figure median over Segments().
  Figures Summary() const;

 private:
  double seconds_ = 0;
  double start_ = 0;
  double cpu0_ = 0;
  std::vector<double> latencies_;
  std::vector<size_t> round_ends_;  // latencies_.size() at each round end
  std::vector<double> round_time_;
  std::vector<double> round_cpu_;
};

/// Everything one workload run produces.
struct RunReport {
  // Untraced end-to-end inputs.
  std::vector<double> setup_seconds;  // one per set-up repetition
  TimedPhase phase;
  // Operations and correctness.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t checked = 0;    // queries checked for guarantees
  int64_t misses = 0;     // guarantee misses among them
  int64_t allowed = 0;    // Binomial(checked, delta) upper quantile
  int64_t pass_checked = 0;  // since the last CloseGuarantees
  int64_t pass_misses = 0;
  bool correct = true;
  std::vector<std::string> problems;
  // Work record (printed, never gated) and traced per-layer metrics.
  std::vector<std::pair<std::string, double>> work;
  std::vector<Metric> layers;
  std::vector<std::string> notes;

  /// Folds one verdict into the counts (one query = one operation).
  void Add(const Verdict& v);
  /// Applies the Binomial bound to the misses of the queries added
  /// since the last call, all run at `delta`.
  void CloseGuarantees(double delta);
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Rows per relation: the scale where sampling's trade-off exists.
inline constexpr int64_t kRows = 10000000;
/// Generator seed of the flights stand-in; taxi, police and the refresh
/// relation use +1, +2 and +3/+4. Like the paper's datasets the
/// relations are fixed; the workload seed drives the per-run randomness
/// of the protocol (scan start positions, query targets, appended rows).
inline constexpr uint64_t kDatasetSeed = 20180501;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Million rows per second of one-thread IoManager::ReadBlocks over
/// every block of (z_attr, x_attr); the median of three passes.
double KernelMrowsPerSecond(std::shared_ptr<const ColumnStore> store, int z_attr,
                            int x_attr);

// Workloads (untraced runs).
RunReport RunInteractive(const Options& opt);
RunReport RunDashboard(const Options& opt);
RunReport RunRefresh(const Options& opt);

// Traced passes: per-layer metrics of the layers on the workload's
// path, timed around calls into each layer's public functions from this
// benchmark's code.
void TraceInteractive(const Options& opt, RunReport* report);
void TraceDashboard(const Options& opt, RunReport* report);
void TraceRefresh(const Options& opt, RunReport* report);

}  // namespace perfbench

#endif  // FASTMATCH_PERFBENCH_BENCH_H_
