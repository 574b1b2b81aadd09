#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.h"
#include "engine/io_manager.h"
#include "util/logging.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void TimedPhase::Start(double seconds) {
  seconds_ = seconds;
  cpu0_ = CpuSeconds();
  start_ = Now();
}

bool TimedPhase::Running() const { return Now() - start_ < seconds_; }

void TimedPhase::EndRound() {
  round_time_.push_back(Now());
  round_cpu_.push_back(CpuSeconds());
  round_ends_.push_back(latencies_.size());
}

std::vector<Figures> TimedPhase::Segments() const {
  std::vector<Figures> out;
  size_t r = 0, first_sample = 0;
  double t0 = start_, c0 = cpu0_;
  for (int k = 1; k <= kSegments && r < round_ends_.size(); ++k) {
    // The stretch ends with the last round that ended by its boundary;
    // the final stretch takes every remaining round.
    const double boundary = start_ + seconds_ * k / kSegments;
    size_t last = r;
    while (last + 1 < round_ends_.size() &&
           (k == kSegments || round_time_[last + 1] <= boundary)) {
      ++last;
    }
    if (round_time_[last] > boundary && k < kSegments) continue;
    const std::vector<double> samples(latencies_.begin() + static_cast<long>(first_sample),
                                      latencies_.begin() + static_cast<long>(round_ends_[last]));
    Figures f;
    f.queries = static_cast<int64_t>(samples.size());
    const double wall = round_time_[last] - t0;
    if (f.queries > 0 && wall > 0) {
      f.p50_ms = Percentile(samples, 0.50) * 1e3;
      f.p95_ms = Percentile(samples, 0.95) * 1e3;
      f.qps = static_cast<double>(f.queries) / wall;
      f.cpu_ms = (round_cpu_[last] - c0) / static_cast<double>(f.queries) * 1e3;
      out.push_back(f);
    }
    first_sample = round_ends_[last];
    t0 = round_time_[last];
    c0 = round_cpu_[last];
    r = last + 1;
  }
  return out;
}

Figures TimedPhase::Summary() const {
  const std::vector<Figures> segments = Segments();
  std::vector<double> p50, p95, qps, cpu;
  for (const Figures& s : segments) {
    p50.push_back(s.p50_ms);
    p95.push_back(s.p95_ms);
    qps.push_back(s.qps);
    cpu.push_back(s.cpu_ms);
  }
  Figures f;
  f.queries = queries();
  f.p50_ms = Median(p50);
  f.p95_ms = Median(p95);
  f.qps = Median(qps);
  f.cpu_ms = Median(cpu);
  return f;
}

double KernelMrowsPerSecond(std::shared_ptr<const ColumnStore> store, int z_attr,
                            int x_attr) {
  auto io = fastmatch::IoManager::Create(std::move(store), z_attr, {x_attr});
  FASTMATCH_CHECK(io.ok()) << io.status().ToString();
  std::vector<fastmatch::BlockId> blocks(static_cast<size_t>((*io)->pin().num_blocks));
  for (size_t b = 0; b < blocks.size(); ++b) blocks[b] = static_cast<fastmatch::BlockId>(b);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    fastmatch::CountMatrix shard((*io)->num_candidates(), (*io)->num_groups());
    const double t0 = Now();
    const int64_t rows = (*io)->ReadBlocks(blocks, 0, blocks.size(), &shard);
    rates.push_back(static_cast<double>(rows) / (Now() - t0) / 1e6);
  }
  return Median(rates);
}

// ------------------------------------------------------------- oracle

Oracle Oracle::Count(const ColumnStore& store, int z_attr, int x_attr,
                     int64_t rows) {
  Oracle o;
  o.vz = static_cast<int>(store.schema().attribute(z_attr).cardinality);
  o.vx = static_cast<int>(store.schema().attribute(x_attr).cardinality);
  o.cells.assign(static_cast<size_t>(o.vz) * o.vx, 0);
  o.totals.assign(o.vz, 0);
  const fastmatch::Column& zc = store.column(z_attr);
  const fastmatch::Column& xc = store.column(x_attr);
  for (int64_t r = 0; r < rows; ++r) {
    const Value z = zc.Get(r);
    ++o.cells[static_cast<size_t>(z) * o.vx + xc.Get(r)];
    ++o.totals[z];
  }
  o.rows = rows;
  return o;
}

void Oracle::Add(const std::vector<Value>& z, const std::vector<Value>& x) {
  for (size_t r = 0; r < z.size(); ++r) {
    ++cells[static_cast<size_t>(z[r]) * vx + x[r]];
    ++totals[z[r]];
  }
  rows += static_cast<int64_t>(z.size());
}

double Oracle::Distance(int c, const Distribution& target) const {
  if (totals[c] == 0) return 2.0;
  const double n = static_cast<double>(totals[c]);
  double d = 0;
  for (int g = 0; g < vx; ++g) {
    d += std::fabs(static_cast<double>(cells[static_cast<size_t>(c) * vx + g]) / n -
                   target[g]);
  }
  return d;
}

namespace {

uint64_t Fnv(const int64_t* data, int n) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < n; ++i) {
    h ^= static_cast<uint64_t>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Recorded Record(const Status& status, const MatchResult* match) {
  Recorded r;
  r.ok = status.ok();
  if (!r.ok || match == nullptr) {
    r.status = status.ToString();
    r.ok = false;
    return r;
  }
  const fastmatch::CountMatrix& counts = match->counts;
  r.num_candidates = counts.num_candidates();
  r.num_groups = counts.num_groups();
  r.topk = match->topk;
  for (int c : r.topk) {
    if (c < 0 || c >= r.num_candidates) continue;  // reported by Check
    auto row = counts.Row(c);
    r.topk_rows.insert(r.topk_rows.end(), row.begin(), row.end());
  }
  for (size_t c = 0; c < match->exact.size(); ++c) {
    if (!match->exact[c]) continue;
    auto row = counts.Row(static_cast<int>(c));
    r.exact_digests.emplace_back(static_cast<int>(c),
                                 Fnv(row.data(), r.num_groups));
  }
  return r;
}

Verdict Check(const Recorded& r, const Oracle& oracle,
              const Distribution& target, const HistSimParams& params) {
  Verdict v;
  if (!r.ok) {
    v.failed = true;
    v.why = "status " + r.status;
    return v;
  }
  if (r.num_candidates != oracle.vz || r.num_groups != oracle.vx) {
    v.failed = true;
    v.why = "result shape differs from the relation's domain";
    return v;
  }
  std::vector<bool> in_output(oracle.vz, false);
  for (int c : r.topk) {
    if (c < 0 || c >= oracle.vz || in_output[c]) {
      v.failed = true;
      v.why = "top-k ids not distinct or out of range";
      return v;
    }
    in_output[c] = true;
  }
  for (const auto& [c, digest] : r.exact_digests) {
    if (digest != Fnv(oracle.cells.data() + static_cast<size_t>(c) * oracle.vx,
                      oracle.vx)) {
      v.failed = true;
      v.why = "candidate " + std::to_string(c) +
              " is marked exact but its counts differ from the oracle";
      return v;
    }
  }

  // Guarantee 1: no sigma-eligible non-output candidate is eps closer to
  // the target than the furthest output (true distances).
  const double min_rows = params.sigma * static_cast<double>(oracle.rows);
  double furthest = 0;
  for (int c : r.topk) furthest = std::max(furthest, oracle.Distance(c, target));
  bool g1 = true;
  for (int c = 0; c < oracle.vz && g1; ++c) {
    if (in_output[c] || static_cast<double>(oracle.totals[c]) < min_rows) {
      continue;
    }
    g1 = furthest - oracle.Distance(c, target) < params.SeparationEps();
  }
  // Guarantee 2: every output's estimated histogram is within eps of its
  // true histogram.
  bool g2 = true;
  for (size_t i = 0; i < r.topk.size() && g2; ++i) {
    const int c = r.topk[i];
    const int64_t* est = r.topk_rows.data() + i * oracle.vx;
    int64_t est_n = 0;
    for (int g = 0; g < oracle.vx; ++g) est_n += est[g];
    const int64_t tru_n = oracle.totals[c];
    if (est_n == 0 || tru_n == 0) {
      g2 = est_n == 0 && tru_n == 0;
      continue;
    }
    double err = 0;
    for (int g = 0; g < oracle.vx; ++g) {
      err += std::fabs(
          static_cast<double>(est[g]) / static_cast<double>(est_n) -
          static_cast<double>(oracle.cells[static_cast<size_t>(c) * oracle.vx + g]) /
              static_cast<double>(tru_n));
    }
    g2 = err < params.ReconstructionEps();
  }
  v.miss = !g1 || !g2;
  if (v.miss) v.why = !g1 ? "guarantee 1 (separation)" : "guarantee 2 (reconstruction)";
  return v;
}

int64_t BinomialUpper(int64_t n, double p, double tail) {
  // Sum the pmf upward in log space until the upper tail is below `tail`.
  double cdf = 0;
  for (int64_t x = 0; x <= n; ++x) {
    const double log_pmf =
        std::lgamma(static_cast<double>(n) + 1) -
        std::lgamma(static_cast<double>(x) + 1) -
        std::lgamma(static_cast<double>(n - x) + 1) +
        static_cast<double>(x) * std::log(p) +
        static_cast<double>(n - x) * std::log1p(-p);
    cdf += std::exp(log_pmf);
    if (cdf >= 1.0 - tail) return x;
  }
  return n;
}

void RunReport::Add(const Verdict& v) {
  ++attempted;
  if (v.failed) {
    ++failed;
    if (problems.size() < 5) problems.push_back(v.why);
    return;
  }
  ++pass_checked;
  if (v.miss) ++pass_misses;
}

void RunReport::CloseGuarantees(double delta) {
  const int64_t bound = BinomialUpper(pass_checked, delta, 1e-6);
  if (pass_misses > bound) {
    correct = false;
    problems.push_back("guarantee misses " + std::to_string(pass_misses) +
                       " of " + std::to_string(pass_checked) +
                       " exceed the Binomial bound " + std::to_string(bound));
  }
  checked += pass_checked;
  misses += pass_misses;
  allowed += bound;
  pass_checked = pass_misses = 0;
}

}  // namespace perfbench
