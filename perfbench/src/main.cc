// FastMatch benchmark driver.
//
//   fm_perfbench --workload interactive|dashboard|refresh --seed N
//                --seconds S --trace 0|1
//
// --trace 0 runs one workload untraced and reports the end-to-end
// metrics. --trace 1 runs the workload's traced pass and reports the
// per-layer metrics measured on it (run.py merges the traced passes of
// all three workloads). Human-readable lines go first; the last line of
// standard output is one JSON object.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "fm_perfbench: %s\nusage: fm_perfbench --workload "
               "interactive|dashboard|refresh --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  bool has_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      has_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (!(opt.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      opt.trace = std::strtol(value, &end, 10) != 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (!has_workload) Usage("--workload is required");
  if (opt.workload != "interactive" && opt.workload != "dashboard" &&
      opt.workload != "refresh") {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  return opt;
}

void PrintMetric(bool* first, const std::string& name, double value,
                 const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", *first ? "" : ", ",
              name.c_str(), value, unit.c_str());
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  RunReport report;
  if (opt.trace) {
    if (opt.workload == "interactive") TraceInteractive(opt, &report);
    if (opt.workload == "dashboard") TraceDashboard(opt, &report);
    if (opt.workload == "refresh") TraceRefresh(opt, &report);
  } else if (opt.workload == "interactive") {
    report = RunInteractive(opt);
  } else if (opt.workload == "dashboard") {
    report = RunDashboard(opt);
  } else {
    report = RunRefresh(opt);
  }

  std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& [name, value] : report.work) {
    std::printf("work %s %.17g\n", name.c_str(), value);
  }
  for (double s : report.setup_seconds) std::printf("setup_rep_s %.4f\n", s);
  for (const Figures& f : report.phase.Segments()) {
    std::printf("segment queries %lld p50_ms %.4f p95_ms %.4f qps %.3f cpu_ms %.4f\n",
                static_cast<long long>(f.queries), f.p50_ms, f.p95_ms, f.qps, f.cpu_ms);
  }
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  std::printf("checked %lld queries: %lld guarantee misses (bound %lld), "
              "%lld of %lld operations failed\n",
              static_cast<long long>(report.checked), static_cast<long long>(report.misses),
              static_cast<long long>(report.allowed), static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  for (const std::string& p : report.problems) std::printf("problem: %s\n", p.c_str());
  if (report.attempted < 1) {
    report.correct = false;
    std::printf("problem: no operation attempted\n");
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  bool first = true;
  if (opt.trace) {
    for (const Metric& m : report.layers) PrintMetric(&first, m.name, m.value, m.unit);
  } else {
    const Figures f = report.phase.Summary();
    PrintMetric(&first, "latency_p50_ms", f.p50_ms, "ms");
    PrintMetric(&first, "latency_p95_ms", f.p95_ms, "ms");
    PrintMetric(&first, "throughput_qps", f.qps, "1/s");
    PrintMetric(&first, "cpu_ms_per_query", f.cpu_ms, "ms");
    PrintMetric(&first, "setup_s", Median(report.setup_seconds), "s");
    PrintMetric(&first, "peak_rss_mb", PeakRssMiB(), "MiB");
  }
  std::printf("}}\n");
  return 0;
}
