// Scan kernel microbench: scalar vs AVX2 rows/s for every typed
// (z, x) ValueType pair and the generic multi-attribute path, at the
// block granularity the engine actually scans. Every timed pass is
// also a correctness pass — the two kernels' CountMatrix contents and
// tallies are compared cell for cell, and any difference counts as a
// guarantee violation (must be 0).
//
// Scale knobs: FASTMATCH_ROWS (rows per measured pass, default 200000
// from run_benches.sh; 0/absent means 8M), FASTMATCH_RUNS (timed
// repetitions, default 2).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "engine/scan_kernel.h"

namespace fastmatch {
namespace {

struct Shape {
  const char* name;
  ValueType z_type;
  ValueType x_type;
  int cands;
  int groups;
};

int64_t EnvRows() {
  const char* s = std::getenv("FASTMATCH_ROWS");
  const int64_t v = (s != nullptr && *s != '\0') ? std::atoll(s) : 0;
  return v > 0 ? v : 8000000;
}

int EnvRuns() {
  const char* s = std::getenv("FASTMATCH_RUNS");
  const int v = (s != nullptr && *s != '\0') ? std::atoi(s) : 0;
  return v > 0 ? v : 2;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<uint8_t> RandomColumn(int64_t rows, ValueType type, uint32_t bound,
                                  uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> bytes(static_cast<size_t>(rows) * ValueWidth(type));
  for (int64_t r = 0; r < rows; ++r) {
    const uint32_t v = static_cast<uint32_t>(rng() % bound);
    std::memcpy(bytes.data() + r * ValueWidth(type), &v,
                static_cast<size_t>(ValueWidth(type)));
  }
  return bytes;
}

int violations = 0;

void Compare(const CountMatrix& scalar, const CountMatrix& simd) {
  for (int c = 0; c < scalar.num_candidates(); ++c) {
    if (scalar.RowTotal(c) != simd.RowTotal(c)) ++violations;
    for (int g = 0; g < scalar.num_groups(); ++g) {
      if (scalar.At(c, g) != simd.At(c, g)) ++violations;
    }
  }
}

/// One timed sweep over `rows` in engine-sized blocks. simd=false runs
/// the scalar reference through the same dispatch surface.
template <typename Fn>
double TimedPass(int64_t rows, int64_t block_rows, CountMatrix* out,
                 const Fn& scan_block) {
  out->Reset();
  const double start = Now();
  for (int64_t base = 0; base < rows; base += block_rows) {
    scan_block(base, std::min(block_rows, rows - base));
  }
  return Now() - start;
}

void BenchTyped(const Shape& s, int64_t rows, int64_t block_rows, int runs) {
  const auto z = RandomColumn(rows, s.z_type,
                              static_cast<uint32_t>(s.cands), 1);
  const auto x = RandomColumn(rows, s.x_type,
                              static_cast<uint32_t>(s.groups), 2);
  CountMatrix scalar_m(s.cands, s.groups), simd_m(s.cands, s.groups);

  // Typed pairs go through the real 3x3 typed kernels, not the generic
  // path — mirror IoManager::ReadBlockTyped's pointer dispatch.
  auto run_typed = [&](bool simd, int64_t base, int64_t n, CountMatrix* out) {
    const uint8_t* zp = z.data() + base * ValueWidth(s.z_type);
    const uint8_t* xp = x.data() + base * ValueWidth(s.x_type);
    auto dispatch = [&](auto zv, auto xv) {
      using ZT = decltype(zv);
      using XT = decltype(xv);
      if (simd) {
        if (!ScanBlockSimd(reinterpret_cast<const ZT*>(zp),
                           reinterpret_cast<const XT*>(xp), n, out)) {
          ++violations;
        }
      } else {
        ScanBlockScalar(reinterpret_cast<const ZT*>(zp),
                        reinterpret_cast<const XT*>(xp), n, out);
      }
    };
    switch (s.z_type) {
      case ValueType::kU8:
        switch (s.x_type) {
          case ValueType::kU8: dispatch(uint8_t{}, uint8_t{}); break;
          case ValueType::kU16: dispatch(uint8_t{}, uint16_t{}); break;
          case ValueType::kU32: dispatch(uint8_t{}, uint32_t{}); break;
        }
        break;
      case ValueType::kU16:
        switch (s.x_type) {
          case ValueType::kU8: dispatch(uint16_t{}, uint8_t{}); break;
          case ValueType::kU16: dispatch(uint16_t{}, uint16_t{}); break;
          case ValueType::kU32: dispatch(uint16_t{}, uint32_t{}); break;
        }
        break;
      case ValueType::kU32:
        switch (s.x_type) {
          case ValueType::kU8: dispatch(uint32_t{}, uint8_t{}); break;
          case ValueType::kU16: dispatch(uint32_t{}, uint16_t{}); break;
          case ValueType::kU32: dispatch(uint32_t{}, uint32_t{}); break;
        }
        break;
    }
  };

  double scalar_best = 1e30, simd_best = 1e30;
  for (int r = 0; r < runs; ++r) {
    scalar_best = std::min(
        scalar_best,
        TimedPass(rows, block_rows, &scalar_m, [&](int64_t base, int64_t n) {
          run_typed(false, base, n, &scalar_m);
        }));
    simd_best = std::min(
        simd_best,
        TimedPass(rows, block_rows, &simd_m, [&](int64_t base, int64_t n) {
          run_typed(true, base, n, &simd_m);
        }));
    Compare(scalar_m, simd_m);
  }
  const double scalar_rps = static_cast<double>(rows) / scalar_best;
  const double simd_rps = static_cast<double>(rows) / simd_best;
  std::printf("%-14s %5d x %-6d %12.1f %12.1f %9.2fx\n", s.name, s.cands,
              s.groups, scalar_rps / 1e6, simd_rps / 1e6,
              simd_rps / scalar_rps);
}

void BenchGeneric(int64_t rows, int64_t block_rows, int runs) {
  const int cands = 200;
  const int cards[2] = {12, 24};
  const int groups = cards[0] * cards[1];
  const auto z = RandomColumn(rows, ValueType::kU8,
                              static_cast<uint32_t>(cands), 3);
  const auto x0 = RandomColumn(rows, ValueType::kU8,
                               static_cast<uint32_t>(cards[0]), 4);
  const auto x1 = RandomColumn(rows, ValueType::kU16,
                               static_cast<uint32_t>(cards[1]), 5);
  CountMatrix scalar_m(cands, groups), simd_m(cands, groups);

  auto run = [&](bool simd, int64_t base, int64_t n, CountMatrix* out) {
    const ScanColumn zc{z.data() + base, ValueType::kU8, cands};
    const ScanColumn xs[2] = {
        {x0.data() + base, ValueType::kU8, cards[0]},
        {x1.data() + base * 2, ValueType::kU16, cards[1]}};
    if (simd) {
      if (!ScanBlockGenericSimd(zc, xs, 2, n, out)) ++violations;
    } else {
      ScanBlockGenericScalar(zc, xs, 2, n, out);
    }
  };

  double scalar_best = 1e30, simd_best = 1e30;
  for (int r = 0; r < runs; ++r) {
    scalar_best = std::min(
        scalar_best,
        TimedPass(rows, block_rows, &scalar_m, [&](int64_t base, int64_t n) {
          run(false, base, n, &scalar_m);
        }));
    simd_best = std::min(
        simd_best,
        TimedPass(rows, block_rows, &simd_m, [&](int64_t base, int64_t n) {
          run(true, base, n, &simd_m);
        }));
    Compare(scalar_m, simd_m);
  }
  const double scalar_rps = static_cast<double>(rows) / scalar_best;
  const double simd_rps = static_cast<double>(rows) / simd_best;
  std::printf("%-14s %5d x %-6d %12.1f %12.1f %9.2fx\n",
              "generic u8+u16", cands, groups, scalar_rps / 1e6,
              simd_rps / 1e6, simd_rps / scalar_rps);
}

int Main() {
  const int64_t rows = EnvRows();
  const int runs = EnvRuns();
  const int64_t block_rows = 8192;  // engine-scale block granularity

  std::printf(
      "================================================================\n"
      "Scan kernel: scalar vs %s (single thread)\n"
      "rows/pass=%" PRId64 "  block=%" PRId64 "  runs=%d  simd_compiled=%d"
      "  simd_supported=%d\n"
      "================================================================\n",
      ScanKernelName(), rows, block_rows, runs,
      ScanKernelSimdCompiled() ? 1 : 0, ScanKernelSimdSupported() ? 1 : 0);

  if (!ScanKernelSimdSupported()) {
    std::printf("AVX2 unavailable: nothing to compare, exiting clean.\n");
    std::printf("guarantee violations: 0 (must be 0)\n");
    return 0;
  }

  std::printf("%-14s %5s   %-6s %12s %12s %9s\n", "pair", "|VZ|", "|VX|",
              "scalar Mr/s", "simd Mr/s", "speedup");

  // Sub-histogram domains (cells <= 2048): the paper-typical shape.
  BenchTyped({"u8/u8", ValueType::kU8, ValueType::kU8, 16, 8}, rows,
             block_rows, runs);
  BenchTyped({"u8/u16", ValueType::kU8, ValueType::kU16, 16, 96}, rows,
             block_rows, runs);
  BenchTyped({"u8/u32", ValueType::kU8, ValueType::kU32, 8, 250}, rows,
             block_rows, runs);
  BenchTyped({"u16/u8", ValueType::kU16, ValueType::kU8, 200, 8}, rows,
             block_rows, runs);
  BenchTyped({"u16/u16", ValueType::kU16, ValueType::kU16, 100, 20}, rows,
             block_rows, runs);
  BenchTyped({"u16/u32", ValueType::kU16, ValueType::kU32, 64, 30}, rows,
             block_rows, runs);
  BenchTyped({"u32/u8", ValueType::kU32, ValueType::kU8, 128, 16}, rows,
             block_rows, runs);
  BenchTyped({"u32/u16", ValueType::kU32, ValueType::kU16, 64, 32}, rows,
             block_rows, runs);
  BenchTyped({"u32/u32", ValueType::kU32, ValueType::kU32, 32, 64}, rows,
             block_rows, runs);
  // Direct-add domain (cells > 2048): the wide-histogram fallback.
  BenchTyped({"u16/u16 wide", ValueType::kU16, ValueType::kU16, 500, 400},
             rows, block_rows, runs);
  BenchGeneric(rows, block_rows, runs);

  std::printf("\nguarantee violations: %d (must be 0)\n", violations);
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fastmatch

int main() { return fastmatch::Main(); }
