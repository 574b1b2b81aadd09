#include "service/stage1_revalidator.h"

#include <algorithm>
#include <cmath>

#include "stats/hypergeometric.h"
#include "util/random.h"

namespace fastmatch {

Result<RevalidationReport> RevalidateStage1(
    std::shared_ptr<const ColumnStore> store, int z_attr,
    const std::vector<int>& x_attrs, const Stage1Snapshot& prior,
    uint64_t generation, const RevalidatorOptions& options) {
  if (store == nullptr) {
    return Status::InvalidArgument("RevalidateStage1: store is null");
  }
  if (prior.rows_drawn <= 0) {
    return Status::InvalidArgument(
        "RevalidateStage1: prior has no rows (nothing to test against)");
  }
  if (options.sample_rows <= 0) {
    return Status::InvalidArgument(
        "RevalidateStage1: sample_rows must be positive");
  }
  if (options.delta <= 0 || options.delta >= 1) {
    return Status::InvalidArgument(
        "RevalidateStage1: delta must lie in (0, 1)");
  }
  const Schema& schema = store->schema();
  if (z_attr < 0 || z_attr >= schema.num_attributes()) {
    return Status::InvalidArgument("RevalidateStage1: z_attr out of range");
  }
  for (int a : x_attrs) {
    if (a < 0 || a >= schema.num_attributes()) {
      return Status::InvalidArgument("RevalidateStage1: x_attr out of range");
    }
  }
  const int num_candidates =
      static_cast<int>(schema.attribute(z_attr).cardinality);
  if (num_candidates != prior.counts.num_candidates()) {
    return Status::InvalidArgument(
        "RevalidateStage1: prior candidate count does not match the store's "
        "z-attribute cardinality");
  }
  FASTMATCH_ASSIGN_OR_RETURN(StoreView view, store->PinViewAt(generation));
  const int64_t total_rows = view.pin().num_rows;
  if (total_rows <= 0) {
    return Status::FailedPrecondition(
        "RevalidateStage1: pinned generation is empty");
  }

  // Draw s distinct uniform row ids over the pinned rows with Floyd's
  // algorithm: O(s) whatever the relation's size, with membership in an
  // open-addressing table of at least 2s slots. Rows, not blocks:
  // appended rows are shuffled only within their own batch, so a block
  // of appended rows is not a uniform sample of the relation. The seed
  // mixes in the generation so successive generations draw different
  // rows. The ids are read in draw order: sorting them for locality
  // costs more than the cache misses it saves.
  const int64_t s = std::min(options.sample_rows, total_rows);
  uint64_t mix = options.seed ^ generation;
  Rng rng(SplitMix64(&mix));
  int bits = 1;
  while ((int64_t{1} << bits) < 2 * s) ++bits;
  std::vector<RowId> slots(size_t{1} << bits, -1);
  std::vector<int64_t> fresh(static_cast<size_t>(num_candidates), 0);
  // Counts `row` unless it was drawn already; returns whether it was new.
  const auto draw = [&](RowId row) {
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(row) * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
    for (; slots[i] != -1; i = (i + 1) & (slots.size() - 1)) {
      if (slots[i] == row) return false;
    }
    slots[i] = row;
    ++fresh[static_cast<size_t>(view.Get(z_attr, row))];
    return true;
  };
  for (RowId j = total_rows - s; j < total_rows; ++j) {
    if (!draw(static_cast<RowId>(rng.Uniform(static_cast<uint64_t>(j) + 1)))) {
      draw(j);
    }
  }
  RevalidationReport report;
  report.fresh_rows = s;

  // Per-candidate two-sided hypergeometric test of the prior's marginal
  // against the fresh draw. N = pinned rows, K_c = the prior's implied
  // candidate total at this generation, s = fresh sample size.
  const double bonferroni =
      options.delta / static_cast<double>(std::max(num_candidates, 1));
  for (int c = 0; c < num_candidates; ++c) {
    const double p_c = static_cast<double>(prior.counts.RowTotal(c)) /
                       static_cast<double>(prior.rows_drawn);
    const int64_t k = std::clamp<int64_t>(
        std::llround(p_c * static_cast<double>(total_rows)), 0, total_rows);
    const int64_t f = fresh[static_cast<size_t>(c)];
    const double lower = HypergeomCdf(f, total_rows, k, s);
    // P(X >= f) = 1 - P(X <= f) + P(X = f): one O(f) CDF pass serves
    // both tails.
    const double upper = 1.0 - lower + HypergeomPmf(f, total_rows, k, s);
    const double p_value = std::min(1.0, 2.0 * std::min(lower, upper));
    if (p_value < report.min_p_value) {
      report.min_p_value = p_value;
      report.worst_candidate = c;
    }
    if (p_value < bonferroni) {
      report.verdict = RevalidationVerdict::kDrifting;
    }
  }
  return report;
}

}  // namespace fastmatch
