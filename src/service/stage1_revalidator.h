// Drift revalidation for generation-stale stage-1 priors.
//
// A Stage1Cache entry drawn at generation g describes a uniform sample
// of the generation-g prefix. When a querier pins generation g' > g,
// the appended rows may have shifted the candidate marginals; serving
// the old prior unexamined would bias every downstream phase. Instead
// of re-paying the full stage-1 draw, the revalidator draws a SMALL
// fresh uniform sample at g' and tests, per candidate, whether the
// fresh marginal is consistent with the cached prior's:
//
//   H0 (candidate c): the generation-g' relation contains
//     K_c = round(p_c * N') rows of c, where p_c is the prior's
//     estimate counts.RowTotal(c) / rows_drawn and N' the pinned
//     relation's row count.
//
// Under H0 the fresh count f_c of candidate c in s uniform
// without-replacement draws follows HypGeo(N', K_c, s), so a two-sided
// p-value per candidate falls out of the same stats/hypergeometric.h
// machinery stage 1 already uses. A single candidate rejecting at the
// Bonferroni-corrected level delta/|VZ| makes the verdict DRIFTING
// (evict the prior); otherwise STABLE (promote it to g').
//
// The test is deliberately conservative in the cheap direction: a
// false DRIFTING merely re-pays stage 1, while a false STABLE serves a
// prior whose deviation the fresh sample could not distinguish from
// noise — exactly the deviations too small for stage 1's own
// hypergeometric tests to act on. The fresh sample is s distinct
// uniformly drawn row ids, read through a pinned StoreView. Whole
// blocks would not do: an append is shuffled only within its own
// batch, so a block of appended rows can hold one candidate alone, and
// a handful of blocks would read it as drift of the whole relation.

#ifndef FASTMATCH_SERVICE_STAGE1_REVALIDATOR_H_
#define FASTMATCH_SERVICE_STAGE1_REVALIDATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/batch_executor.h"
#include "storage/column_store.h"
#include "util/result.h"

namespace fastmatch {

/// \brief Drift-test knobs.
struct RevalidatorOptions {
  /// Fresh rows to draw (all of them when the pinned relation is
  /// smaller). The test power grows with the sample; 4096 rows
  /// resolves marginal shifts of a few percent at the default delta.
  int64_t sample_rows = 4096;
  /// Family-wise false-drift rate: a STABLE prior is wrongly evicted
  /// with probability <= delta. Split across candidates (Bonferroni).
  double delta = 1e-3;
  /// Seed for the row draw (replayable, like every other sampler);
  /// mixed with the pinned generation, so each generation draws anew.
  uint64_t seed = 0x5eedf00d;
};

enum class RevalidationVerdict {
  kStable,    // fresh sample consistent with the prior: promote
  kDrifting,  // some candidate's marginal moved: evict
};

struct RevalidationReport {
  RevalidationVerdict verdict = RevalidationVerdict::kStable;
  int64_t fresh_rows = 0;   // rows actually drawn
  double min_p_value = 1.0; // smallest per-candidate two-sided p
  int worst_candidate = -1; // candidate attaining min_p_value
};

/// \brief Tests whether `prior` (drawn at an older generation) is still
/// consistent with the store's generation-`generation` contents.
///
/// `generation` is the querier's pinned generation — the one the prior
/// would be served at. Fails if the generation cannot be pinned, the
/// prior is empty, or the template doesn't match the store's schema.
Result<RevalidationReport> RevalidateStage1(
    std::shared_ptr<const ColumnStore> store, int z_attr,
    const std::vector<int>& x_attrs, const Stage1Snapshot& prior,
    uint64_t generation, const RevalidatorOptions& options = {});

}  // namespace fastmatch

#endif  // FASTMATCH_SERVICE_STAGE1_REVALIDATOR_H_
