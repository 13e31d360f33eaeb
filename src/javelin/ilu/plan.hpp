// Two-stage execution plan (paper §III, Fig. 2): which levels are factored
// by point-to-point level scheduling (upper stage) and which rows are
// permuted to the end for the lower stage.
#pragma once

#include <span>
#include <vector>

#include "javelin/graph/levels.hpp"
#include "javelin/ilu/options.hpp"
#include "javelin/sparse/csr.hpp"

namespace javelin {

struct TwoStagePlan {
  index_t n = 0;
  /// New-to-old permutation from the caller's rows to the factor's: the
  /// preordering (`ordering`) composed with the level-set order, lower-stage
  /// rows moved to the end (they retain their level-major relative order,
  /// so the permuted matrix still eliminates top-to-bottom).
  std::vector<index_t> perm;
  /// Rows [0, n_upper) are handled by the upper stage.
  index_t n_upper = 0;
  /// Upper-stage level l covers permuted rows
  /// [upper_level_ptr[l], upper_level_ptr[l+1]); size = #upper levels + 1.
  std::vector<index_t> upper_level_ptr;
  /// Lower-stage level boundaries relative to n_upper (the trailing levels
  /// that were moved), same layout; may be empty when nothing moved.
  std::vector<index_t> lower_level_ptr;
  /// Pattern the levels were computed on.
  LevelPattern pattern = LevelPattern::kLowerASymmetric;
  /// Thread count the plan targets.
  int threads = 1;
  /// Resolved α (IluOptions::min_level_rows): levels narrower than this are
  /// "too small" — trailing ones move to the lower stage, and the sweeps
  /// serialize the rest (narrow_level_tags).
  index_t min_level_rows = 16;

  // --- preordering (paper §IV) ----------------------------------------------
  /// Preordering folded into perm (never kAuto).
  Ordering ordering = Ordering::kNatural;
  /// Level counts of the lower pattern of A in natural order and under the
  /// candidate ordering; 0 when not computed (natural levels are skipped
  /// when an ordering was requested explicitly, ordered levels when kAuto's
  /// rule did not fire or natural order was requested).
  index_t natural_levels = 0;
  index_t ordered_levels = 0;
  /// Wall seconds of ilu_prepare's ordering phase (its prepare_order span):
  /// the level sets the rule reads, the candidate ordering and its levels.
  double order_s = 0;

  // --- planning statistics (Tables III/IV) --------------------------------
  index_t total_levels = 0;   ///< levels before the split
  index_t rows_moved = 0;     ///< rows sent to the lower stage ("R-α")
  LevelSets::Stats level_stats;  ///< min/max/median level sizes

  index_t num_upper_levels() const noexcept {
    return static_cast<index_t>(upper_level_ptr.size()) - 1;
  }
  index_t num_lower_rows() const noexcept { return n - n_upper; }
};

/// Build the plan for symbolic factor pattern `s` from the level sets `ls`
/// of P s Pᵀ, where `order` (new-to-old, empty = natural) maps ls's rows to
/// s's; plan.perm maps straight to s's rows (the ordering composed with the
/// level order). Heuristics (paper §III-A):
///   * levels are scanned from the END of the level order; a level is moved
///     to the lower stage while it is "too small" (< min_level_rows rows) or
///     too dense (mean row nnz > density_factor × matrix mean);
///   * the scan never crosses into the leading (1 - relative_location)
///     fraction of levels, so small levels sandwiched between large ones
///     (Fig. 3) stay in the upper stage where point-to-point sync absorbs
///     them;
///   * only whole trailing levels move, which guarantees no upper-stage row
///     ever depends on a lower-stage row.
/// Nothing moves when opts.lower_stage is false. The moved rows are
/// factored by the one work-balanced lower-stage pass (ilu/parallel.cpp).
TwoStagePlan build_two_stage_plan(const CsrMatrix& s, const LevelSets& ls,
                                  std::span<const index_t> order,
                                  const IluOptions& opts);

/// The resolved α of a plan for `opts` (TwoStagePlan::min_level_rows).
index_t plan_min_level_rows(const IluOptions& opts);

/// The preordering ilu_prepare applies to `a` and the level sets of the
/// ordered pattern (which, for ILU(0), are the plan's).
struct Preorder {
  Ordering ordering = Ordering::kNatural;  ///< resolved, never kAuto
  std::vector<index_t> perm;               ///< new-to-old; empty = natural
  LevelSets levels;                        ///< levels of P A Pᵀ, its numbering
  index_t natural_levels = 0;  ///< see TwoStagePlan::natural_levels
  index_t ordered_levels = 0;  ///< see TwoStagePlan::ordered_levels
};

/// Resolve opts.ordering for `a` (see IluOptions::ordering). kAuto reads the
/// natural level sets: when levels narrower than α hold at least
/// kNarrowRowFracMin of the rows it computes RCM and its levels (through
/// the inverse permutation, never forming P A Pᵀ) and keeps RCM only if it
/// at least halves the level count.
Preorder choose_preorder(const CsrMatrix& a, const IluOptions& opts);

}  // namespace javelin
