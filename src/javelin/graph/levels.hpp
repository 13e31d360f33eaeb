// Level-set (level scheduling) computation on triangular dependency patterns.
//
// For a lower-triangular pattern L, level(i) = 1 + max{ level(j) : j < i and
// L(i, j) != 0 }, with level 0 for rows with no strictly-lower off-diagonals.
// Rows in the same level are mutually independent and can be factored/solved
// concurrently (paper §II "level scheduling", Fig. 2).
//
// Javelin computes levels either for lower(A) or lower(A + Aᵀ); the latter is
// the default because it additionally guarantees that columns inside a level
// have no U-side coupling either (paper §III-B, §VII).
#pragma once

#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Which pattern drives the level computation (paper §III, §VII Table IV).
enum class LevelPattern {
  kLowerA,          ///< strictly-lower pattern of A itself
  kLowerASymmetric  ///< strictly-lower pattern of A + Aᵀ (default)
};

/// The result of level scheduling.
struct LevelSets {
  /// level[i] = level of row i (in the *input* row numbering).
  std::vector<index_t> level;
  /// Rows grouped by level: rows_by_level[level_ptr[l] .. level_ptr[l+1]) are
  /// the rows of level l, listed in ascending row order.
  std::vector<index_t> level_ptr;
  std::vector<index_t> rows_by_level;

  index_t num_levels() const noexcept {
    return static_cast<index_t>(level_ptr.size()) - 1;
  }
  index_t level_size(index_t l) const noexcept {
    return level_ptr[static_cast<std::size_t>(l) + 1] - level_ptr[static_cast<std::size_t>(l)];
  }
  std::span<const index_t> level_rows(index_t l) const noexcept {
    return std::span<const index_t>(rows_by_level)
        .subspan(static_cast<std::size_t>(level_ptr[static_cast<std::size_t>(l)]),
                 static_cast<std::size_t>(level_size(l)));
  }

  /// Summary statistics over level sizes (paper Tables III/IV columns).
  struct Stats {
    index_t num_levels = 0;
    index_t min_rows = 0;
    index_t max_rows = 0;
    double median_rows = 0;
  };
  Stats stats() const;
};

/// Compute level sets of the strictly-lower triangular dependency pattern of
/// `a` (pattern selected by `pattern`). The matrix must be square. Either
/// pattern takes one pass over `a`: lower(A + Aᵀ) is never formed — each row
/// pushes its final level into the rows of its upper entries instead.
LevelSets compute_level_sets(const CsrMatrix& a,
                             LevelPattern pattern = LevelPattern::kLowerASymmetric);

/// Level sets of the ordered matrix P A Pᵀ, where `order` is new-to-old (row
/// r of P A Pᵀ is row order[r] of A), computed through the inverse
/// permutation without forming P A Pᵀ. Level ids and rows_by_level are in the
/// ordered numbering. An empty `order` means natural order.
LevelSets compute_level_sets(const CsrMatrix& a, LevelPattern pattern,
                             std::span<const index_t> order);

/// Level sets for a matrix that is *already* strictly lower triangular (or
/// for any matrix where only entries with col < row should be considered).
LevelSets compute_level_sets_lower(const CsrMatrix& lower);

/// Level sets of the strictly-UPPER pattern processed in reverse row order —
/// the dependency structure of the backward (U) triangular solve.
LevelSets compute_level_sets_upper(const CsrMatrix& upper);

}  // namespace javelin
