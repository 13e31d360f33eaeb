#include "javelin/graph/levels.hpp"

#include <algorithm>

#include "javelin/sparse/ops.hpp"
#include "javelin/support/scan.hpp"
#include "javelin/support/stats.hpp"

namespace javelin {

namespace {

/// Groups the rows of a filled ls.level into level_ptr / rows_by_level.
/// Within a level, rows are listed ascending — or descending when
/// `descending`, the order the backward solve walks them.
void bucket_levels(LevelSets& ls, bool descending) {
  const index_t n = static_cast<index_t>(ls.level.size());
  index_t nlev = 0;
  for (index_t lv : ls.level) nlev = std::max(nlev, lv + 1);
  ls.level_ptr.assign(static_cast<std::size_t>(nlev) + 1, 0);
  for (index_t lv : ls.level) ++ls.level_ptr[static_cast<std::size_t>(lv) + 1];
  inclusive_scan_inplace(std::span<index_t>(ls.level_ptr).subspan(1));
  ls.rows_by_level.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(ls.level_ptr.begin(), ls.level_ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    const index_t r = descending ? n - 1 - i : i;
    ls.rows_by_level[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(ls.level[static_cast<std::size_t>(r)])]++)] = r;
  }
}

/// Levels of the strictly-lower pattern of `m`, or of m + mᵀ when
/// `symmetric`, in one pass over m without forming mᵀ: row r PULLS from its
/// own entries c < r, and each earlier row c with an entry (c, r) PUSHED its
/// final level + 1 into level[r] as a floor. Every contributor is a smaller
/// row, so level[r] is final by the time row r is read.
LevelSets lower_levels(const CsrMatrix& m, bool symmetric) {
  LevelSets ls;
  ls.level.assign(static_cast<std::size_t>(m.rows()), 0);
  for (index_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.row_cols(r);
    const auto diag = std::lower_bound(cols.begin(), cols.end(), r);
    index_t lv = ls.level[static_cast<std::size_t>(r)];
    for (auto p = cols.begin(); p != diag; ++p) {
      lv = std::max(lv, ls.level[static_cast<std::size_t>(*p)] + 1);
    }
    ls.level[static_cast<std::size_t>(r)] = lv;
    if (!symmetric) continue;
    for (auto p = diag; p != cols.end(); ++p) {
      if (*p == r) continue;
      index_t& floor = ls.level[static_cast<std::size_t>(*p)];
      floor = std::max(floor, lv + 1);
    }
  }
  bucket_levels(ls, /*descending=*/false);
  return ls;
}

/// lower_levels of the ordered matrix P m Pᵀ (`order` new-to-old) without
/// forming it: ordered row r is row order[r] of m, and its columns map
/// through the inverse permutation. Same pull/push pass, but a row's mapped
/// columns are unsorted, so both directions scan the whole row.
LevelSets lower_levels_ordered(const CsrMatrix& m, bool symmetric,
                               std::span<const index_t> order) {
  JAVELIN_CHECK(order.size() == static_cast<std::size_t>(m.rows()),
                "ordering length mismatch");
  const std::vector<index_t> inv = invert_permutation(order);
  LevelSets ls;
  ls.level.assign(static_cast<std::size_t>(m.rows()), 0);
  std::vector<index_t> mapped;
  constexpr index_t kAhead = 8;  // rows of m are visited out of order
  for (index_t r = 0; r < m.rows(); ++r) {
    if (r + kAhead < m.rows()) {
      const index_t next = order[static_cast<std::size_t>(r + kAhead)];
      __builtin_prefetch(m.col_idx().data() + m.row_begin(next));
    }
    const auto cols = m.row_cols(order[static_cast<std::size_t>(r)]);
    // Branch-free both ways: the mapped columns fall on either side of r
    // unpredictably. A column p <= r pulls/pushes the neutral 0, and
    // rewriting an earlier row's final level with itself is harmless.
    mapped.clear();
    index_t lv = ls.level[static_cast<std::size_t>(r)];
    for (index_t c : cols) {
      const index_t p = inv[static_cast<std::size_t>(c)];
      mapped.push_back(p);
      lv = std::max(lv, p < r ? ls.level[static_cast<std::size_t>(p)] + 1 : 0);
    }
    ls.level[static_cast<std::size_t>(r)] = lv;
    if (!symmetric) continue;
    for (index_t p : mapped) {
      index_t& floor = ls.level[static_cast<std::size_t>(p)];
      floor = std::max(floor, p > r ? lv + 1 : 0);
    }
  }
  bucket_levels(ls, /*descending=*/false);
  return ls;
}

}  // namespace

LevelSets::Stats LevelSets::stats() const {
  Stats s;
  s.num_levels = num_levels();
  if (s.num_levels == 0) return s;
  std::vector<index_t> sizes(static_cast<std::size_t>(s.num_levels));
  for (index_t l = 0; l < s.num_levels; ++l) sizes[static_cast<std::size_t>(l)] = level_size(l);
  s.min_rows = min_value(std::span<const index_t>(sizes));
  s.max_rows = max_value(std::span<const index_t>(sizes));
  s.median_rows = median(std::span<const index_t>(sizes));
  return s;
}

LevelSets compute_level_sets(const CsrMatrix& a, LevelPattern pattern) {
  JAVELIN_CHECK(a.square(), "level scheduling requires a square matrix");
  return lower_levels(a, pattern == LevelPattern::kLowerASymmetric);
}

LevelSets compute_level_sets(const CsrMatrix& a, LevelPattern pattern,
                             std::span<const index_t> order) {
  JAVELIN_CHECK(a.square(), "level scheduling requires a square matrix");
  const bool symmetric = pattern == LevelPattern::kLowerASymmetric;
  return order.empty() ? lower_levels(a, symmetric)
                       : lower_levels_ordered(a, symmetric, order);
}

LevelSets compute_level_sets_lower(const CsrMatrix& lower) {
  JAVELIN_CHECK(lower.square(), "level scheduling requires a square matrix");
  return lower_levels(lower, /*symmetric=*/false);
}

LevelSets compute_level_sets_upper(const CsrMatrix& upper) {
  JAVELIN_CHECK(upper.square(), "level scheduling requires a square matrix");
  // Dependencies of the backward solve: row r depends on rows c > r. Process
  // rows in reverse so dependencies are final when read.
  LevelSets ls;
  ls.level.assign(static_cast<std::size_t>(upper.rows()), 0);
  for (index_t r = upper.rows() - 1; r >= 0; --r) {
    index_t lv = 0;
    auto cols = upper.row_cols(r);
    const auto it = std::upper_bound(cols.begin(), cols.end(), r);
    for (auto p = it; p != cols.end(); ++p) {
      lv = std::max(lv, ls.level[static_cast<std::size_t>(*p)] + 1);
    }
    ls.level[static_cast<std::size_t>(r)] = lv;
  }
  // Descending row order within each level: the backward solve walks rows
  // high-to-low, and keeping that order makes the implied-order pruning of
  // the point-to-point schedule valid for U as well.
  bucket_levels(ls, /*descending=*/true);
  return ls;
}

}  // namespace javelin
