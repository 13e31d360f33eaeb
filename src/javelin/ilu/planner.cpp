#include <algorithm>
#include <cmath>

#include "javelin/exec/schedule.hpp"
#include "javelin/ilu/plan.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

namespace {

int plan_threads(const IluOptions& opts) {
  return opts.num_threads > 0 ? opts.num_threads : max_threads();
}

/// Rows in levels narrower than `min_level_rows`.
index_t narrow_row_count(const LevelSets& ls, index_t min_level_rows) {
  index_t rows = 0;
  for (index_t l = 0; l < ls.num_levels(); ++l) {
    if (ls.level_size(l) < min_level_rows) rows += ls.level_size(l);
  }
  return rows;
}

}  // namespace

index_t plan_min_level_rows(const IluOptions& opts) {
  return opts.min_level_rows > 0
             ? opts.min_level_rows
             : std::max<index_t>(16, 2 * static_cast<index_t>(plan_threads(opts)));
}

Preorder choose_preorder(const CsrMatrix& a, const IluOptions& opts) {
  JAVELIN_CHECK(a.square(), "ordering requires a square matrix");
  Preorder p;
  const auto order_with = [&](Ordering o, std::vector<index_t> perm) {
    p.ordering = o;
    p.perm = std::move(perm);
    p.levels = compute_level_sets(a, opts.level_pattern, p.perm);
    p.ordered_levels = p.levels.num_levels();
  };
  switch (opts.ordering) {
    case Ordering::kRcm:
      order_with(Ordering::kRcm, rcm_order(a));
      return p;
    case Ordering::kNestedDissection:
      order_with(Ordering::kNestedDissection, nested_dissection_order(a));
      return p;
    case Ordering::kNatural:
    case Ordering::kAuto:
      break;
  }
  p.levels = compute_level_sets(a, opts.level_pattern);
  p.natural_levels = p.levels.num_levels();
  if (opts.ordering == Ordering::kNatural || a.rows() == 0) return p;
  // The default regime rule's test (narrow_level_tags): are the rows deep in
  // levels too narrow to feed a team?
  const double narrow_frac =
      static_cast<double>(narrow_row_count(p.levels, plan_min_level_rows(opts))) /
      static_cast<double>(a.rows());
  if (narrow_frac < kNarrowRowFracMin) return p;
  LevelSets natural = std::move(p.levels);
  order_with(Ordering::kRcm, rcm_order(a));
  if (2 * p.ordered_levels > p.natural_levels) {
    p.ordering = Ordering::kNatural;
    p.perm.clear();
    p.levels = std::move(natural);
  }
  return p;
}

TwoStagePlan build_two_stage_plan(const CsrMatrix& s, const LevelSets& ls,
                                  std::span<const index_t> order,
                                  const IluOptions& opts) {
  JAVELIN_CHECK(s.square(), "planning requires a square matrix");
  JAVELIN_CHECK(ls.level.size() == static_cast<std::size_t>(s.rows()),
                "level sets do not match the matrix");
  TwoStagePlan plan;
  plan.n = s.rows();
  plan.pattern = opts.level_pattern;
  plan.threads = plan_threads(opts);
  // Level-major order, mapped to s's rows: upper levels then moved ones.
  plan.perm = ls.rows_by_level;
  if (!order.empty()) {
    for (index_t& r : plan.perm) r = order[static_cast<std::size_t>(r)];
  }

  const index_t nlev = ls.num_levels();
  plan.total_levels = nlev;
  plan.level_stats = ls.stats();

  plan.min_level_rows = plan_min_level_rows(opts);
  const index_t min_rows = plan.min_level_rows;
  const double avg_rd = s.row_density();

  // Mean row density per level (for the density rule).
  const auto level_density = [&](index_t l) {
    const index_t b = ls.level_ptr[static_cast<std::size_t>(l)];
    const index_t e = ls.level_ptr[static_cast<std::size_t>(l) + 1];
    if (b == e) return 0.0;
    double nnz = 0;
    for (index_t i = b; i < e; ++i) {
      nnz += static_cast<double>(s.row_nnz(plan.perm[static_cast<std::size_t>(i)]));
    }
    return nnz / static_cast<double>(e - b);
  };

  // Scan trailing levels; moving is only allowed when a lower method exists.
  index_t cutoff = nlev;
  if (opts.lower_method != LowerMethod::kNone && nlev > 1) {
    const index_t earliest = static_cast<index_t>(
        std::ceil(opts.relative_location * static_cast<double>(nlev)));
    while (cutoff > std::max<index_t>(earliest, 1)) {
      const index_t l = cutoff - 1;
      const bool small = ls.level_size(l) < min_rows;
      const bool dense = opts.density_factor > 0 &&
                         level_density(l) > opts.density_factor * avg_rd;
      if (!small && !dense) break;
      --cutoff;
    }
  }

  plan.n_upper = ls.level_ptr[static_cast<std::size_t>(cutoff)];
  plan.rows_moved = plan.n - plan.n_upper;

  plan.upper_level_ptr.assign(ls.level_ptr.begin(),
                              ls.level_ptr.begin() + cutoff + 1);
  plan.lower_level_ptr.clear();
  if (cutoff < nlev) {
    for (index_t l = cutoff; l <= nlev; ++l) {
      plan.lower_level_ptr.push_back(ls.level_ptr[static_cast<std::size_t>(l)] -
                                     plan.n_upper);
    }
  }

  // Resolve the method: one lower-stage pass serves every pattern.
  plan.method =
      plan.rows_moved == 0 ? LowerMethod::kNone : LowerMethod::kEvenRows;
  return plan;
}

}  // namespace javelin
