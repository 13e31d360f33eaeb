// Tests of the preordering ilu_prepare folds into plan.perm
// (IluOptions::ordering):
//
//   * rcm_order, nested_dissection_order and every resolved plan.perm are
//     valid permutations on the suite and on edge cases (n = 1, disconnected
//     components, an unsymmetric pattern, empty rows);
//   * the ordered factor — ILU(0) and ILU(1), RCM and ND, at teams 1 and 4 —
//     is bitwise the serial ILU of P A Pᵀ built directly: materialize
//     P A Pᵀ, compute its level sets and symbolic pattern the natural way,
//     factor serially in that level order. The same oracle covers the
//     levels ilu_prepare computes through the inverse permutation, and
//     ilu_apply (gather and scatter folded into the sweeps) against a
//     serial solve with that reference factor;
//   * kAuto keeps laplacian3d(64³) in natural order with exactly the level
//     order of the natural plan, picks RCM on the TSOPF analog, and rejects
//     RCM where it does not halve the level count (a path graph);
//   * ilu_refactor keeps plan.perm and the ordering, and reproduces the
//     reference factor of the new values.
#include <algorithm>
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/serial.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/ilu/symbolic.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

#ifdef NDEBUG
constexpr double kSuiteScale = 0.05;
#else
constexpr double kSuiteScale = 0.02;  // Debug / sanitizer builds
#endif

std::vector<index_t> ordering_of(const CsrMatrix& a, Ordering o) {
  switch (o) {
    case Ordering::kRcm: return rcm_order(a);
    case Ordering::kNestedDissection: return nested_dissection_order(a);
    default: return natural_order(a.rows());
  }
}

/// CSR from per-row column lists (sorted here), diagonally dominant values.
CsrMatrix from_rows(std::vector<std::vector<index_t>> rows) {
  const auto n = static_cast<index_t>(rows.size());
  std::vector<index_t> rp{0}, ci;
  std::vector<value_t> vv;
  for (index_t r = 0; r < n; ++r) {
    auto& cols = rows[static_cast<std::size_t>(r)];
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (index_t c : cols) {
      ci.push_back(c);
      vv.push_back(c == r ? 4.0 * static_cast<value_t>(cols.size()) : -1.0);
    }
    rp.push_back(static_cast<index_t>(ci.size()));
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vv));
}

struct Named {
  std::string name;
  CsrMatrix a;
};

/// Edge cases: one row; three components (a grid, an isolated vertex, a
/// path); an unsymmetric pattern (entries (i, j) without (j, i)); empty rows
/// (no entry at all, diagonal included).
std::vector<Named> edge_cases() {
  std::vector<Named> out;
  out.push_back({"n1", from_rows({{0}})});
  {
    const CsrMatrix g = gen::laplacian2d(6, 5, 5);
    std::vector<std::vector<index_t>> rows;
    for (index_t r = 0; r < g.rows(); ++r) {
      rows.emplace_back(g.row_cols(r).begin(), g.row_cols(r).end());
    }
    const index_t iso = g.rows();
    rows.push_back({iso});
    for (index_t i = 0; i < 9; ++i) {
      const index_t r = iso + 1 + i;
      rows.push_back({r});
      if (i > 0) rows.back().push_back(r - 1);
      if (i < 8) rows.back().push_back(r + 1);
    }
    out.push_back({"disconnected", from_rows(std::move(rows))});
  }
  {
    std::vector<std::vector<index_t>> rows(40);
    for (index_t r = 0; r < 40; ++r) {
      rows[static_cast<std::size_t>(r)].push_back(r);
      if (r > 0) rows[static_cast<std::size_t>(r)].push_back(r - 1);
      if (r % 3 == 0 && r + 7 < 40) rows[static_cast<std::size_t>(r)].push_back(r + 7);
      if (r % 5 == 1 && r >= 11) rows[static_cast<std::size_t>(r)].push_back(r - 11);
    }
    out.push_back({"unsymmetric", from_rows(std::move(rows))});
  }
  {
    std::vector<std::vector<index_t>> rows(12);
    for (index_t r = 0; r < 12; ++r) {
      if (r % 4 == 2) continue;  // empty row
      rows[static_cast<std::size_t>(r)].push_back(r);
      if (r + 1 < 12 && (r + 1) % 4 != 2) rows[static_cast<std::size_t>(r)].push_back(r + 1);
      if (r > 0 && (r - 1) % 4 != 2) rows[static_cast<std::size_t>(r)].push_back(r - 1);
    }
    out.push_back({"empty-rows", from_rows(std::move(rows))});
  }
  return out;
}

/// Every ordering is a permutation; every resolved plan.perm is one.
void check_valid(const std::string& name, const CsrMatrix& a) {
  const char* nm = name.c_str();
  CHECK_MSG(is_permutation(rcm_order(a)), "%s: rcm_order", nm);
  CHECK_MSG(is_permutation(nested_dissection_order(a)), "%s: nd order", nm);
  for (const Ordering o : {Ordering::kNatural, Ordering::kRcm,
                           Ordering::kNestedDissection, Ordering::kAuto}) {
    IluOptions opts;
    opts.ordering = o;
    const Factorization f = ilu_prepare(a, opts);
    CHECK_MSG(is_permutation(f.plan.perm) &&
                  f.plan.perm.size() == static_cast<std::size_t>(a.rows()),
              "%s %s: plan.perm", nm, ordering_name(o));
    CHECK_MSG(f.plan.ordering != Ordering::kAuto &&
                  (o == Ordering::kAuto || f.plan.ordering == o),
              "%s %s: resolved to %s", nm, ordering_name(o),
              ordering_name(f.plan.ordering));
  }
}

/// The factor of P A Pᵀ built directly: level order of its own (natural)
/// level sets, serial up-looking ILU on its own symbolic pattern.
struct Reference {
  std::vector<index_t> perm;  ///< ordering ∘ level order, in A's rows
  index_t levels = 0;         ///< levels of the factored pattern
  CsrMatrix lu;
  std::vector<index_t> diag;
};

Reference direct_reference(const CsrMatrix& a, const std::vector<index_t>& q,
                           const IluOptions& opts) {
  const CsrMatrix b = permute_symmetric(a, q);
  CsrMatrix s = ilu_symbolic(b, opts.fill_level);
  const LevelSets ls = compute_level_sets(s, opts.level_pattern);
  Reference ref;
  ref.levels = ls.num_levels();
  ref.perm = compose_permutations(q, ls.rows_by_level);
  ref.lu = permute_symmetric(s, ls.rows_by_level);
  ref.diag = diagonal_positions(ref.lu);
  ilu_factor_serial_inplace(ref.lu, ref.diag, opts);
  return ref;
}

bool same_factor(const CsrMatrix& x, const CsrMatrix& y) {
  return x.row_ptr().size() == y.row_ptr().size() &&
         std::equal(x.row_ptr().begin(), x.row_ptr().end(), y.row_ptr().begin()) &&
         std::equal(x.col_idx().begin(), x.col_idx().end(), y.col_idx().begin(),
                    y.col_idx().end()) &&
         bitwise_equal(x.values(), y.values());
}

/// z = (L U)^{-1} r through the reference factor, serially, in A's order.
std::vector<value_t> reference_apply(const Reference& ref,
                                     std::span<const value_t> r) {
  const std::size_t n = r.size();
  std::vector<value_t> x(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = r[static_cast<std::size_t>(ref.perm[i])];
  }
  trsv_serial(ref.lu, ref.diag, x, x);
  for (std::size_t i = 0; i < n; ++i) {
    z[static_cast<std::size_t>(ref.perm[i])] = x[i];
  }
  return z;
}

void check_ordered_factor(const std::string& name, const CsrMatrix& a,
                          Ordering o, int fill, int threads) {
  const std::string tag = name + " " + ordering_name(o) + " fill " +
                          std::to_string(fill) + " t " +
                          std::to_string(threads);
  const char* nm = tag.c_str();
  ThreadCountGuard guard(threads);
  IluOptions opts;
  opts.ordering = o;
  opts.fill_level = fill;
  opts.num_threads = threads;
  Factorization f = ilu_factor(a, opts);
  const std::vector<index_t> q = ordering_of(a, o);
  const Reference ref = direct_reference(a, q, opts);
  CHECK_MSG(f.plan.ordering == o, "%s: resolved to %s", nm,
            ordering_name(f.plan.ordering));
  CHECK_MSG(f.plan.perm == ref.perm, "%s: plan.perm differs", nm);
  CHECK_MSG(f.plan.total_levels == ref.levels, "%s: %d levels, direct %d", nm,
            f.plan.total_levels, ref.levels);
  if (fill == 0) {
    CHECK_MSG(f.plan.ordered_levels == ref.levels,
              "%s: ordered_levels %d, direct %d", nm, f.plan.ordered_levels,
              ref.levels);
  }
  CHECK_MSG(same_factor(f.lu, ref.lu), "%s: factor differs", nm);

  const auto r = random_vector(a.rows(), 0x0DE5);
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  ilu_apply(f, r, z, ws);
  CHECK_MSG(bitwise_equal(z, reference_apply(ref, r)), "%s: ilu_apply", nm);

  // Refactor with new values: same plan, same ordering, new reference.
  CsrMatrix a2 = a;
  auto v2 = a2.values_mut();
  for (index_t row = 0; row < a2.rows(); ++row) {
    for (index_t k = a2.row_begin(row); k < a2.row_end(row); ++k) {
      if (a2.col_idx()[static_cast<std::size_t>(k)] != row) {
        v2[static_cast<std::size_t>(k)] *= 0.5;
      }
    }
  }
  const std::vector<index_t> perm_before = f.plan.perm;
  ilu_refactor(f, a2);
  CHECK_MSG(f.plan.perm == perm_before && f.plan.ordering == o,
            "%s: refactor changed the plan", nm);
  CHECK_MSG(same_factor(f.lu, direct_reference(a2, q, opts).lu),
            "%s: refactor factor differs", nm);
}

/// kAuto on the three regimes the rule separates.
void check_auto() {
  {
    // Wide levels: the rule does not fire, the plan is the natural one.
    const CsrMatrix lap = gen::laplacian3d(64, 64, 64, 7);
    const Factorization f = ilu_prepare(lap, IluOptions{});
    const LevelSets ls = compute_level_sets(lap, LevelPattern::kLowerASymmetric);
    CHECK_MSG(f.plan.ordering == Ordering::kNatural &&
                  f.plan.ordered_levels == 0 &&
                  f.plan.natural_levels == ls.num_levels(),
              "laplacian3d: %s natural %d ordered %d",
              ordering_name(f.plan.ordering), f.plan.natural_levels,
              f.plan.ordered_levels);
    CHECK_MSG(f.plan.perm == ls.rows_by_level,
              "laplacian3d: plan.perm is not the natural level order");
  }
  {
    // Deep and narrow: RCM halves the levels and is kept.
    gen::SuiteOptions so;
    so.scale = 0.25;
    const CsrMatrix a = gen::make_suite_matrix("TSOPF_RS_b300_c2", so).matrix;
    const Factorization f = ilu_prepare(a, IluOptions{});
    CHECK_MSG(f.plan.ordering == Ordering::kRcm &&
                  2 * f.plan.ordered_levels <= f.plan.natural_levels &&
                  f.plan.total_levels == f.plan.ordered_levels,
              "TSOPF: %s natural %d ordered %d", ordering_name(f.plan.ordering),
              f.plan.natural_levels, f.plan.ordered_levels);
    CHECK_MSG(f.plan.perm == compose_permutations(
                                 rcm_order(a),
                                 compute_level_sets(a, LevelPattern::kLowerASymmetric,
                                                    rcm_order(a))
                                     .rows_by_level),
              "TSOPF: plan.perm is not RCM composed with its level order");
    CHECK_MSG(f.plan.order_s > 0, "TSOPF: no ordering time recorded");
  }
  {
    // A path is already in RCM order: the rule fires (one row per level)
    // but RCM cannot halve the levels, so natural order stays.
    const CsrMatrix path = gen::laplacian2d(600, 1, 5);
    const Factorization f = ilu_prepare(path, IluOptions{});
    CHECK_MSG(f.plan.ordering == Ordering::kNatural &&
                  f.plan.natural_levels == 600 && f.plan.ordered_levels == 600,
              "path: %s natural %d ordered %d", ordering_name(f.plan.ordering),
              f.plan.natural_levels, f.plan.ordered_levels);
    CHECK_MSG(f.plan.perm == natural_order(600), "path: plan.perm reordered");
  }
}

}  // namespace

int main() {
  gen::SuiteOptions so;
  so.scale = kSuiteScale;
  for (const gen::SuiteEntry& e : gen::make_suite(so)) check_valid(e.name, e.matrix);
  for (const Named& e : edge_cases()) check_valid(e.name, e.a);

  std::vector<Named> factored = edge_cases();
  factored.erase(std::remove_if(factored.begin(), factored.end(),
                                [](const Named& e) { return e.name == "empty-rows"; }),
                 factored.end());
  factored.push_back({"power", gen::power_system(800, 16, 48, 9)});
  factored.push_back({"circuit", gen::circuit(1000, 5.0, 3, false, 6)});
  factored.push_back({"TSOPF", gen::make_suite_matrix("TSOPF_RS_b300_c2", so).matrix});
  for (const Named& e : factored) {
    for (const Ordering o : {Ordering::kRcm, Ordering::kNestedDissection}) {
      for (const int fill : {0, 1}) {
        for (const int t : {1, 4}) check_ordered_factor(e.name, e.a, o, fill, t);
      }
    }
  }
  check_auto();
  return javelin::test::finish("test_order");
}
