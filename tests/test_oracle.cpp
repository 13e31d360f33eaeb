// Independent numerical oracles for the ILU factor (Saad, "Iterative Methods
// for Sparse Linear Systems", §10.3). The bitwise parity tests only prove
// that every execution mode agrees with the others; all of them run the one
// row kernel, so a wrong kernel would pass them all. These checks use none
// of row_kernel.hpp's functions: they multiply the stored factors back
// together with their own loops and compare against the input matrix.
//
//   * ILU(0): (L·U)ᵢⱼ = (P A Pᵀ)ᵢⱼ for every (i, j) in the factor pattern,
//     within the standard LU backward-error bound c·m·ε·(|L|·|U|)ᵢⱼ;
//   * MILU (IluOptions::modified): the discarded fill is folded into the
//     diagonal, so row sums are preserved, (L·U)·1 = (P A Pᵀ)·1, and every
//     off-diagonal pattern entry still matches (P A Pᵀ)ᵢⱼ;
//   * each oracle fires on a factor with one entry perturbed by 1e-6
//     relative, so a bound too loose to see a kernel bug fails here too.
//
// Matrices: a 2-D Laplacian and two suite analogs, one of them RCM-ordered,
// factored at a 4-thread plan (upper stage, lower pass and corner all run).
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

constexpr double kEps = std::numeric_limits<value_t>::epsilon();

#ifdef NDEBUG
constexpr double kSuiteScale = 0.05;
#else
constexpr double kSuiteScale = 0.02;  // Debug / sanitizer builds
#endif

/// Row i of L·U and of |L|·|U| into dense accumulators (L unit lower, U
/// upper with diagonal, both stored in f.lu). `touched` lists the columns
/// written; `terms` is the number of products summed into any entry.
struct RowProduct {
  std::vector<value_t> lu, abs_lu;
  std::vector<index_t> touched;
  index_t terms = 0;

  explicit RowProduct(index_t n)
      : lu(static_cast<std::size_t>(n), 0),
        abs_lu(static_cast<std::size_t>(n), 0) {}

  void compute(const Factorization& f, index_t i) {
    for (index_t c : touched) {
      lu[static_cast<std::size_t>(c)] = 0;
      abs_lu[static_cast<std::size_t>(c)] = 0;
    }
    touched.clear();
    terms = 0;
    const auto add_u_row = [&](index_t k, value_t lik) {
      const auto cols = f.lu.row_cols(k);
      const auto vals = f.lu.row_vals(k);
      for (std::size_t p = 0; p < cols.size(); ++p) {
        if (cols[p] < k) continue;  // U part of row k: columns >= k
        const std::size_t c = static_cast<std::size_t>(cols[p]);
        if (lu[c] == 0 && abs_lu[c] == 0) touched.push_back(cols[p]);
        lu[c] += lik * vals[p];
        abs_lu[c] += std::abs(lik) * std::abs(vals[p]);
      }
      ++terms;
    };
    const auto cols = f.lu.row_cols(i);
    const auto vals = f.lu.row_vals(i);
    for (std::size_t p = 0; p < cols.size() && cols[p] < i; ++p) {
      add_u_row(cols[p], vals[p]);
    }
    add_u_row(i, 1.0);  // L's implicit unit diagonal
  }
};

/// Largest |(L·U)ᵢⱼ - (P A Pᵀ)ᵢⱼ| / bound over the factor pattern (≤ 1
/// passes). With `skip_diag` the diagonal is left out (MILU moves the
/// discarded fill there).
double pattern_error(const Factorization& f, const CsrMatrix& a,
                     bool skip_diag) {
  const index_t n = f.n();
  const auto& perm = f.plan.perm;
  RowProduct rp(n);
  double worst = 0;
  for (index_t i = 0; i < n; ++i) {
    rp.compute(f, i);
    const index_t oi = perm[static_cast<std::size_t>(i)];
    for (index_t j : f.lu.row_cols(i)) {
      if (skip_diag && j == i) continue;
      const value_t want = a.at(oi, perm[static_cast<std::size_t>(j)]);
      const value_t got = rp.lu[static_cast<std::size_t>(j)];
      const double bound = 8.0 * static_cast<double>(rp.terms + 1) * kEps *
                               rp.abs_lu[static_cast<std::size_t>(j)] +
                           std::numeric_limits<double>::min();
      worst = std::max(worst, std::abs(got - want) / bound);
    }
  }
  return worst;
}

/// Largest |((L·U)·1)ᵢ - ((P A Pᵀ)·1)ᵢ| / bound over the rows (≤ 1 passes):
/// (L·U)·1 is L·(U·1), the whole row of the product including the fill
/// ILU drops; the bound covers the rounding of the factor entries, of the
/// diagonal compensation and of both sums.
double row_sum_error(const Factorization& f, const CsrMatrix& a) {
  const index_t n = f.n();
  std::vector<value_t> u1(static_cast<std::size_t>(n), 0);
  std::vector<value_t> abs_u1(static_cast<std::size_t>(n), 0);
  for (index_t k = 0; k < n; ++k) {
    const auto cols = f.lu.row_cols(k);
    const auto vals = f.lu.row_vals(k);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      if (cols[p] < k) continue;
      u1[static_cast<std::size_t>(k)] += vals[p];
      abs_u1[static_cast<std::size_t>(k)] += std::abs(vals[p]);
    }
  }
  double worst = 0;
  for (index_t i = 0; i < n; ++i) {
    value_t got = u1[static_cast<std::size_t>(i)];
    value_t scale = abs_u1[static_cast<std::size_t>(i)];
    index_t terms = f.lu.row_nnz(i);
    const auto cols = f.lu.row_cols(i);
    const auto vals = f.lu.row_vals(i);
    for (std::size_t p = 0; p < cols.size() && cols[p] < i; ++p) {
      got += vals[p] * u1[static_cast<std::size_t>(cols[p])];
      scale += std::abs(vals[p]) * abs_u1[static_cast<std::size_t>(cols[p])];
      terms += f.lu.row_nnz(cols[p]);
    }
    const index_t oi = f.plan.perm[static_cast<std::size_t>(i)];
    value_t want = 0;
    for (value_t v : a.row_vals(oi)) {
      want += v;
      scale += std::abs(v);
    }
    const double bound = 8.0 * static_cast<double>(terms + 1) * kEps * scale +
                         std::numeric_limits<double>::min();
    worst = std::max(worst, std::abs(got - want) / bound);
  }
  return worst;
}

/// A copy of `f` with its largest off-diagonal L entry scaled by 1 + 1e-6.
Factorization perturbed(const Factorization& f) {
  Factorization g = f;
  auto vals = g.lu.values_mut();
  std::size_t at = 0;
  value_t big = -1;
  for (index_t i = 0; i < g.n(); ++i) {
    const auto cols = g.lu.row_cols(i);
    for (std::size_t p = 0; p < cols.size() && cols[p] < i; ++p) {
      const std::size_t k = static_cast<std::size_t>(g.lu.row_begin(i)) + p;
      if (std::abs(vals[k]) > big) {
        big = std::abs(vals[k]);
        at = k;
      }
    }
  }
  vals[at] *= 1.0 + 1e-6;
  return g;
}

void check_ilu0(const std::string& name, const CsrMatrix& a,
                IluOptions opts) {
  const Factorization f = ilu_factor(a, opts);
  const double err = pattern_error(f, a, /*skip_diag=*/false);
  CHECK_MSG(err <= 1.0,
            "%s ILU(0) (ordering %s): (LU)ij off A by %.3g bounds",
            name.c_str(), ordering_name(f.plan.ordering), err);
  CHECK_MSG(f.plan.num_lower_rows() > 0,
            "%s: no lower stage, the corner path goes unchecked",
            name.c_str());
  const double mut = pattern_error(perturbed(f), a, false);
  CHECK_MSG(mut > 1.0, "%s ILU(0) oracle missed a perturbed L entry (%.3g)",
            name.c_str(), mut);
}

void check_milu(const std::string& name, const CsrMatrix& a,
                IluOptions opts) {
  opts.modified = true;
  const Factorization f = ilu_factor(a, opts);
  const double rs = row_sum_error(f, a);
  CHECK_MSG(rs <= 1.0, "%s MILU: (LU)·1 off A·1 by %.3g bounds",
            name.c_str(), rs);
  const double off = pattern_error(f, a, /*skip_diag=*/true);
  CHECK_MSG(off <= 1.0, "%s MILU: off-diagonal (LU)ij off A by %.3g bounds",
            name.c_str(), off);
  // MILU differs from ILU(0) exactly where fill was dropped: somewhere the
  // diagonal must have moved, or the row-sum check proves nothing new.
  IluOptions plain = opts;
  plain.modified = false;
  const Factorization g = ilu_factor(a, plain);
  const auto fv = f.lu.values();
  const auto gv = g.lu.values();
  CHECK_MSG(!std::equal(fv.begin(), fv.end(), gv.begin(), gv.end()),
            "%s MILU equals ILU(0): no fill was dropped", name.c_str());
  const double mut = row_sum_error(perturbed(f), a);
  CHECK_MSG(mut > 1.0, "%s MILU oracle missed a perturbed L entry (%.3g)",
            name.c_str(), mut);
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;

  gen::SuiteOptions so;
  so.scale = kSuiteScale;
  struct Case {
    std::string name;
    CsrMatrix a;
    Ordering ordering;
  };
  const Case cases[] = {
      {"laplacian", gen::laplacian2d(40, 40, 5), Ordering::kNatural},
      {"TSOPF_RS_b300_c2",
       gen::make_suite_matrix("TSOPF_RS_b300_c2", so).matrix, Ordering::kRcm},
      {"fem_filter", gen::make_suite_matrix("fem_filter", so).matrix,
       Ordering::kNatural},
  };
  for (const Case& c : cases) {
    opts.ordering = c.ordering;
    check_ilu0(c.name, c.a, opts);
    check_milu(c.name, c.a, opts);
  }
  return test::finish("test_oracle");
}
