// Property test for the claim in parallel.cpp: every execution mode (serial,
// point-to-point upper stage, the work-balanced lower-stage pass, serial or
// parallel corner) produces a bitwise-identical factor, because all paths
// share the row kernel and each row's arithmetic order is fixed by its CSR
// layout. Also checks the lower-stage blocks themselves: contiguous,
// covering the moved rows, and balanced by work for any team.
#include <algorithm>
#include <atomic>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/serial.hpp"
#include "javelin/ilu/symbolic.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

/// Serial up-looking factorization on the SAME permuted pattern the parallel
/// plan uses — the reference the parallel factor must match bitwise. ILU(k>0)
/// fill depends on the order, so under a preordering the reference builds
/// the fill pattern of the ordered matrix P A Pᵀ, then applies the plan's
/// level order on top (plan.perm = ordering ∘ level order).
CsrMatrix serial_reference(const CsrMatrix& a, const Factorization& f) {
  CsrMatrix lu;
  if (f.opts.fill_level > 0 && f.plan.ordering != Ordering::kNatural) {
    const std::vector<index_t> q = f.plan.ordering == Ordering::kRcm
                                       ? rcm_order(a)
                                       : nested_dissection_order(a);
    const std::vector<index_t> q_inv = invert_permutation(q);
    std::vector<index_t> level_order(f.plan.perm.size());
    for (std::size_t i = 0; i < level_order.size(); ++i) {
      level_order[i] = q_inv[static_cast<std::size_t>(f.plan.perm[i])];
    }
    const CsrMatrix s = ilu_symbolic(permute_symmetric(a, q), f.opts.fill_level);
    lu = permute_symmetric(s, level_order);
  } else {
    lu = permute_symmetric(ilu_symbolic(a, f.opts.fill_level), f.plan.perm);
  }
  const std::vector<index_t> diag = diagonal_positions(lu);
  ilu_factor_serial_inplace(lu, diag, f.opts);
  return lu;
}

Factorization check_parity(const char* name, const CsrMatrix& a,
                           IluOptions opts) {
  Factorization f = ilu_factor(a, opts);
  const CsrMatrix ref = serial_reference(a, f);
  CHECK_MSG(f.lu.row_ptr().size() == ref.row_ptr().size() &&
                std::equal(f.lu.col_idx().begin(), f.lu.col_idx().end(),
                           ref.col_idx().begin(), ref.col_idx().end()) &&
                javelin::test::bitwise_equal(f.lu.values(), ref.values()),
            "%s method=%s threads=%d fill=%d ordering=%s", name,
            lower_method_name(f.plan.method), f.plan.threads,
            opts.fill_level, ordering_name(f.plan.ordering));
  return f;
}

/// Work of lower row i (local index) per the stored prefix.
offset_t row_work(const Factorization& f, index_t i) {
  return f.lower_work[static_cast<std::size_t>(i) + 1] -
         f.lower_work[static_cast<std::size_t>(i)];
}

/// The lower-stage blocks for `team` threads are contiguous and monotone,
/// cover [n_upper, n), and the heaviest carries at most total/team plus the
/// heaviest row's work.
void check_blocks(const char* name, const Factorization& f, int team) {
  const index_t n_lower = f.plan.num_lower_rows();
  if (n_lower == 0) {
    CHECK_MSG(f.lower_work.empty(), "%s: work prefix without lower rows",
              name);
    return;
  }
  CHECK_MSG(f.lower_work.size() == static_cast<std::size_t>(n_lower) + 1 &&
                f.lower_work.front() == 0 &&
                std::is_sorted(f.lower_work.begin(), f.lower_work.end()),
            "%s: malformed work prefix", name);
  offset_t heaviest_row = 0;
  for (index_t i = 0; i < n_lower; ++i) {
    heaviest_row = std::max(heaviest_row, row_work(f, i));
  }
  const offset_t total = f.lower_work.back();
  index_t next = f.plan.n_upper;
  offset_t heaviest_block = 0;
  for (int t = 0; t < team; ++t) {
    const Range b = lower_row_block(f, team, t);
    CHECK_MSG(b.begin == next && b.begin <= b.end,
              "%s team=%d: block %d [%d, %d) after %d", name, team, t,
              b.begin, b.end, next);
    offset_t w = 0;
    for (index_t r = b.begin; r < b.end; ++r) {
      w += row_work(f, r - f.plan.n_upper);
    }
    heaviest_block = std::max(heaviest_block, w);
    next = b.end;
  }
  CHECK_MSG(next == f.plan.n, "%s team=%d: blocks end at %d, n=%d", name,
            team, next, f.plan.n);
  CHECK_MSG(static_cast<double>(heaviest_block) <=
                static_cast<double>(total) / team +
                    static_cast<double>(heaviest_row),
            "%s team=%d: block work %lld > %lld/%d + %lld", name, team,
            static_cast<long long>(heaviest_block),
            static_cast<long long>(total), team,
            static_cast<long long>(heaviest_row));
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(22, 22, 5);
  CsrMatrix fem = gen::random_fem(900, 8, 11, 0.02);
  CsrMatrix circ = gen::circuit(1000, 5.0, 3, /*symmetric_pattern=*/true, 6);
  CsrMatrix chain = gen::long_chain(1200, 12, 4, 5);  // many tiny levels
  CsrMatrix power = gen::power_system(800, 16, 48, 9);

  struct Case {
    const char* name;
    const CsrMatrix* a;
  };
  const Case cases[] = {{"grid", &grid},
                        {"fem", &fem},
                        {"circuit", &circ},
                        {"chain", &chain},
                        {"power", &power}};

  for (const Case& c : cases) {
    for (int threads : {1, 2, 4}) {
      for (int fill : {0, 1}) {
        IluOptions opts;
        opts.num_threads = threads;
        opts.fill_level = fill;

        opts.lower_method = LowerMethod::kAuto;
        const Factorization f = check_parity(c.name, *c.a, opts);
        for (int team = 1; team <= 9; ++team) check_blocks(c.name, f, team);

        opts.lower_method = LowerMethod::kEvenRows;
        check_parity(c.name, *c.a, opts);

        // Zero moved rows: kNone keeps every level in the upper stage.
        opts.lower_method = LowerMethod::kNone;
        const Factorization none = check_parity(c.name, *c.a, opts);
        CHECK_MSG(none.plan.num_lower_rows() == 0 && none.lower_work.empty(),
                  "%s: kNone moved %d rows", c.name,
                  none.plan.num_lower_rows());
      }
    }
    // The parallel (barrier level-set) corner after the lower pass.
    IluOptions opts;
    opts.num_threads = 4;
    opts.parallel_corner = true;
    check_parity(c.name, *c.a, opts);
  }

  // Zero moved rows under kAuto: no level is small (α = 1) or dense.
  {
    IluOptions opts;
    opts.num_threads = 4;
    opts.min_level_rows = 1;
    opts.density_factor = 0;
    const Factorization f = check_parity("grid-nomove", grid, opts);
    CHECK_MSG(f.plan.num_lower_rows() == 0 &&
                  f.plan.method == LowerMethod::kNone,
              "grid-nomove moved %d rows", f.plan.num_lower_rows());
  }

  // A team larger than the number of lower rows: the tridiagonal chain has
  // one row per level, and only the last 0.5 % of levels may move.
  {
    const CsrMatrix tri = gen::laplacian2d(600, 1, 5);
    IluOptions opts;
    opts.num_threads = 4;
    opts.relative_location = 0.995;
    const Factorization f = check_parity("tri-few-lower", tri, opts);
    CHECK_MSG(f.plan.num_lower_rows() > 0 && f.plan.num_lower_rows() < 4,
              "tri-few-lower: %d lower rows", f.plan.num_lower_rows());
    for (int team = 1; team <= 8; ++team) check_blocks("tri", f, team);
  }

  // power_system: a few dense rows carry much of the lower-stage work, so
  // an even row-count split breaks the balance bound the work blocks keep.
  // Natural order: that is where its lower stage holds the dense rows.
  {
    IluOptions opts;
    opts.num_threads = 4;
    opts.ordering = Ordering::kNatural;
    const Factorization f = check_parity("power-dense", power, opts);
    const index_t n_lower = f.plan.num_lower_rows();
    offset_t heaviest_row = 0;
    for (index_t i = 0; i < n_lower; ++i) {
      heaviest_row = std::max(heaviest_row, row_work(f, i));
    }
    offset_t even_max = 0;
    for (int t = 0; t < 4; ++t) {
      const Range r = partition_range(n_lower, 4, t);
      const offset_t w = f.lower_work[static_cast<std::size_t>(r.end)] -
                         f.lower_work[static_cast<std::size_t>(r.begin)];
      even_max = std::max(even_max, w);
    }
    CHECK_MSG(even_max > f.lower_work.back() / 4 + heaviest_row,
              "power-dense: row-count split already balanced (%lld of %lld)",
              static_cast<long long>(even_max),
              static_cast<long long>(f.lower_work.back()));
    check_blocks("power-dense", f, 4);
  }

  // Refactor at runtime teams below the plan: the upper stage retargets and
  // the lower pass cuts its blocks for the runtime team. Each result must
  // still equal the serial factor of the new values.
  for (const Case& c : cases) {
    IluOptions opts;
    opts.num_threads = 4;
    Factorization f = ilu_factor(*c.a, opts);
    for (int team : {2, 3}) {
      CsrMatrix b = *c.a;
      for (auto& v : b.values_mut()) v *= 1.0 + 0.125 * team;
      gen::make_diagonally_dominant(b);
      ThreadCountGuard runtime(team);
      ilu_refactor(f, b);
      const CsrMatrix ref = serial_reference(b, f);
      CHECK_MSG(javelin::test::bitwise_equal(f.lu.values(), ref.values()),
                "%s refactor at runtime team %d", c.name, team);
    }
  }

  // The parallel corner runs at the runtime team as well: a refactor after
  // omp_set_num_threads(team) below a 4-thread plan factors no corner row on
  // a thread >= team, and still matches the serial factor.
  for (const Case& c : cases) {
    IluOptions opts;
    opts.num_threads = 4;
    opts.parallel_corner = true;
    index_t n_upper = 0;
    std::atomic<int> corner_thread_max{-1};
    opts.fault_hook = [&](FaultSite site, index_t r) {
      if (site == FaultSite::kFactorRow && r >= n_upper) {
        int seen = corner_thread_max.load();
        while (seen < thread_id() &&
               !corner_thread_max.compare_exchange_weak(seen, thread_id())) {
        }
      }
      return true;
    };
    Factorization f = ilu_factor(*c.a, opts);
    n_upper = f.plan.n_upper;
    for (int team : {4, 2, 1}) {
      CsrMatrix b = *c.a;
      for (auto& v : b.values_mut()) v *= 1.0 + 0.0625 * team;
      gen::make_diagonally_dominant(b);
      corner_thread_max = -1;
      ThreadCountGuard runtime(team);
      ilu_refactor(f, b);
      const CsrMatrix ref = serial_reference(b, f);
      CHECK_MSG(javelin::test::bitwise_equal(f.lu.values(), ref.values()),
                "%s parallel-corner refactor at runtime team %d", c.name,
                team);
      CHECK_MSG(corner_thread_max.load() < team,
                "%s: corner row on thread %d at runtime team %d", c.name,
                corner_thread_max.load(), team);
    }
  }

  // Drop tolerance interacts with the kernel's in-loop dropping; parity must
  // survive it (non-modified: modified ILU accumulates its diagonal
  // compensation per stage, which legitimately reorders the sum).
  IluOptions drop;
  drop.num_threads = 4;
  drop.drop_tolerance = 1e-3;
  check_parity("grid-drop", grid, drop);
  check_parity("chain-drop", chain, drop);

  return javelin::test::finish("test_factor_parity");
}
