// Breakdown-safety properties: cooperative abort of the executor (P2P and
// all-barrier CSR-LS tags) under fault injection (bounded termination,
// structured status, no throw from inside a parallel region), the shifted-ILU
// retry ladder and preconditioner fallback chain of RobustSolver, the Krylov
// breakdown/non-finite/stagnation guards, and WorkspacePool lease
// exception-safety when an abort unwinds through the batched apply path.
#include <cmath>
#include <cstdio>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/solver/robust.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

namespace javelin {
namespace {

using test::bitwise_equal;
using test::random_vector;

IluOptions pinned_opts(int threads) {
  IluOptions opts;
  opts.num_threads = threads;
  opts.retarget_oversubscribed = false;  // force full scheduled width
  return opts;
}

/// `barrier` selects the CSR-LS sweep: every level tagged kBarrier.
const char* sweep_name(bool barrier) { return barrier ? "barrier" : "p2p"; }

/// A hook poisoning exactly one (site, permuted row). Only that row can win
/// the abort CAS, so the reported row is deterministic at any thread count.
FaultHook poison(FaultSite site, index_t row) {
  return [site, row](FaultSite s, index_t r) { return !(s == site && r == row); };
}

// --- fault injection: factorization ---------------------------------------

void check_factor_abort(const CsrMatrix& a, bool barrier, int threads) {
  ThreadCountGuard guard(threads);
  IluOptions opts = pinned_opts(threads);
  const index_t target = a.rows() / 2;
  opts.fault_hook = poison(FaultSite::kFactorRow, target);

  Factorization f = ilu_prepare(a, opts);
  if (barrier) tag_all_levels(f, LevelRegime::kBarrier);
  const FactorStatus st = ilu_factor_numeric_status(f);
  CHECK_MSG(!st.ok(), "factor fault ignored (%s, t=%d)", sweep_name(barrier),
            threads);
  CHECK_MSG(st.row == target, "factor abort row %lld != %lld (%s, t=%d)",
            static_cast<long long>(st.row), static_cast<long long>(target),
            sweep_name(barrier), threads);

  // The factor is reusable after the abort: rescatter and run hook-free.
  f.opts.fault_hook = nullptr;
  const FactorStatus ok = ilu_refactor_status(f, a);
  CHECK_MSG(ok.ok(), "refactor after abort failed (%s, t=%d)",
            sweep_name(barrier), threads);
}

// --- fault injection: triangular sweeps (plain, fused, panel) --------------

void check_sweep_abort(const CsrMatrix& a, bool barrier, int threads) {
  ThreadCountGuard guard(threads);
  Factorization f = barrier ? test::ilu_factor_csrls(a, pinned_opts(threads))
                            : ilu_factor(a, pinned_opts(threads));
  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  const index_t n = f.n();
  const index_t target = n / 3;
  const std::size_t un = static_cast<std::size_t>(n);
  const auto r = random_vector(n, 0xB0B);
  std::vector<value_t> z(un), t(un);
  SolveWorkspace ws;

  for (FaultSite site : {FaultSite::kForwardRow, FaultSite::kBackwardRow}) {
    f.opts.fault_hook = poison(site, target);

    // Non-throwing form: structured status with the poisoned row.
    const ExecStatus st = ilu_apply_status(f, r, z, ws);
    CHECK_MSG(!st.ok() && st.row == target,
              "sweep abort row %lld != %lld (site=%d, %s, t=%d)",
              static_cast<long long>(st.row), static_cast<long long>(target),
              static_cast<int>(site), sweep_name(barrier), threads);

    // Throwing form: AbortError AFTER the region drained (never from a
    // worker thread — a thrown exception inside the region would terminate).
    bool threw = false;
    try {
      ilu_apply(f, r, z, ws);
    } catch (const AbortError&) {
      threw = true;
    }
    CHECK_MSG(threw, "ilu_apply did not convert abort (%s, t=%d)",
              sweep_name(barrier), threads);

    // Fused apply+SpMV: the abort must also drain the SpMV chunk waits.
    threw = false;
    try {
      ilu_apply_spmv(f, a, fs, r, z, t, ws);
    } catch (const AbortError&) {
      threw = true;
    }
    CHECK_MSG(threw, "fused apply did not abort (site=%d, %s, t=%d)",
              static_cast<int>(site), sweep_name(barrier), threads);
  }

  // Panel paths, both sites.
  const index_t k = 4;
  const auto rp = random_vector(n * k, 0xB0B ^ 1);
  std::vector<value_t> zp(un * static_cast<std::size_t>(k));
  std::vector<value_t> tp(un * static_cast<std::size_t>(k));
  for (FaultSite site : {FaultSite::kForwardRow, FaultSite::kBackwardRow}) {
    f.opts.fault_hook = poison(site, target);
    bool threw = false;
    try {
      ilu_apply_panel(f, rp, zp, k, ws);
    } catch (const AbortError&) {
      threw = true;
    }
    CHECK_MSG(threw, "panel apply did not abort (site=%d, %s, t=%d)",
              static_cast<int>(site), sweep_name(barrier), threads);

    threw = false;
    try {
      ilu_apply_spmv_panel(f, a, fs, rp, zp, tp, k, ws);
    } catch (const AbortError&) {
      threw = true;
    }
    CHECK_MSG(threw, "fused panel apply did not abort (site=%d, %s, t=%d)",
              static_cast<int>(site), sweep_name(barrier), threads);
  }

  // Clearing the hook restores the unguarded paths bitwise.
  f.opts.fault_hook = nullptr;
  std::vector<value_t> z_ref(un);
  SolveWorkspace ws_ref;
  ilu_apply_serial(f, r, z_ref, ws_ref);
  ilu_apply(f, r, z, ws);
  CHECK_MSG(bitwise_equal(z, z_ref), "post-abort apply diverged (%s, t=%d)",
            sweep_name(barrier), threads);
}

// --- WorkspacePool lease exception-safety ----------------------------------

void check_lease_safety(const CsrMatrix& a) {
  ThreadCountGuard guard(4);
  Factorization f = ilu_factor(a, pinned_opts(4));
  WorkspacePool pool;
  const PanelPrecondFn precond = ilu_panel_preconditioner(f, pool);

  const index_t n = f.n();
  const index_t k = 3;
  const std::size_t need = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  const auto r = random_vector(n * k, 0x1EA5E);
  std::vector<value_t> z(need);

  // Warm the pool so the aborting call reuses a pooled workspace.
  precond(r, z, k);
  CHECK(pool.idle() == 1);

  // An abort mid-lease must release the workspace back to the pool (RAII
  // unwinding through ilu_apply_panel's AbortError).
  f.opts.fault_hook = poison(FaultSite::kBackwardRow, n / 2);
  bool threw = false;
  try {
    precond(r, z, k);
  } catch (const AbortError&) {
    threw = true;
  }
  CHECK_MSG(threw, "panel preconditioner did not abort");
  CHECK_MSG(pool.idle() == 1, "aborted lease leaked: %zu idle", pool.idle());

  // The pool stays usable, including by overlapping leases (two concurrent
  // streams = two distinct workspaces, returned independently).
  f.opts.fault_hook = nullptr;
  {
    WorkspacePool::Lease l1 = pool.acquire();
    WorkspacePool::Lease l2 = pool.acquire();
    CHECK(pool.idle() == 0);
    std::vector<value_t> z2(need);
    ilu_apply_panel(f, r, z, k, *l1);
    ilu_apply_panel(f, r, z2, k, *l2);
    CHECK(bitwise_equal(z, z2));
  }
  CHECK_MSG(pool.idle() == 2, "leases not returned: %zu idle", pool.idle());
  precond(r, z, k);
  CHECK(pool.idle() == 2);
}

// --- Krylov guards ----------------------------------------------------------

void check_krylov_guards() {
  // Exact PCG breakdown on an indefinite 2x2: A = diag(1, -1), b = [1, 1]
  // gives p = r = b, q = [1, -1], (p, q) = 0 on the first iteration.
  const CsrMatrix ind(2, 2, {0, 1, 2}, {0, 1}, {1.0, -1.0});
  std::vector<value_t> b = {1.0, 1.0}, x = {0.0, 0.0};
  SolverResult res = pcg(ind, b, x, identity_preconditioner());
  CHECK_MSG(res.stop == SolverStop::kBreakdown, "expected kBreakdown, got %s",
            to_string(res.stop));
  CHECK(!res.converged);

  // pcg_many mirrors per column: column 0 breaks down, column 1 converges —
  // the panel degrades per-column, not per-panel.
  std::vector<value_t> bp = {1.0, 1.0, 1.0, 0.0}, xp(4, 0.0);
  const auto many = pcg_many(ind, bp, xp, 2, identity_panel_preconditioner());
  CHECK_MSG(many[0].stop == SolverStop::kBreakdown, "col0 stop %s",
            to_string(many[0].stop));
  CHECK_MSG(many[1].stop == SolverStop::kConverged && many[1].converged,
            "col1 stop %s", to_string(many[1].stop));

  // A NaN-producing preconditioner trips the non-finite guard immediately
  // instead of iterating to the budget on garbage.
  const CsrMatrix spd = gen::laplacian2d(8, 8, 5);
  const auto bb = random_vector(spd.rows(), 0xBAD);
  std::vector<value_t> xx(bb.size(), 0.0);
  const PrecondFn nan_precond = [](std::span<const value_t>,
                                   std::span<value_t> z) {
    fill(z, std::numeric_limits<value_t>::quiet_NaN());
  };
  res = pcg(spd, bb, xx, nan_precond);
  CHECK_MSG(res.stop == SolverStop::kNonFinite, "pcg NaN precond stop %s",
            to_string(res.stop));
  CHECK(std::isfinite(res.relative_residual));  // honest recomputed residual

  std::fill(xx.begin(), xx.end(), 0.0);
  res = gmres(spd, bb, xx, nan_precond);
  CHECK_MSG(res.stop == SolverStop::kNonFinite, "gmres NaN precond stop %s",
            to_string(res.stop));
  for (const value_t v : xx) CHECK(std::isfinite(v));  // poisoned cycle discarded

  // Stagnation: an INCONSISTENT singular system (the saddle's redundant
  // constraint row is identically zero, but its rhs entry is not) can never
  // push the residual below that entry — the guard must hand the budget
  // back instead of burning max_iterations. The consistent A·x component
  // keeps the Krylov space rich (a pure e_last rhs would hit an exact happy
  // breakdown instead of a plateau).
  const CsrMatrix saddle = gen::degenerate_saddle(8, 8, 4);
  const auto xs_true = random_vector(saddle.rows(), 0x57A6);
  std::vector<value_t> bs(xs_true.size());
  {
    const RowPartition sp = RowPartition::build(saddle);
    spmv(saddle, sp, xs_true, bs);
  }
  bs.back() += 1.0;  // inconsistent: the last row of A is identically zero
  std::vector<value_t> xs(bs.size(), 0.0);
  SolverOptions so;
  so.stagnation_window = 8;
  so.max_iterations = 10000;
  res = gmres(saddle, bs, xs, identity_preconditioner(), so);
  CHECK_MSG(res.stop == SolverStop::kStagnation, "singular gmres stop %s",
            to_string(res.stop));
  CHECK_MSG(res.iterations < 10000, "stagnation guard did not fire early");
}

// --- RobustSolver: recovery of every in-tree degenerate matrix -------------

void check_robust_zero_diag(bool barrier) {
  const CsrMatrix a = gen::make_suite_matrix("zero_diag").matrix;
  const auto xt = random_vector(a.rows(), 0xD1A);
  std::vector<value_t> bb(xt.size());
  const RowPartition part = RowPartition::build(a);
  spmv(a, part, xt, bb);
  std::vector<value_t> x(xt.size(), 0.0);

  RobustOptions opts;
  opts.ilu = pinned_opts(max_threads());
  RobustSolver solver(a, opts);
  if (barrier) tag_all_levels(*solver.factorization(), LevelRegime::kBarrier);
  CHECK(solver.symmetric());
  const SolveReport rep = solver.solve(bb, x);
  CHECK_MSG(rep.converged, "zero_diag (%s): %s", sweep_name(barrier),
            rep.summary().c_str());
  CHECK(rep.cause == FailureCause::kNone);
  // Attempt trail: the unshifted rung must have died at the injected pivot
  // (permuted row of original row 0), and the winning rung carries a shift.
  CHECK(rep.attempts.size() >= 2);
  CHECK_MSG(!rep.attempts[0].factored, "unshifted ILU unexpectedly factored");
  CHECK(rep.attempts[0].level == PrecondLevel::kIlu);
  CHECK(rep.level_used == PrecondLevel::kShiftedIlu);
  CHECK_MSG(rep.shift_used > 0, "recovered without a shift?");
  // Every rung re-ran the numeric phase on the solver's (re-tagged) factor.
  CHECK(test::all_barrier(solver.factorization()->fwd) == barrier);
}

void check_robust_saddle() {
  const CsrMatrix a = gen::make_suite_matrix("saddle_point").matrix;
  const auto xt = random_vector(a.rows(), 0x5AD);
  std::vector<value_t> bb(xt.size());
  const RowPartition part = RowPartition::build(a);
  spmv(a, part, xt, bb);  // consistent rhs of the singular system
  std::vector<value_t> x(xt.size(), 0.0);

  RobustOptions opts;
  opts.solver.max_iterations = 2000;
  RobustSolver solver(a, opts);
  CHECK(solver.symmetric());  // indefinite but exactly symmetric
  const SolveReport rep = solver.solve(bb, x);
  CHECK_MSG(rep.converged, "saddle: %s", rep.summary().c_str());
  // The redundant constraint's exact-zero pivot must kill the unshifted rung.
  CHECK_MSG(!rep.attempts[0].factored, "saddle unshifted ILU factored");
  CHECK(rep.attempts[0].factor_row != kInvalidIndex);
  // Residual of the returned x is a true residual and meets the tolerance.
  std::vector<value_t> check(bb.size());
  spmv(a, part, x, check);
  value_t num = 0;
  for (std::size_t i = 0; i < bb.size(); ++i) {
    check[i] = bb[i] - check[i];
  }
  num = norm2(check) / norm2(std::span<const value_t>(bb));
  CHECK_MSG(num <= 1e-7, "saddle residual drifted: %.3g", num);
}

void check_robust_near_singular() {
  const CsrMatrix a = gen::make_suite_matrix("near_singular").matrix;
  const auto xt = random_vector(a.rows(), 0x4E5);
  std::vector<value_t> bb(xt.size());
  const RowPartition part = RowPartition::build(a);
  spmv(a, part, xt, bb);
  std::vector<value_t> x(xt.size(), 0.0);

  RobustOptions opts;
  opts.solver.max_iterations = 4000;
  opts.solver.tolerance = 1e-10;
  RobustSolver solver(a, opts);
  const SolveReport rep = solver.solve(bb, x);
  // This one FACTORS fine (it is a conditioning stressor, not a breakdown);
  // ILU-preconditioned CG should take it without shifts.
  CHECK_MSG(!rep.attempts.empty() && rep.attempts[0].factored,
            "near_singular factorization broke down");
  CHECK_MSG(rep.converged, "near_singular: %s", rep.summary().c_str());
  CHECK(rep.level_used == PrecondLevel::kIlu);
  CHECK(rep.shift_used == 0);
}

void check_robust_report_contract() {
  // A healthy matrix: one rung, no shift, cause none — the report must not
  // invent attempts that never ran.
  const CsrMatrix a = gen::laplacian2d(24, 24, 5);
  const auto xt = random_vector(a.rows(), 0x0C);
  std::vector<value_t> bb(xt.size());
  const RowPartition part = RowPartition::build(a);
  spmv(a, part, xt, bb);
  std::vector<value_t> x(xt.size(), 0.0);
  const SolveReport rep = solve_robust(a, bb, x);
  CHECK(rep.converged && rep.cause == FailureCause::kNone);
  CHECK(rep.attempts.size() == 1);
  CHECK(rep.attempts[0].level == PrecondLevel::kIlu);
  CHECK(rep.attempts[0].shift == 0 && !rep.attempts[0].used_gmres);
  CHECK(rep.total_iterations == rep.attempts[0].result.iterations);
  CHECK(!rep.summary().empty());

  // Ladder exhaustion is a report, not an exception: forbid every fallback
  // and poison the factorization at all shifts via an always-false hook.
  RobustOptions opts;
  opts.allow_jacobi = false;
  opts.allow_identity = false;
  opts.ilu.fault_hook = [](FaultSite s, index_t) {
    return s != FaultSite::kFactorRow;
  };
  std::fill(x.begin(), x.end(), 0.0);
  const SolveReport dead = solve_robust(a, bb, x, opts);
  CHECK(!dead.converged);
  CHECK(dead.cause == FailureCause::kFactorBreakdown);
  CHECK(dead.attempts.size() == 1 + 4);  // unshifted + max_shift_attempts
  for (const AttemptReport& at : dead.attempts) CHECK(!at.factored);
  for (const value_t v : x) CHECK(v == 0.0);  // caller's guess untouched
}

}  // namespace
}  // namespace javelin

int main() {
  using namespace javelin;

  const CsrMatrix grid = gen::laplacian2d(40, 40, 5);
  CsrMatrix fem = gen::random_fem(1200, 9, 0x7E57);

  for (bool barrier : {false, true}) {
    for (int threads : {1, 2, 4, 8}) {
      check_factor_abort(grid, barrier, threads);
      check_factor_abort(fem, barrier, threads);
      check_sweep_abort(grid, barrier, threads);
      check_sweep_abort(fem, barrier, threads);
    }
  }

  check_lease_safety(grid);
  check_krylov_guards();

  check_robust_zero_diag(false);
  check_robust_zero_diag(true);
  check_robust_saddle();
  check_robust_near_singular();
  check_robust_report_contract();

  return test::finish("test_robust");
}
