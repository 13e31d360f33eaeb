// Property tests of the fused solve+SpMV path: ilu_apply_spmv must be
// bitwise-identical to the unfused reference (ilu_apply followed by a
// partitioned spmv) at every thread count, and the restructured Krylov
// drivers must produce bitwise-identical trajectories whether they consume
// the fused or the unfused operator — the ISSUE-4 acceptance contract.
#include "javelin/gen/generators.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

/// Fused vs unfused operator outputs for one matrix at one thread count;
/// returns the fused (z, t) pair for cross-thread-count comparison.
std::pair<std::vector<value_t>, std::vector<value_t>> check_operator_parity(
    const char* name, const CsrMatrix& a, IluOptions opts) {
  FusedIluOperator fused(a, opts);
  const auto r = random_vector(a.rows(), 0xF00D);
  const std::size_t un = static_cast<std::size_t>(a.rows());

  std::vector<value_t> z_f(un), t_f(un), z_u(un), t_u(un);
  fused.apply_spmv(r, z_f, t_f);

  // Unfused reference: the same factorization applied as two kernel calls.
  const RowPartition part = RowPartition::build(a);
  fused.apply(r, z_u);
  spmv(a, part, z_u, t_u);

  CHECK_MSG(bitwise_equal(z_f, z_u), "%s z fused vs unfused (threads=%d)",
            name, opts.num_threads);
  CHECK_MSG(bitwise_equal(t_f, t_u), "%s t fused vs unfused (threads=%d)",
            name, opts.num_threads);

  // Workspace reuse must not perturb results.
  std::vector<value_t> z2(un), t2(un);
  fused.apply_spmv(r, z2, t2);
  CHECK(bitwise_equal(z2, z_f));
  CHECK(bitwise_equal(t2, t_f));
  return {std::move(z_f), std::move(t_f)};
}

void check_solver_parity(const char* name, const CsrMatrix& a, bool spd,
                         IluOptions opts, std::vector<value_t>* x_across) {
  const auto b = random_vector(a.rows(), 0x5EED);
  const std::size_t un = static_cast<std::size_t>(a.rows());
  SolverOptions sopts;
  sopts.max_iterations = 200;
  sopts.tolerance = 1e-10;

  FusedIluOperator fused(a, opts);
  const KrylovOperator unfused = unfused_operator(a, fused.fn());

  std::vector<value_t> x_f(un, 0), x_u(un, 0);
  const SolverResult rf = spd ? pcg_fused(a, b, x_f, fused.op(), sopts)
                              : gmres_fused(a, b, x_f, fused.op(), sopts);
  const SolverResult ru = spd ? pcg_fused(a, b, x_u, unfused, sopts)
                              : gmres_fused(a, b, x_u, unfused, sopts);
  CHECK_MSG(rf.iterations == ru.iterations && rf.converged == ru.converged,
            "%s fused it=%d conv=%d vs unfused it=%d conv=%d", name,
            rf.iterations, rf.converged, ru.iterations, ru.converged);
  CHECK_MSG(rf.relative_residual == ru.relative_residual,
            "%s residual fused %.17g vs unfused %.17g", name,
            rf.relative_residual, ru.relative_residual);
  CHECK_MSG(bitwise_equal(x_f, x_u), "%s solution fused vs unfused threads=%d",
            name, opts.num_threads);
  CHECK_MSG(rf.converged, "%s fused solve rel res %.3g after %d iters", name,
            rf.relative_residual, rf.iterations);

  // Across thread counts the trajectory must also be bitwise-identical
  // (deterministic blocked dot + thread-invariant apply/spmv kernels).
  if (x_across->empty()) {
    *x_across = x_f;
  } else {
    CHECK_MSG(bitwise_equal(x_f, *x_across),
              "%s solution across thread counts (threads=%d)", name,
              opts.num_threads);
  }
}

/// A schedule that leaves a row unscheduled cannot feed the fused companion:
/// the builder reports it as javelin::Error after its parallel region (a
/// throw from inside the region would terminate the process instead).
void check_uncovered_rows_throw(const CsrMatrix& a) {
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  opts.lower_stage = false;  // else no fwd wait set is built
  const Factorization f = ilu_factor(a, opts);
  // One level over every permuted row but the last: a strict subset.
  const index_t n = f.n();
  std::vector<index_t> rows(static_cast<std::size_t>(n) - 1);
  for (index_t r = 0; r + 1 < n; ++r) rows[static_cast<std::size_t>(r)] = r;
  const std::vector<index_t> level_ptr{0, n - 1};
  const DepsFn none = [](index_t, const std::function<void(index_t)>&) {};
  const ExecSchedule partial =
      build_exec_schedule(n, level_ptr, rows, none, f.bwd.threads);
  const auto throws = [&](const ExecSchedule& bwd, const ExecSchedule* fwd) {
    try {
      build_fused_apply_spmv(bwd, f.plan, a, kDefaultSpmvChunkRows, fwd);
    } catch (const Error&) {
      return true;
    }
    return false;
  };
  CHECK_MSG(throws(partial, nullptr), "partial bwd schedule accepted");
  CHECK_MSG(throws(f.bwd, &partial), "partial fwd schedule accepted");
  CHECK_MSG(!throws(f.bwd, &f.fwd), "full schedules rejected");
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix fem = gen::random_fem(1000, 8, 21, 0.02);
  CsrMatrix power = gen::power_system(900, 18, 50, 13);
  CsrMatrix chain = gen::long_chain(1400, 10, 4, 3);

  // Operator-level parity, plus cross-thread-count bitwise identity.
  struct Entry {
    const char* name;
    const CsrMatrix* a;
  };
  for (const Entry& e : {Entry{"grid", &grid}, Entry{"fem", &fem},
                         Entry{"power", &power}, Entry{"chain", &chain}}) {
    std::vector<value_t> z_ref, t_ref;
    for (int threads : {1, 2, 4}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.retarget_oversubscribed = false;  // force planned-width schedules
      auto [z, t] = check_operator_parity(e.name, *e.a, opts);
      if (z_ref.empty()) {
        z_ref = std::move(z);
        t_ref = std::move(t);
      } else {
        CHECK_MSG(bitwise_equal(z, z_ref), "%s z across thread counts (t=%d)",
                  e.name, threads);
        CHECK_MSG(bitwise_equal(t, t_ref), "%s t across thread counts (t=%d)",
                  e.name, threads);
      }
    }
  }

  // No lower stage: the fused forward runs without its corner/tail paths.
  {
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    opts.lower_stage = false;
    check_operator_parity("chain-nolower", chain, opts);
    opts.fill_level = 1;
    opts.lower_stage = true;
    check_operator_parity("grid-f1", grid, opts);
  }

  check_uncovered_rows_throw(grid);

  // Full solver trajectories: fused vs unfused and across thread counts.
  {
    std::vector<value_t> x_pcg, x_gmres;
    for (int threads : {1, 2, 4}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.retarget_oversubscribed = false;  // force planned-width schedules
      check_solver_parity("pcg-grid", grid, /*spd=*/true, opts, &x_pcg);
      check_solver_parity("gmres-power", power, /*spd=*/false, opts, &x_gmres);
    }
  }

  // Force the SCHEDULED fused path (oversubscription retarget off) so the
  // combined backward+SpMV region and its sparsified waits are exercised
  // even on machines where the team oversubscribes the hardware and the
  // autotune policy would re-plan down to the core count.
  for (const Entry& e : {Entry{"grid", &grid}, Entry{"fem", &fem},
                         Entry{"power", &power}, Entry{"chain", &chain}}) {
    for (int threads : {2, 4}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.retarget_oversubscribed = false;  // force planned-width schedules
      Factorization f = ilu_factor(*e.a, opts);
      FusedApplySpmv fs = build_fused_apply_spmv(f, *e.a);
      const auto r = random_vector(e.a->rows(), 0xF00D);
      const std::size_t un = static_cast<std::size_t>(e.a->rows());
      std::vector<value_t> z_f(un), t_f(un), z_u(un), t_u(un);
      SolveWorkspace ws_f, ws_u;
      ilu_apply_spmv(f, *e.a, fs, r, z_f, t_f, ws_f);
      ilu_apply(f, r, z_u, ws_u);
      spmv(*e.a, RowPartition::build(*e.a), z_u, t_u);
      CHECK_MSG(bitwise_equal(z_f, z_u), "%s scheduled z (threads=%d)",
                e.name, threads);
      CHECK_MSG(bitwise_equal(t_f, t_u), "%s scheduled t (threads=%d)",
                e.name, threads);
    }
  }

  // A non-default schedule chunk must not change any value, only the
  // synchronization granularity.
  {
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    opts.p2p_chunk_rows = 1;
    auto [z1, t1] = check_operator_parity("grid-chunk1", grid, opts);
    opts.p2p_chunk_rows = 64;
    auto [z64, t64] = check_operator_parity("grid-chunk64", grid, opts);
    CHECK(bitwise_equal(z1, z64));
    CHECK(bitwise_equal(t1, t64));
  }

  return javelin::test::finish("test_fused");
}
