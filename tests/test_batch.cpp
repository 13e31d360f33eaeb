// Property tests of the batched many-RHS path (ilu/batch.hpp,
// solver/batch.hpp): a batched solve of k right-hand sides must be bitwise
// equal to k independent scalar solves at every thread count, under P2P and
// all-barrier (CSR-LS) tags, fused and unfused; entry validation must throw
// instead of reading out of bounds; WorkspacePool must serve concurrent streams
// on one shared factorization; and pcg_many must reproduce scalar pcg per
// column.
#include <atomic>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

/// n×k column-major panel with deterministic pseudo-random entries.
std::vector<value_t> random_panel(index_t n, index_t k, std::uint64_t seed) {
  std::vector<value_t> panel;
  panel.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    const auto col = random_vector(n, seed + static_cast<std::uint64_t>(j));
    panel.insert(panel.end(), col.begin(), col.end());
  }
  return panel;
}

std::span<value_t> panel_col(std::vector<value_t>& p, index_t n, index_t j) {
  return std::span<value_t>(p).subspan(
      static_cast<std::size_t>(j) * static_cast<std::size_t>(n),
      static_cast<std::size_t>(n));
}

/// Batched vs k-independent-scalar parity for one matrix under one
/// (threads, barrier tags) configuration, across panel widths that exercise the
/// 8/4/2/1 register-block tail dispatch. Returns the k = 8 panel result for
/// cross-configuration comparison.
std::vector<value_t> check_batch_parity(const char* name, const CsrMatrix& a,
                                        IluOptions opts, bool barrier) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  opts.batch_rhs = 4;  // force solve_many to split k > 4 into several panels
  const Factorization f = barrier ? javelin::test::ilu_factor_csrls(a, opts)
                                  : ilu_factor(a, opts);
  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  const RowPartition part = RowPartition::build(a);
  SolveWorkspace ws_scalar, ws_panel;
  std::vector<value_t> k8_result;

  for (index_t k : {index_t{1}, index_t{3}, index_t{8}, index_t{17}}) {
    const std::size_t nk = un * static_cast<std::size_t>(k);
    std::vector<value_t> r = random_panel(n, k, 0xBA7C4 + static_cast<std::uint64_t>(k));

    // Scalar reference: k independent applies (and fused apply+spmv pairs).
    std::vector<value_t> z_ref(nk), t_ref(nk);
    for (index_t j = 0; j < k; ++j) {
      ilu_apply(f, panel_col(r, n, j), panel_col(z_ref, n, j), ws_scalar);
      spmv(a, part, panel_col(z_ref, n, j), panel_col(t_ref, n, j));
    }

    // Scheduled panel apply.
    std::vector<value_t> z(nk, 0);
    ilu_apply_panel(f, r, z, k, ws_panel);
    CHECK_MSG(bitwise_equal(z, z_ref), "%s panel vs scalar (T=%d k=%d)", name,
              opts.num_threads, static_cast<int>(k));

    // Serial-reference panel apply.
    std::vector<value_t> z_ser(nk, 0);
    SolveWorkspace ws_ser;
    ilu_apply_panel_serial(f, r, z_ser, k, ws_ser);
    CHECK_MSG(bitwise_equal(z_ser, z_ref), "%s serial panel (T=%d k=%d)", name,
              opts.num_threads, static_cast<int>(k));

    // solve_many splits into batch_rhs-wide panels; still bitwise.
    std::vector<value_t> z_many(nk, 0);
    solve_many(f, r, z_many, k, ws_panel);
    CHECK_MSG(bitwise_equal(z_many, z_ref), "%s solve_many (T=%d k=%d)", name,
              opts.num_threads, static_cast<int>(k));

    // Fused panel pass: z AND t must match the scalar pair columnwise.
    std::vector<value_t> z_fused(nk, 0), t_fused(nk, 0);
    ilu_apply_spmv_panel(f, a, fs, r, z_fused, t_fused, k, ws_panel);
    CHECK_MSG(bitwise_equal(z_fused, z_ref), "%s fused z (T=%d k=%d)", name,
              opts.num_threads, static_cast<int>(k));
    CHECK_MSG(bitwise_equal(t_fused, t_ref), "%s fused t (T=%d k=%d)", name,
              opts.num_threads, static_cast<int>(k));

    // Workspace reuse at a different width must not perturb results.
    std::vector<value_t> z2(nk, 0);
    ilu_apply_panel(f, r, z2, k, ws_panel);
    CHECK(bitwise_equal(z2, z_ref));

    if (k == 8) k8_result = std::move(z);
  }
  return k8_result;
}

void check_validation(const CsrMatrix& a) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const Factorization f = ilu_factor(a, {});
  SolveWorkspace ws;
  std::vector<value_t> r(un * 4), z(un * 4);

  const auto throws = [](auto&& fn) {
    try {
      fn();
    } catch (const Error&) {
      return true;
    }
    return false;
  };
  CHECK(throws([&] { ilu_apply_panel(f, r, z, 0, ws); }));
  CHECK(throws([&] { ilu_apply_panel(f, r, z, -3, ws); }));
  CHECK(throws([&] { ilu_apply_panel(f, std::span<const value_t>(r).first(un * 2), z, 4, ws); }));
  CHECK(throws([&] { ilu_apply_panel(f, r, std::span<value_t>(z).first(un * 3), 4, ws); }));
  CHECK(throws([&] { solve_many(f, r, z, 0, ws); }));
  CHECK(throws([&] { solve_many(f, std::span<const value_t>(r).first(un), z, 4, ws); }));
  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  std::vector<value_t> t(un * 4);
  CHECK(throws([&] {
    ilu_apply_spmv_panel(f, a, fs, r, z, std::span<value_t>(t).first(un * 2), 4, ws);
  }));
  CHECK(throws([&] {
    std::vector<value_t> b(un * 2), x(un * 2);
    pcg_many(a, b, x, 4, identity_panel_preconditioner());
  }));
  CHECK(throws([&] {
    std::vector<value_t> b(un), x(un);
    pcg_many(a, b, x, 0, identity_panel_preconditioner());
  }));
}

void check_pcg_many(const char* name, const CsrMatrix& a, IluOptions opts) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const index_t k = 5;
  const Factorization f = ilu_factor(a, opts);
  SolverOptions sopts;
  sopts.max_iterations = 300;
  sopts.tolerance = 1e-10;

  std::vector<value_t> b = random_panel(n, k, 0x5EED);
  // Column 2 scaled up (retires at a different iteration), column 4 zero
  // (exercises the bnorm == 0 immediate-converge path).
  for (std::size_t i = 0; i < un; ++i) b[2 * un + i] *= 1e3;
  for (std::size_t i = 0; i < un; ++i) b[4 * un + i] = 0;

  // Scalar reference trajectories on the SAME factorization.
  SolveWorkspace ws_scalar;
  const PrecondFn scalar_m = [&](std::span<const value_t> r,
                                 std::span<value_t> z) {
    ilu_apply(f, r, z, ws_scalar);
  };
  std::vector<value_t> x_ref(un * static_cast<std::size_t>(k), 0);
  std::vector<SolverResult> res_ref;
  for (index_t j = 0; j < k; ++j) {
    res_ref.push_back(
        pcg(a, panel_col(b, n, j), panel_col(x_ref, n, j), scalar_m, sopts));
  }

  WorkspacePool pool;
  std::vector<value_t> x(un * static_cast<std::size_t>(k), 0);
  const std::vector<SolverResult> res =
      pcg_many(a, b, x, k, ilu_panel_preconditioner(f, pool), sopts);

  CHECK(res.size() == static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    const SolverResult& rj = res[static_cast<std::size_t>(j)];
    const SolverResult& sj = res_ref[static_cast<std::size_t>(j)];
    CHECK_MSG(rj.iterations == sj.iterations && rj.converged == sj.converged,
              "%s col %d: many it=%d conv=%d vs scalar it=%d conv=%d", name,
              static_cast<int>(j), rj.iterations, rj.converged, sj.iterations,
              sj.converged);
    CHECK_MSG(rj.relative_residual == sj.relative_residual,
              "%s col %d residual %.17g vs %.17g", name, static_cast<int>(j),
              rj.relative_residual, sj.relative_residual);
  }
  CHECK_MSG(bitwise_equal(x, x_ref), "%s pcg_many solutions (T=%d)", name,
            opts.num_threads);
  CHECK_MSG(res[0].converged && res[2].converged,
            "%s pcg_many converged (res0=%.3g res2=%.3g)", name,
            res[0].relative_residual, res[2].relative_residual);
}

void check_workspace_pool(const CsrMatrix& a) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const Factorization f = ilu_factor(a, {});
  WorkspacePool pool;

  // Leases are exclusive and return their workspace on release.
  {
    auto l1 = pool.acquire();
    auto l2 = pool.acquire();
    CHECK(&*l1 != &*l2);
    CHECK(pool.idle() == 0);
  }
  CHECK(pool.idle() == 2);
  {
    auto l3 = pool.acquire();  // recycles, no new allocation needed
    CHECK(pool.idle() == 1);
  }
  CHECK(pool.idle() == 2);

  // Concurrent serving streams on ONE factorization: every stream leases its
  // own workspace, solves a private panel, and must reproduce the reference
  // bitwise — interleaving cannot leak state across streams.
  const index_t k = 6;
  const std::size_t nk = un * static_cast<std::size_t>(k);
  std::vector<value_t> r = random_panel(n, k, 0xC0FFEE);
  std::vector<value_t> z_ref(nk, 0);
  solve_many(f, r, z_ref, k);

  const int streams = 4;
  std::atomic<int> mismatches{0};
#pragma omp parallel num_threads(streams)
  {
#pragma omp for schedule(static)
    for (int s = 0; s < streams * 4; ++s) {
      std::vector<value_t> z(nk, 0);
      solve_many(f, r, z, k, pool);
      if (!bitwise_equal(z, z_ref)) mismatches.fetch_add(1);
    }
  }
  CHECK_MSG(mismatches.load() == 0, "%d stream(s) diverged", mismatches.load());
  CHECK(pool.idle() >= 1);  // the streams' workspaces were returned
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix fem = gen::random_fem(800, 8, 21, 0.02);
  CsrMatrix chain = gen::long_chain(1200, 10, 4, 3);
  CsrMatrix cube = gen::laplacian3d(10, 10, 10, 7);
  CsrMatrix aniso = gen::anisotropic3d(10, 10, 10, 0.1, 0.01);
  CsrMatrix jump = gen::jump3d(10, 10, 10, 3, 1e3, 77);
  gen::make_diagonally_dominant(fem);
  gen::make_diagonally_dominant(chain);

  struct Entry {
    const char* name;
    const CsrMatrix* a;
  };
  const Entry entries[] = {{"grid", &grid}, {"fem", &fem},    {"chain", &chain},
                           {"cube", &cube}, {"aniso", &aniso}, {"jump", &jump}};

  // Batched parity across thread counts, P2P and CSR-LS; panel results
  // must also be bitwise-identical ACROSS configurations.
  for (const Entry& e : entries) {
    std::vector<value_t> ref;
    for (bool barrier : {false, true}) {
      for (int threads : {1, 2, 4, 8}) {
        IluOptions opts;
        opts.num_threads = threads;
        opts.retarget_oversubscribed = false;  // planned-width schedules
        std::vector<value_t> z =
            check_batch_parity(e.name, *e.a, opts, barrier);
        if (ref.empty()) {
          ref = std::move(z);
        } else {
          CHECK_MSG(bitwise_equal(z, ref),
                    "%s panel across configs (barrier=%d T=%d)", e.name,
                    barrier ? 1 : 0, threads);
        }
      }
    }
  }

  check_validation(grid);

  for (int threads : {1, 4}) {
    IluOptions opts;
    opts.num_threads = threads;
    opts.retarget_oversubscribed = false;
    check_pcg_many("grid", grid, opts);
    check_pcg_many("jump", jump, opts);
  }

  check_workspace_pool(grid);

  return javelin::test::finish("test_batch");
}
