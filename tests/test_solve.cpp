// Property tests of the triangular-solve subsystem: the P2P fwd+bwd sweeps
// must match the serial reference solve bitwise, and on a matrix whose ILU(0)
// is exact (tridiagonal) ilu_apply must invert A to rounding accuracy.
#include <random>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

void check_apply_parity(const char* name, const CsrMatrix& a, IluOptions opts) {
  Factorization f = ilu_factor(a, opts);
  const auto r = random_vector(f.n(), 0xFEED);
  std::vector<value_t> z_par(r.size()), z_ser(r.size());
  SolveWorkspace ws_par, ws_ser;
  ilu_apply(f, r, z_par, ws_par);
  ilu_apply_serial(f, r, z_ser, ws_ser);
  CHECK_MSG(javelin::test::bitwise_equal(z_par, z_ser),
            "%s threads=%d lower_rows=%d", name, f.plan.threads,
            f.plan.num_lower_rows());

  // Repeat with the same workspace: reuse must not perturb results.
  std::vector<value_t> z2(r.size());
  ilu_apply(f, r, z2, ws_par);
  CHECK(javelin::test::bitwise_equal(z2, z_par));

  // Sweep-level parity on the permuted vectors.
  auto xp = random_vector(f.n(), 0xBEEF);
  auto xs = xp;
  SolveWorkspace ws;
  ws.resize(f.n(), f.plan.num_lower_rows());
  trsv_forward(f, xp, ws);
  trsv_forward_serial(f, xs);
  CHECK(javelin::test::bitwise_equal(xp, xs));
  trsv_backward(f, xp, ws);
  trsv_backward_serial(f, xs);
  CHECK(javelin::test::bitwise_equal(xp, xs));

  // And against the one-shot reference entry point.
  auto b = random_vector(f.n(), 0xC0DE);
  std::vector<value_t> x_ref(b.size());
  trsv_serial(f.lu, f.diag_pos, b, x_ref);
  auto x_p2p = b;
  trsv_forward(f, x_p2p, ws);
  trsv_backward(f, x_p2p, ws);
  CHECK(javelin::test::bitwise_equal(x_p2p, x_ref));
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix fem = gen::random_fem(1000, 8, 21, 0.02);
  CsrMatrix chain = gen::long_chain(1400, 10, 4, 3);
  CsrMatrix power = gen::power_system(900, 18, 50, 13);

  for (int threads : {1, 2, 4}) {
    IluOptions opts;
    opts.num_threads = threads;
    opts.retarget_oversubscribed = false;  // force planned-width schedules
    check_apply_parity("grid", grid, opts);
    check_apply_parity("fem", fem, opts);
    check_apply_parity("chain", chain, opts);
    check_apply_parity("power", power, opts);

    opts.fill_level = 1;
    check_apply_parity("grid-f1", grid, opts);
    opts.fill_level = 0;
    opts.lower_stage = false;
    check_apply_parity("chain-nolower", chain, opts);
  }

  // Tridiagonal matrix: ILU(0) is the exact LU, so the preconditioner is the
  // exact inverse — A * ilu_apply(r) must reproduce r to rounding.
  CsrMatrix tri = gen::laplacian2d(600, 1, 5);
  IluOptions opts;
  opts.num_threads = 4;
  Factorization f = ilu_factor(tri, opts);
  const auto r = random_vector(tri.rows(), 0xACE);
  std::vector<value_t> z(r.size()), az(r.size());
  ilu_apply(f, r, z);
  spmv_serial(tri, z, az);
  CHECK_MSG(javelin::test::max_abs_diff(az, r) < 1e-10, "exact-LU diff %.3g",
            javelin::test::max_abs_diff(az, r));

  return javelin::test::finish("test_solve");
}
