// Property tests of the execution layer (exec/):
//
//   * retarget(s, deps, T) is bitwise-identical — every schedule field — to
//     a fresh build at T, for T ∈ {1, 2, 4, 8}, forward and backward, and
//     the fused-SpMV companion rebuilt against a retargeted schedule equals
//     one built against a fresh schedule;
//   * a runtime team below the factor-time plan RETARGETS the solve paths
//     (the workspace cache fills for the real team) instead of degrading to
//     a serial sweep, and stays bitwise-identical to the serial reference;
//   * the barrier (CSR-LS) sweep — every level tagged kBarrier — is
//     bitwise-identical to the P2P sweep and to the serial reference at
//     every thread count, for ilu_apply, the fused apply+SpMV, and full
//     Krylov trajectories;
//   * tag_all_levels re-tags a factor between the two in place.
#include "javelin/exec/run.hpp"
#include "javelin/gen/generators.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::all_barrier;
using javelin::test::bitwise_equal;
using javelin::test::ilu_factor_csrls;
using javelin::test::random_vector;

namespace {

template <class T>
bool vec_eq(const char* what, const std::vector<T>& a, const std::vector<T>& b) {
  if (a == b) return true;
  std::printf("  schedule field %s differs (%zu vs %zu entries)\n", what,
              a.size(), b.size());
  return false;
}

bool schedules_equal(const ExecSchedule& a, const ExecSchedule& b) {
  bool ok = a.threads == b.threads &&
            a.n_total == b.n_total && a.chunk_rows == b.chunk_rows &&
            a.num_levels == b.num_levels && a.deps_total == b.deps_total &&
            a.deps_kept == b.deps_kept;
  if (!ok) std::printf("  schedule scalars differ\n");
  ok = vec_eq("thread_ptr", a.thread_ptr, b.thread_ptr) && ok;
  ok = vec_eq("item_ptr", a.item_ptr, b.item_ptr) && ok;
  ok = vec_eq("rows", a.rows, b.rows) && ok;
  ok = vec_eq("wait_ptr", a.wait_ptr, b.wait_ptr) && ok;
  ok = vec_eq("wait_thread", a.wait_thread, b.wait_thread) && ok;
  ok = vec_eq("wait_count", a.wait_count, b.wait_count) && ok;
  ok = vec_eq("level_ptr", a.level_ptr, b.level_ptr) && ok;
  ok = vec_eq("serial_order", a.serial_order, b.serial_order) && ok;
  ok = vec_eq("level_tags", a.level_tags, b.level_tags) && ok;
  ok = vec_eq("seg_level_ptr", a.seg_level_ptr, b.seg_level_ptr) && ok;
  ok = vec_eq("seg_items", a.seg_items, b.seg_items) && ok;
  return ok;
}

bool fused_equal(const FusedApplySpmv& a, const FusedApplySpmv& b) {
  bool ok = a.threads == b.threads && a.n == b.n &&
            a.chunk_rows == b.chunk_rows && a.deps_total == b.deps_total &&
            a.deps_kept == b.deps_kept;
  if (!ok) std::printf("  fused scalars differ\n");
  ok = vec_eq("fs.thread_ptr", a.thread_ptr, b.thread_ptr) && ok;
  ok = vec_eq("fs.chunk_begin", a.chunk_begin, b.chunk_begin) && ok;
  ok = vec_eq("fs.chunk_end", a.chunk_end, b.chunk_end) && ok;
  ok = vec_eq("fs.wait_ptr", a.wait_ptr, b.wait_ptr) && ok;
  ok = vec_eq("fs.wait_thread", a.wait_thread, b.wait_thread) && ok;
  ok = vec_eq("fs.wait_count", a.wait_count, b.wait_count) && ok;
  return ok;
}

/// Retargeting a factor's schedules must reproduce a fresh build at every
/// team size, for both directions and the fused companion.
void check_retarget_identity(const char* name, const CsrMatrix& a,
                             bool barrier) {
  ThreadCountGuard guard(8);
  IluOptions opts;
  opts.num_threads = 8;
  opts.retarget_oversubscribed = false;
  Factorization f = barrier ? ilu_factor_csrls(a, opts) : ilu_factor(a, opts);

  const DepsFn low = lower_triangular_deps(f.lu);
  const DepsFn up = upper_triangular_deps(f.lu);
  for (int T : {1, 2, 4, 8}) {
    // The fresh build gets the factor's regime tags (the default narrow-level
    // rule tags deep matrices), which retarget carries along.
    ExecSchedule fresh_fwd = build_upper_forward_schedule(
        f.lu, f.plan.upper_level_ptr, T, f.fwd.chunk_rows);
    ExecSchedule fresh_bwd =
        build_backward_schedule(f.lu, T, f.bwd.chunk_rows);
    if (f.fwd.hybrid()) apply_level_tags(fresh_fwd, low, f.fwd.level_tags);
    if (f.bwd.hybrid()) apply_level_tags(fresh_bwd, up, f.bwd.level_tags);
    CHECK_MSG(schedules_equal(retarget(f.fwd, low, T), fresh_fwd),
              "%s fwd retarget(%d)", name, T);
    CHECK_MSG(schedules_equal(retarget(f.bwd, up, T), fresh_bwd),
              "%s bwd retarget(%d)", name, T);
    CHECK_MSG(fused_equal(build_fused_apply_spmv(retarget(f.bwd, up, T),
                                                 f.plan, a),
                          build_fused_apply_spmv(fresh_bwd, f.plan, a)),
              "%s fused retarget(%d)", name, T);
  }
  // Round trip back to the planned team reproduces the factor's own.
  CHECK_MSG(schedules_equal(retarget(retarget(f.fwd, low, 3), low, 8), f.fwd),
            "%s fwd retarget round trip", name);
}

/// A runtime team below the plan must RETARGET (cache fills for the real
/// team) and stay bitwise-identical to the serial reference.
void check_runtime_retarget(const char* name, const CsrMatrix& a,
                            bool barrier) {
  Factorization f = [&] {
    ThreadCountGuard guard(4);
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;  // isolate the runtime-team clamp
    return barrier ? ilu_factor_csrls(a, opts) : ilu_factor(a, opts);
  }();
  const auto r = random_vector(f.n(), 0xFACE);
  std::vector<value_t> z_ref(r.size());
  SolveWorkspace ws_ref;
  ilu_apply_serial(f, r, z_ref, ws_ref);

  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  const RowPartition part = RowPartition::build(a, 1);
  std::vector<value_t> t_ref(r.size());
  spmv(a, part, z_ref, t_ref);

  for (int team : {1, 2, 3}) {
    ThreadCountGuard guard(team);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    CHECK_MSG(bitwise_equal(z, z_ref), "%s apply at runtime team %d", name,
              team);
    // The mismatch re-planned instead of walking the serial order: the
    // workspace cache targets exactly the runtime team.
    CHECK_MSG(ws.sched.threads == team, "%s cache team %d != %d", name,
              ws.sched.threads, team);
    CHECK_MSG(ws.sched.fwd.threads == team && ws.sched.bwd.threads == team,
              "%s cached schedules target %d/%d, want %d", name,
              ws.sched.fwd.threads, ws.sched.bwd.threads, team);

    // Fused pass under the shrunk team: bitwise against the references and
    // retargeted chunk structure for team > 1.
    std::vector<value_t> zf(r.size()), tf(r.size());
    SolveWorkspace wsf;
    ilu_apply_spmv(f, a, fs, r, zf, tf, wsf);
    CHECK_MSG(bitwise_equal(zf, z_ref), "%s fused z at team %d", name, team);
    CHECK_MSG(bitwise_equal(tf, t_ref), "%s fused t at team %d", name, team);
    if (team > 1) {
      CHECK_MSG(wsf.sched.fused && wsf.sched.fused->threads == team,
                "%s fused chunks retargeted to %d", name, team);
    }
  }
}

/// Default policy: a planned team that oversubscribes the hardware retargets
/// down to the core count; a matched team leaves the cache untouched.
void check_oversubscription_policy(const CsrMatrix& a) {
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;  // retarget_oversubscribed stays default (true)
  Factorization f = ilu_factor(a, opts);
  const int hw = hardware_cores();
  const int expected = hw > 0 ? std::min(4, hw) : 4;

  const auto r = random_vector(f.n(), 0xB00);
  std::vector<value_t> z(r.size()), z_ref(r.size());
  SolveWorkspace ws, ws_ref;
  ilu_apply(f, r, z, ws);
  ilu_apply_serial(f, r, z_ref, ws_ref);
  CHECK(bitwise_equal(z, z_ref));
  if (expected == 4) {
    CHECK_MSG(ws.sched.threads == 0, "matched team must not fill the cache");
  } else {
    CHECK_MSG(ws.sched.threads == expected,
              "oversubscribed plan retargets to %d, cache says %d", expected,
              ws.sched.threads);
  }
}

/// Barrier (CSR-LS) tags: bitwise-identical to P2P and to the serial
/// reference at every thread count, standalone and fused.
void check_barrier_parity(const char* name, const CsrMatrix& a, int threads) {
  ThreadCountGuard guard(threads);
  IluOptions opts;
  opts.num_threads = threads;
  opts.retarget_oversubscribed = false;

  FusedIluOperator p2p(a, opts);
  FusedIluOperator ls(a, ilu_factor_csrls(a, opts));
  CHECK(all_barrier(ls.factorization().fwd));

  const auto r = random_vector(a.rows(), 0xC5A);
  const std::size_t un = static_cast<std::size_t>(a.rows());
  std::vector<value_t> z_p(un), z_b(un), z_s(un), t_p(un), t_b(un);
  p2p.apply_spmv(r, z_p, t_p);
  ls.apply_spmv(r, z_b, t_b);
  SolveWorkspace ws;
  ilu_apply_serial(p2p.factorization(), r, z_s, ws);
  CHECK_MSG(bitwise_equal(z_b, z_p), "%s z barrier vs p2p (t=%d)", name,
            threads);
  CHECK_MSG(bitwise_equal(z_b, z_s), "%s z barrier vs serial (t=%d)", name,
            threads);
  CHECK_MSG(bitwise_equal(t_b, t_p), "%s t barrier vs p2p (t=%d)", name,
            threads);

  // Full PCG trajectories must coincide exactly.
  const auto b = random_vector(a.rows(), 0x51D);
  SolverOptions sopts;
  sopts.max_iterations = 120;
  sopts.tolerance = 1e-10;
  std::vector<value_t> x_p(un, 0), x_b(un, 0);
  const SolverResult rp = pcg(a, b, x_p, p2p.fn(), sopts);
  const SolverResult rb = pcg(a, b, x_b, ls.fn(), sopts);
  CHECK_MSG(rp.iterations == rb.iterations &&
                rp.relative_residual == rb.relative_residual,
            "%s pcg it %d/%d res %.17g/%.17g", name, rp.iterations,
            rb.iterations, rp.relative_residual, rb.relative_residual);
  CHECK_MSG(bitwise_equal(x_p, x_b), "%s pcg solution p2p vs barrier (t=%d)",
            name, threads);
}

}  // namespace

int main() {
  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix chain = gen::long_chain(1400, 10, 4, 3);
  CsrMatrix fem = gen::random_fem(1000, 8, 21, 0.02);

  check_retarget_identity("grid", grid, false);
  check_retarget_identity("grid-ls", grid, true);
  check_retarget_identity("chain", chain, false);
  check_retarget_identity("fem", fem, false);

  check_runtime_retarget("grid", grid, false);
  check_runtime_retarget("grid-ls", grid, true);
  check_runtime_retarget("chain", chain, false);

  check_oversubscription_policy(grid);

  for (int threads : {1, 2, 4}) {
    check_barrier_parity("grid", grid, threads);
    check_barrier_parity("fem", fem, threads);
  }

  // In-place re-tag: one factor, P2P then CSR-LS, one workspace.
  {
    ThreadCountGuard guard(4);
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    Factorization f = ilu_factor(grid, opts);
    const auto r = random_vector(f.n(), 0xF11);
    std::vector<value_t> z1(r.size()), z2(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z1, ws);
    tag_all_levels(f, LevelRegime::kBarrier);
    CHECK(all_barrier(f.fwd) && all_barrier(f.bwd));
    ilu_apply(f, r, z2, ws);
    CHECK(bitwise_equal(z1, z2));
  }

  return javelin::test::finish("test_exec");
}
